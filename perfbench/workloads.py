"""Per-instance routines and the timed closed loop.

Every call into the program goes through a module attribute
(``colored.parse_cgf(...)``), so the traced run sees it once spans.Tracer
has patched those attributes. Each routine returns the instance's exact
quality counts, and a certification step where an exhaustive oracle
certifies the answer outside the instance's time; a wrong answer raises
checks.CheckFailed.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ryser import colored, delta2, generators, hypergraph, oracles, partial, planes, tcover

import checks
from checks import CheckFailed, parts_of
from instances import Instance, cgf_labels, hgf_edges
from refclock import RefClock

# Oracle gates on certify-small, as in the acceptance suite: exhaustive
# searches only where they stay desk scale.
ORACLE_MAX_N = 12
PARTIAL_ORACLE_MAX_TUPLES = 200_000


class InstanceTimeout(BaseException):
    """Raised by SIGPROF inside the program; BaseException so that no
    ``except Exception`` in the program can swallow it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


@dataclass
class Quality:
    cover_parts: int = 0       # Σ parts of cover_t
    delta2_size: int = 0       # Σ |T| of ryser_delta2
    partial_covered: int = 0   # Σ vertices covered by partial_cover_distinct
    optimal: int = 0           # cover_t sizes equal to the oracle optimum
    compared: int = 0          # cover_t vs min_component_cover comparisons
    t_size: int = 0            # Σ |T| over certified delta2 instances
    t_budget: int = 0          # Σ (r-1) nu over the same instances

    def add(self, other: "Quality") -> None:
        for k in vars(self):
            setattr(self, k, getattr(self, k) + getattr(other, k))


# (quality counts, certification step or None)
Timed = tuple[Quality, Optional[Callable[[], None]]]


def _valid(g, cover, spanning: bool) -> None:
    if not colored.is_valid_component_cover(g, cover, require_spanning=spanning):
        raise CheckFailed("program's own is_valid_component_cover rejects its cover")


def _cover_and_partial(g, labels, t: Optional[int], q: Quality):
    cover = None
    if t is not None:
        cover = tcover.cover_t(g, t)
        _valid(g, cover, True)
        q.cover_parts += checks.check_cover_t(labels, t, parts_of(cover))
    pc = partial.partial_cover_distinct(g)
    _valid(g, pc, False)
    q.partial_covered += checks.check_partial(labels, parts_of(pc), pc.common_vertex)
    return cover, pc


def run_colored(inst: Instance) -> Timed:
    """colored-large, random colouring: text -> graph -> cover_t + partial."""
    q = Quality()
    if inst.fmt == "cgf":
        g = colored.parse_cgf(inst.text)
    else:
        g = colored.gyarfas_graph(hypergraph.parse_hgf(inst.text))
    if not isinstance(g, colored.ColoredCompleteGraph):
        raise CheckFailed("Gyarfas graph of an intersecting hypergraph is not complete")
    _cover_and_partial(g, inst.labels, inst.t, q)
    return q, None


def run_blowup(inst: Instance) -> Timed:
    """colored-large, affine-plane blowup. Every pair has 1 or r colours, so
    cover_t's hypothesis t > r/4 fails for q >= 3 and it is not run."""
    q = Quality()
    g = colored.parse_cgf(inst.text)
    _cover_and_partial(g, inst.labels, None, q)
    checks.check_blowup(partial.is_affine_blowup(g), inst.q, inst.b)
    return q, None


def _partial_tuples(labels: list[list[int]]) -> int:
    k = [len(set(lab)) for lab in labels]
    total = 0
    for omit in range(len(k)):
        prod = 1
        for c, kc in enumerate(k):
            if c != omit:
                prod *= kc
        total += prod
    return total


def run_tcover(inst: Instance) -> Timed:
    """certify-small: generator -> CGF -> cover_t and partial against the
    exhaustive oracles, plus the counting identities."""
    q = Quality()
    text = colored.to_cgf(generators.gen_transitive_colored(inst.n, inst.r, inst.t, inst.seed))
    labels = cgf_labels(text)
    g = colored.parse_cgf(text)
    cover, pc = _cover_and_partial(g, labels, inst.t, q)
    if inst.n <= ORACLE_MAX_N:
        best = oracles.min_component_cover(g, max_total_components=256)
        size = checks.check_cover_t(labels, inst.t, parts_of(best))
        if size > cover.size:
            raise CheckFailed(f"oracle optimum {size} > constructed {cover.size}")
        q.compared += 1
        q.optimal += size == cover.size
        if _partial_tuples(labels) <= PARTIAL_ORACLE_MAX_TUPLES:
            opt = oracles.max_partial_cover_distinct(g)
            if opt.covered_count < pc.covered_count:
                raise CheckFailed(f"oracle maximum {opt.covered_count} < constructed {pc.covered_count}")
    partial.verify_counting_identities(g)
    return q, None


def run_sharp(inst: Instance) -> Timed:
    """certify-small: blowups are sharp and recognized with their (q, b);
    coarsened blowups are strictly above the bound and not recognized."""
    g0 = planes.blowup_graph(planes.affine_plane(inst.q), inst.b)
    if inst.merge is not None:
        g0 = colored.merge_color_components(g0, *inst.merge)
    g = colored.parse_cgf(colored.to_cgf(g0))
    rep = partial.check_sharpness(g)
    exact = inst.b * (inst.q * inst.q - inst.q + 1)  # the bound, an integer here
    if inst.merge is None:
        if not rep.is_sharp or rep.oracle_max != exact:
            raise CheckFailed(f"blowup not sharp: oracle {rep.oracle_max}, bound {exact}")
        checks.check_blowup(rep.blowup, inst.q, inst.b)
    elif rep.is_sharp or rep.blowup is not None or rep.oracle_max <= exact:
        raise CheckFailed(f"coarsened blowup reported sharp or at the bound (oracle {rep.oracle_max})")
    partial.verify_counting_identities(g)
    return Quality(), None


def run_ryser_bound(inst: Instance) -> Timed:
    """certify-small: nu <= tau <= (r-1) nu on small degree-2 instances."""
    text = hypergraph.to_hgf(generators.gen_delta2(inst.r, inst.m, inst.seed, mode=inst.mode))
    h = hypergraph.parse_hgf(text)
    if len(h.edges) != len(hgf_edges(text)):
        raise CheckFailed("parsed edge count differs from the text")
    tau = oracles.tau_exact(h, max_vertices=h.n, max_edges=h.m)
    nu = oracles.nu_exact(h, max_vertices=h.n, max_edges=h.m)
    if not nu <= tau <= (inst.r - 1) * nu:
        raise CheckFailed(f"need nu={nu} <= tau={tau} <= (r-1)nu")
    return Quality(), None


def run_delta2(inst: Instance) -> Timed:
    """delta2-ladder: HGF -> ryser_delta2(verify=False) -> hitting check. On
    the small rung the certification tau <= |T| <= (r-1) nu follows with the
    exhaustive oracles, outside the instance's time."""
    q = Quality()
    h = hypergraph.parse_hgf(inst.text)
    cover = delta2.ryser_delta2(h, verify=False)
    size = checks.check_hitting(inst.edges, cover)
    q.delta2_size += size
    if inst.rung != "small":
        return q, None

    def certify() -> None:
        tau = oracles.tau_exact(h, max_vertices=h.n, max_edges=h.m)
        nu = oracles.nu_exact(h, max_vertices=h.n, max_edges=h.m)
        checks.check_ryser_window(tau, size, nu, inst.r)
        q.t_size += size
        q.t_budget += (inst.r - 1) * nu

    return q, certify


ROUTINES: dict[str, Callable[[Instance], Timed]] = {
    "colored": run_colored,
    "blowup": run_blowup,
    "tcover": run_tcover,
    "sharp": run_sharp,
    "ryser-bound": run_ryser_bound,
    "delta2": run_delta2,
}


@dataclass
class LoopResult:
    samples: list[float] = field(default_factory=list)  # reference seconds per attempted instance
    attempted: int = 0
    timeouts: int = 0
    wrong: int = 0
    uncertified: int = 0  # certifications stopped by the time limit
    instances: int = 0  # distinct instances in the pool
    failed_instances: set[int] = field(default_factory=set)  # ids with a failed attempt
    errors: list[str] = field(default_factory=list)
    rounds: int = 0
    wall_s: float = 0.0  # wall time of the loop, launches left out
    quality: Quality = field(default_factory=Quality)  # first completed attempt of each instance

    def median_times(self, pool: list[Instance]) -> list[float]:
        """Each distinct instance's median attempt, in reference seconds."""
        times: dict[int, list[float]] = {}
        for k, dt in enumerate(self.samples):
            times.setdefault(id(pool[k % len(pool)]), []).append(dt)
        return [checks.median(ts) for ts in times.values()]

    @property
    def work_s(self) -> float:
        """Reference seconds of all attempts."""
        return sum(self.samples)

    @property
    def failed(self) -> int:
        return self.timeouts + self.wrong

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def ok_ratio(self) -> float:
        """Share of distinct instances none of whose attempts failed."""
        return 1.0 - len(self.failed_instances) / self.instances

    def fail(self, inst: Instance, exc: BaseException) -> None:
        self.failed_instances.add(id(inst))
        if isinstance(exc, InstanceTimeout):
            self.timeouts += 1
            return
        self.wrong += 1
        if len(self.errors) < 5:
            self.errors.append(f"{inst.name}: {type(exc).__name__}: {exc}")


def _limited(clock: RefClock, limit_s: float, fn: Callable):
    """fn() stopped by SIGPROF after `limit_s` reference seconds of CPU time."""
    signal.setitimer(signal.ITIMER_PROF, clock.cpu_budget(limit_s))
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)


def run_loop(
    pool: list[Instance],
    seconds: float,
    tracer=None,
    between: Optional[Callable[[float], None]] = None,
    clock: Optional[RefClock] = None,
) -> LoopResult:
    """Closed loop over whole rounds of the pool, as many as bring the loop's
    wall time closest to `seconds` (at least one). Work is timed in CPU
    time on `clock` (a new RefClock if none is given), which samples the
    host's speed while the loop runs unless it is traced, and converted to
    reference seconds at the end; a timed-out attempt counts as its limit.
    Each instance runs under its own time limit, and so does the
    certification step of its first completed attempt, which is not timed.
    After each instance, `between(share of seconds done)` may run other
    measurements; its time is left out of the loop time."""
    clock = clock or RefClock()
    wall = time.perf_counter
    res = LoopResult(instances=len({id(inst) for inst in pool}))
    counted: set[int] = set()
    # (CPU reading before, after, or the limit if it timed out) per attempt
    attempts: list[tuple[float, float, Optional[float]]] = []
    paused = 0.0
    previous = signal.signal(signal.SIGPROF, _on_alarm)
    root = tracer.open("bench.run") if tracer else -1
    if not tracer:
        clock.start()
    start = wall()
    try:
        while True:
            for inst in pool:
                if tracer:
                    tracer.instance = res.attempted
                    sid = tracer.open("bench.instance")
                t0 = clock.cpu()
                q = certify = None
                limit = None
                try:
                    q, certify = _limited(clock, inst.limit_s, lambda: ROUTINES[inst.kind](inst))
                except (Exception, InstanceTimeout) as exc:  # a wrong answer, a crash or a timeout: record it, keep measuring
                    res.fail(inst, exc)
                    limit = inst.limit_s if isinstance(exc, InstanceTimeout) else None
                attempts.append((t0, clock.cpu(), limit))
                res.attempted += 1
                if q is not None and id(inst) not in counted:
                    counted.add(id(inst))
                    if certify is not None:
                        try:
                            _limited(clock, inst.limit_s, certify)
                        except InstanceTimeout:
                            res.uncertified += 1
                            q = None
                        except Exception as exc:
                            res.fail(inst, exc)
                            q = None
                    if q is not None:
                        res.quality.add(q)
                if tracer:
                    tracer.close(sid)
                if between:
                    t2 = wall()
                    between((t2 - start - paused) / seconds if seconds > 0 else 1.0)
                    paused += wall() - t2
            res.rounds += 1
            busy = wall() - start - paused
            if busy + busy / res.rounds / 2 >= seconds:
                break
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        clock.stop()
        res.wall_s = wall() - start - paused
        if tracer:
            tracer.close(root)
        signal.signal(signal.SIGPROF, previous)
    res.samples = [limit if limit is not None else clock.to_ref(a, b) for a, b, limit in attempts]
    return res


# -- CLI runs on a pinned representative input ----------------------------------


@dataclass
class CliCase:
    argv: list[str]
    text: str
    expect: Callable[[dict], bool]


def cli_cases(workload: str) -> list[CliCase]:
    """Seed-independent inputs, so CLI times compare across seeds."""
    import instances

    if workload == "delta2-ladder":
        text = hypergraph.to_hgf(generators.gen_delta2(3, 20, 20240, mode="mixed"))
        edges = hgf_edges(text)
        ok = lambda rep: checks.check_hitting(edges, rep["outputs"]["cover"]) == rep["outputs"]["size"]  # noqa: E731
        return [CliCase(["delta2"], text, ok)]
    n, r = (200, 7) if workload == "colored-large" else (12, 5)
    t = instances.min_t(r)
    labels = instances.transitive_labels(instances.workload_rng(f"pinned-{workload}", 0), n, r, t)
    text = instances.labels_to_cgf(labels)
    ok_t = lambda rep: all(rep["checks"].values()) and rep["outputs"]["covered"] == n  # noqa: E731
    ok_p = lambda rep: all(rep["checks"].values()) and rep["outputs"]["size"] == r - 1  # noqa: E731
    return [CliCase(["cover-t", "--t", str(t)], text, ok_t), CliCase(["cover-partial"], text, ok_p)]

