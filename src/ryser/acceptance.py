"""Acceptance suite: nine end-to-end checks with wall-clock budgets.

Each check builds its own seeded instances, runs a construction against an
independent exact oracle (or a frozen closed form) and fails on the first
discrepancy by raising CriterionFailed, never by assert, so the checks also
run under python -O. The same runners back `ryser selftest` and the test
suite; check 6 re-verifies the counting identities on every colored graph
that checks 2 through 5 generate, so those instance streams are factored
out and cached.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .colored import (
    ColoredCompleteGraph,
    gyarfas_graph,
    is_valid_component_cover,
    merge_color_components,
    monochromatic_components,
    transitive_closure,
    isomorphic_colored,
)
from .delta2 import ryser_delta2
from .generators import gen_delta2, gen_t_intersecting_hypergraph, gen_transitive_colored
from .hypergraph import Hypergraph, dual
from .oracles import (
    alpha_prime_exact,
    max_partial_cover_distinct,
    min_component_cover,
    nu_exact,
    parameters_exact,
    rho_exact,
    tau_exact,
)
from .partial import (
    check_sharpness,
    coverage_bound,
    is_affine_blowup,
    partial_cover_distinct,
    verify_counting_identities,
)
from .planes import SUPPORTED_ORDERS, affine_plane, blowup_graph, truncated_projective_plane
from .tcover import cover_t


class CriterionFailed(Exception):
    """A criterion's check found a discrepancy; the message names the values."""


@dataclass
class CriterionResult:
    name: str
    ok: bool
    detail: str
    seconds: float
    budget: Optional[float]

    @property
    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        budget = f", budget {self.budget:.0f}s" if self.budget is not None else ""
        return f"{status} {self.name}: {self.detail} ({self.seconds:.2f}s{budget})"


def _run(name: str, budget: Optional[float], body: Callable[[], str]) -> CriterionResult:
    start = time.perf_counter()
    try:
        detail = body()
        ok = True
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
    seconds = time.perf_counter() - start
    if ok and budget is not None and seconds > budget:
        ok = False
        detail += f"; over budget ({seconds:.1f}s > {budget:.0f}s)"
    return CriterionResult(name, ok, detail, seconds, budget)


# -- shared instance streams --------------------------------------------------

_cache: dict[str, list] = {}


def rt_pairs() -> list[tuple[int, int]]:
    """All (r, t) with r <= 7 and r - 1 >= t > r/4."""
    return [(r, t) for r in range(2, 8) for t in range(1, r) if 4 * t > r]


def transitive_instances(per_pair: int = 200) -> list[tuple[int, int, ColoredCompleteGraph]]:
    key = f"transitive:{per_pair}"
    if key not in _cache:
        out = []
        for r, t in rt_pairs():
            for i in range(per_pair):
                n = 3 + (i % 22)  # 3..24
                seed = 1_000_000 * r + 10_000 * t + i
                out.append((r, t, gen_transitive_colored(n, r, t, seed)))
        _cache[key] = out
    return _cache[key]


def partial_instances(count: int = 200) -> list[ColoredCompleteGraph]:
    key = f"partial:{count}"
    if key not in _cache:
        out = []
        for i in range(count):
            r = 2 + (i % 4)  # 2..5
            n = 3 + (i % 38)  # 3..40
            out.append(gen_transitive_colored(n, r, 1, 5_000_000 + i))
        _cache[key] = out
    return _cache[key]


def blowup_instances() -> list[tuple[int, int, ColoredCompleteGraph]]:
    if "blowup" not in _cache:
        out = []
        for q in (2, 3, 4):
            plane = affine_plane(q)
            for b in (1, 2, 3):
                out.append((q, b, blowup_graph(plane, b)))
        _cache["blowup"] = out
    return _cache["blowup"]


def coarsened_instances(count: int = 50) -> list[ColoredCompleteGraph]:
    """Blowup colorings with two components of one color merged."""
    key = f"coarsened:{count}"
    if key not in _cache:
        out = []
        for q, b in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1)):
            g = blowup_graph(affine_plane(q), b)
            comps = monochromatic_components(g)
            for color in range(1, g.r + 1):
                k = comps.k(color)
                for a in range(k):
                    for bb in range(a + 1, k):
                        if len(out) < count:
                            out.append(merge_color_components(g, color, a, bb))
            if len(out) >= count:
                break
        if len(out) != count:
            raise CriterionFailed(f"built {len(out)} coarsened instances, need {count}")
        _cache[key] = out
    return _cache[key]


# -- the nine checks -----------------------------------------------------------


def criterion_1() -> CriterionResult:
    """Truncated projective planes: tau = q, nu = 1, so tau = (r-1)*nu."""

    def body() -> str:
        for q in (2, 3, 4, 5):
            h = truncated_projective_plane(q)
            p = parameters_exact(h)
            if p.tau != q:
                raise CriterionFailed(f"q={q}: tau={p.tau}")
            if p.nu != 1:
                raise CriterionFailed(f"q={q}: nu={p.nu}")
            if p.tau != (h.r - 1) * p.nu:
                raise CriterionFailed(f"q={q}: tau={p.tau} != (r-1)*nu={(h.r - 1) * p.nu}")
        return "tau = q and nu = 1 for q in {2,3,4,5}"

    return _run("criterion 1 sharp-family", 10, body)


def criterion_2() -> CriterionResult:
    """cover_t: valid, at most r - t parts, never beats the exact optimum."""

    def body() -> str:
        checked = compared = 0
        for r, t, g in transitive_instances():
            cover = cover_t(g, t)
            if not is_valid_component_cover(g, cover):
                raise CriterionFailed(f"invalid cover r={r} t={t} n={g.n}")
            if cover.size > r - t:
                raise CriterionFailed(f"{cover.size} parts > r-t={r - t}")
            if g.n <= 12:
                best = min_component_cover(g, max_total_components=256)
                if best.size > cover.size:
                    raise CriterionFailed(f"optimum {best.size} > constructed {cover.size}")
                compared += 1
            checked += 1
        return f"{checked} instances over {len(rt_pairs())} (r,t) pairs, {compared} oracle comparisons"

    return _run("criterion 2 t-intersecting-cover", 60, body)


def criterion_3() -> CriterionResult:
    """partial_cover_distinct: r - 1 distinct-color parts, coverage >= bound."""

    def body() -> str:
        for g in partial_instances():
            cover = partial_cover_distinct(g)
            colors = [c for c, _ in cover.parts]
            if cover.size != g.r - 1:
                raise CriterionFailed(f"{cover.size} parts, r={g.r}")
            if len(set(colors)) != g.r - 1:
                raise CriterionFailed(f"colors {colors} not pairwise distinct")
            if cover.common_vertex is None:
                raise CriterionFailed(f"no common vertex, n={g.n} r={g.r}")
            if not is_valid_component_cover(g, cover, require_spanning=False):
                raise CriterionFailed(f"invalid partial cover n={g.n} r={g.r}")
            need = math.ceil(coverage_bound(g.n, g.r))
            if cover.covered_count < need:
                raise CriterionFailed(f"covered {cover.covered_count} < {need}")
        return f"{len(partial_instances())} instances, r in 2..5, n up to 40"

    return _run("criterion 3 partial-cover-bound", 30, body)


def criterion_4() -> CriterionResult:
    """Blowups of affine planes: oracle meets the bound exactly, recognizer
    recovers the plane and the blowup factor."""

    def body() -> str:
        for q, b, g in blowup_instances():
            expected = b * (q * q - q + 1)
            best = max_partial_cover_distinct(g)
            if best.covered_count != expected:
                raise CriterionFailed(f"q={q} b={b}: {best.covered_count} != {expected}")
            if Fraction(expected) != coverage_bound(g.n, g.r):
                raise CriterionFailed(f"q={q} b={b}: bound {coverage_bound(g.n, g.r)} != {expected}")
            witness = is_affine_blowup(g)
            if witness is None:
                raise CriterionFailed(f"q={q} b={b}: not recognized")
            if witness.map.b != b or witness.plane.q != q:
                raise CriterionFailed(f"q={q} b={b}: recognized as q={witness.plane.q} b={witness.map.b}")
        return "9 blowups (q in {2,3,4}, b in {1,2,3}) sharp and recognized"

    return _run("criterion 4 blowup-sharpness", 60, body)


def criterion_5() -> CriterionResult:
    """Coarsened blowups: strictly above the bound, no blowup witness."""

    def body() -> str:
        for g in coarsened_instances():
            best = max_partial_cover_distinct(g)
            bound = coverage_bound(g.n, g.r)
            if Fraction(best.covered_count) <= bound:
                raise CriterionFailed(f"{best.covered_count} <= {bound}")
            if is_affine_blowup(g) is not None:
                raise CriterionFailed(f"coarsened graph n={g.n} r={g.r} recognized as blowup")
            report = check_sharpness(g)
            if report.is_sharp:
                raise CriterionFailed(f"coarsened graph n={g.n} r={g.r} reported sharp at {report.oracle_max}")
        return "50 coarsened blowups all strictly above the bound, none recognized"

    return _run("criterion 5 coarsened-not-sharp", 60, body)


def criterion_6() -> CriterionResult:
    """Counting identities in exact arithmetic on every colored instance
    used by checks 2 through 5."""

    def body() -> str:
        total = 0
        for _, _, g in transitive_instances():
            verify_counting_identities(g)
            total += 1
        for g in partial_instances():
            verify_counting_identities(g)
            total += 1
        for _, _, g in blowup_instances():
            verify_counting_identities(g)
            total += 1
        for g in coarsened_instances():
            verify_counting_identities(g)
            total += 1
        return f"difference-count and intra-component bounds hold on {total} instances"

    return _run("criterion 6 counting-identities", None, body)


def criterion_7() -> CriterionResult:
    """Degree-at-most-2 cover: tau <= |T| <= (r-1)*nu on seeded instances."""

    def body() -> str:
        modes = ("mixed", "cycle", "chain", "disjoint")
        for i in range(300):
            r = 3 + (i % 3)
            m = 1 + (i % 12)
            h = gen_delta2(r, m, seed=7_000_000 + i, mode=modes[i % 4])
            cover = ryser_delta2(h, verify=False)
            covset = set(cover)
            missed = next((e for e in h.edges if not covset & e), None)
            if missed is not None:
                raise CriterionFailed(f"seed {7_000_000 + i}: cover {sorted(covset)} misses edge {sorted(missed)}")
            tau = tau_exact(h, max_vertices=80, max_edges=64)
            nu = nu_exact(h, max_vertices=80, max_edges=64)
            if not tau <= len(cover) <= (r - 1) * nu:
                raise CriterionFailed(f"tau={tau} |T|={len(cover)} nu={nu} r={r}")
        return "300 instances, r in {3,4,5}, up to 12 edges"

    return _run("criterion 7 bounded-degree-cover", 60, body)


def criterion_8() -> CriterionResult:
    """Dual involution, alpha'(dual) = nu, tau = rho(dual), and the star /
    component correspondence of the Gyarfas graph, exhaustively."""

    def body() -> str:
        for i in range(100):
            r = 3 + (i % 2)
            t = 1 + (i % 2)
            m = 2 + (i % 7)
            class_size = 2 + ((i // 2) % 2)
            h, _ = gen_t_intersecting_hypergraph(r, t, m, class_size, seed=9_000_000 + i)
            _check_involution(h)
            hd = dual(h)
            alpha_p, nu = alpha_prime_exact(hd), nu_exact(h)
            if alpha_p != nu:
                raise CriterionFailed(f"seed {9_000_000 + i}: alpha'(dual)={alpha_p} != nu={nu}")
            rho, tau = rho_exact(hd), tau_exact(h)
            if rho != tau:
                raise CriterionFailed(f"seed {9_000_000 + i}: rho(dual)={rho} != tau={tau}")
            if h.m <= 8:
                _check_gyarfas_correspondence(h)
        return "100 instances: involution exact, dual parameters match, correspondence exhaustive"

    return _run("criterion 8 duality-correspondence", 30, body)


def _check_involution(h: Hypergraph) -> None:
    relabel = {v: f"e{j}" for j, v in enumerate(h.vertices)}
    expected = Hypergraph(
        h.r,
        [[relabel[v] for v in e] for e in h.edges],
        vertices=relabel.values(),
    )
    if dual(dual(h)) != expected:
        raise CriterionFailed("double dual differs from relabeled original")


def _check_gyarfas_correspondence(h: Hypergraph) -> None:
    """Both directions, all pairs and all components.

    Forward: color c joins edges i and j iff they use the same class-c
    vertex. Backward: the color-c components are exactly the nonempty
    class-c vertex stars.
    """
    g = gyarfas_graph(h)
    if not isinstance(g, ColoredCompleteGraph):
        raise CriterionFailed("intersecting instance gave a partial graph")
    if h.classes is None:
        raise CriterionFailed("hypergraph has no classes")
    for i in range(h.m):
        for j in range(i + 1, h.m):
            for c in range(1, h.r + 1):
                shared = h.edges[i] & h.edges[j] & h.classes[c - 1]
                if (c in g.col(i, j)) != bool(shared):
                    raise CriterionFailed(f"pair ({i},{j}) color {c}")
    # nonempty class-c stars are disjoint and exhaust the edge indices, so
    # they must literally be the color-c component partition
    comps = monochromatic_components(g)
    for c in range(1, h.r + 1):
        stars = {frozenset(i for i in range(h.m) if v in h.edges[i]) for v in h.classes[c - 1]}
        stars.discard(frozenset())
        got = set(comps.of_color(c))
        if got != stars:
            raise CriterionFailed(f"color {c}: components differ from stars")


def criterion_9() -> CriterionResult:
    """Gyarfas graph of the truncated plane vs blowup of the affine plane."""

    def body() -> str:
        for q in SUPPORTED_ORDERS:
            g1 = transitive_closure(gyarfas_graph(truncated_projective_plane(q)))
            g2 = blowup_graph(affine_plane(q), 1)
            if not isomorphic_colored(g1, g2):
                raise CriterionFailed(f"q={q}: not isomorphic")
        orders = ",".join(map(str, SUPPORTED_ORDERS))
        return f"round trip isomorphic with a checked witness for q in {{{orders}}}"

    return _run("criterion 9 plane-roundtrip", 10, body)


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all(verbose: bool = True) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        if verbose:
            print(res.line, flush=True)
    return results
