"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the workload's seeded instances,
runs them in a closed loop in this one process for whole rounds, about
--seconds seconds in all, checks every answer, and prints a JSON object as the last
line of stdout. With --trace 0 that object holds the end-to-end metrics;
with --trace 1 the loop runs with every public layer function wrapped in a
span and the object holds the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_LAUNCHES = 9
CLI_LAUNCHES = 10  # per workload, split evenly over its commands


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _launch(argv: list[str], text: str = "") -> tuple[float, subprocess.CompletedProcess]:
    """(CPU seconds of the child, user and system, its result)."""
    before = _children_cpu()
    proc = subprocess.run(
        [sys.executable, *argv], input=text, capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=120
    )
    return _children_cpu() - before, proc


SETUP = ["-c", "import ryser.cli"]


def _setup_launch() -> float:
    dt, proc = _launch(SETUP)
    if proc.returncode != 0:
        raise RuntimeError(f"import ryser.cli failed: {proc.stderr.strip()[-300:]}")
    return dt


def import_split() -> tuple[float, float]:
    """(networkx, rest of ryser.cli) cumulative import seconds, from one
    ``python -X importtime`` launch."""
    _, proc = _launch(["-X", "importtime", "-c", "import ryser.cli"])
    cumulative: dict[str, int] = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]))
    total = cumulative.get("ryser.cli", 0)
    nx = cumulative.get("networkx", 0)
    return nx / 1e6, (total - nx) / 1e6


class Launches:
    """Fresh-interpreter measurements spread over the timed loop.

    Each launch is timed as the child's CPU time, converted to reference
    seconds with calibration bursts just before and after it. The launches
    behind setup_s and cli_p50_s are interleaved with the instances
    (alternating an import launch and a CLI launch) rather than made in one
    burst, so they sample the same stretch of time as the loop does.
    """

    def __init__(self, workload: str):
        import workloads

        cases = workloads.cli_cases(workload)
        clis = [cases[i % len(cases)] for i in range(CLI_LAUNCHES)]
        self.plan: list = []  # None marks an import launch
        for i in range(max(SETUP_LAUNCHES, len(clis))):
            if i < SETUP_LAUNCHES:
                self.plan.append(None)
            if i < len(clis):
                self.plan.append(clis[i])
        self.setup: list[float] = []
        self.cli: list[tuple[str, float]] = []  # (command, time)
        self.errors: list[str] = []
        _launch(SETUP)  # writes bytecode caches if missing

    def __call__(self, share: float) -> None:
        """Run launches until their share of the plan reaches `share`."""
        while len(self.setup) + len(self.cli) < min(1.0, share) * len(self.plan):
            self._next()

    def finish(self) -> None:
        self(1.0)

    def cli_p50(self) -> float:
        """Each command's median launch, averaged over the commands: a
        median over all launches would fall between two commands' times."""
        import checks

        per: dict[str, list[float]] = {}
        for cmd, t in self.cli:
            per.setdefault(cmd, []).append(t)
        return sum(checks.median(ts) for ts in per.values()) / len(per)

    def _next(self) -> None:
        from checks import CheckFailed

        case = self.plan[len(self.setup) + len(self.cli)]
        before = refclock.burst()
        if case is None:
            cpu = _setup_launch()
            self.setup.append(refclock.to_ref(cpu, (before + refclock.burst()) / 2))
            return
        cpu, proc = _launch(["-m", "ryser.cli", *case.argv, "--json", "-"], case.text)
        self.cli.append((case.argv[0], refclock.to_ref(cpu, (before + refclock.burst()) / 2)))
        try:
            ok = proc.returncode == 0 and case.expect(json.loads(proc.stdout))
        except (ValueError, KeyError, CheckFailed):
            ok = False
        if not ok:
            self.errors.append(f"cli {case.argv[0]}: exit {proc.returncode}, report checks failed {proc.stderr.strip()[-300:]}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, pool, seconds: float) -> tuple[dict, object, list[str]]:
    import checks
    import workloads
    from refclock import RefClock

    clock = RefClock()
    launches = Launches(workload)
    res = workloads.run_loop(pool, seconds, between=launches, clock=clock)
    rss = peak_rss_mb()
    launches.finish()
    res.errors += launches.errors
    res.wrong += len(launches.errors)
    # An instance's time is its median attempt, whatever the number of
    # rounds that fit.
    ms = [1000.0 * t for t in res.median_times(pool)]
    pct, tail_ms = checks.tail(ms)
    q = res.quality
    metrics = {
        "setup_s": metric(checks.median(launches.setup), "s"),
        "cli_p50_s": metric(launches.cli_p50(), "s"),
        "instances_per_s": metric(res.completed / res.work_s, "1/s"),
        "instance_p50_ms": metric(checks.median(ms), "ms"),
        "instance_tail_ms": metric(tail_ms, "ms"),
        "ok_ratio": metric(res.ok_ratio, "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
        "cover_size_sum": metric(q.cover_parts + q.delta2_size, "count"),
    }
    notes = [
        f"rounds {res.rounds} of {len(pool)} attempts, {res.attempted} attempted in {res.wall_s:.3f} s wall, "
        f"{res.work_s:.3f} reference s of work ({clock.samples} speed samples)",
        f"instance_tail_ms is p{pct:g} over {len(ms)} instances, each its median attempt",
        f"failed_ratio {1 - res.ok_ratio:.6f}: {len(res.failed_instances)} of {res.instances} instances "
        f"({res.timeouts} timeouts, {res.wrong} wrong attempts); {res.uncertified} certifications timed out",
        f"partial_covered_sum {q.partial_covered}",
    ]
    return metrics, res, notes


PER_LAYER_SELF = (
    "colored.parse_cgf", "colored.ColoredCompleteGraph", "colored.gyarfas_graph",
    "colored.contract_full_color_classes", "colored.is_valid_component_cover",
    "hypergraph.parse_hgf", "hypergraph.validate", "hypergraph.dual",
    "planes.blowup_graph",
    "tcover.cover_t", "tcover.lemma_cover",
    "partial.partial_cover_distinct", "partial.color_stats", "partial.verify_counting_identities",
    "partial.is_affine_blowup", "partial.check_sharpness",
    "generators.gen_transitive_colored", "generators.gen_delta2",
    "oracles.min_component_cover", "oracles.max_partial_cover_distinct", "oracles.tau_exact", "oracles.nu_exact",
    "delta2.reduce_dual", "delta2.ryser_delta2", "delta2.edge_cover_graph",
    "graphs.max_independent_set", "graphs.max_matching",
)
PER_LAYER_CALLS = (
    "colored.ColoredCompleteGraph", "generators.gen_transitive_colored",
    "graphs.max_independent_set", "graphs.max_matching",
)


def per_layer(workload: str, pool, seconds: float, seed: int) -> tuple[dict, object, list[str]]:
    """Traced loop. Times and counts are per round of the pool, so runs that
    fit a different number of rounds compare."""
    import spans
    import workloads

    cost = spans.span_cost()
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = workloads.run_loop(pool, seconds, tracer)
    finally:
        tracer.uninstall()
    nx_s, ryser_s = import_split()
    own = tracer.self_times()
    q = res.quality
    k = res.rounds
    layers = sum(v for name, v in own.items() if not name.startswith("bench."))
    check = own.get(spans.CHECK_SPAN, 0.0)
    loose, allowed = tracer.attribution(res.wall_s, cost)
    oracle = sum(v for name, v in own.items() if name.startswith("oracles."))
    overhead = cost * len(tracer.spans)
    metrics = {
        "cli.import.networkx_s": metric(nx_s, "s"),
        "cli.import.ryser_s": metric(ryser_s, "s"),
    }
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = metric(own.get(name, 0.0) / k, "s")
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = metric(tracer.calls.get(name, 0) / k, "count")
    metrics["colored.ColoredCompleteGraph.pairs"] = metric(tracer.pairs / k, "count")
    metrics["delta2.timeouts"] = metric(res.timeouts / k, "count")
    metrics["delta2.uncertified"] = metric(res.uncertified / k, "count")
    metrics["oracles.share"] = metric(oracle / res.wall_s, "ratio")
    metrics["tcover.optimal_share"] = metric(q.optimal / q.compared if q.compared else 0.0, "ratio")
    metrics["delta2.budget_use"] = metric(q.t_size / q.t_budget if q.t_budget else 0.0, "ratio")
    metrics["partial.covered_sum"] = metric(q.partial_covered, "count")
    metrics["trace.wall_s"] = metric(res.wall_s / k, "s")
    metrics["trace.layers_self_s"] = metric(layers / k, "s")
    metrics["trace.check_s"] = metric(check / k, "s")
    metrics["trace.unattributed_s"] = metric(loose / k, "s")
    metrics["trace.overhead_s"] = metric(overhead / k, "s")
    metrics["trace.spans"] = metric(len(tracer.spans) / k, "count")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(path)
    notes = [
        f"traced: {k} rounds, {res.attempted} attempts, {len(tracer.spans)} spans in {res.wall_s:.3f} s",
        f"self times: layers {layers:.4f} s + checks {check:.4f} s + unattributed {loose:.4f} s "
        f"of wall {res.wall_s:.4f} s (tracing overhead {overhead:.4f} s, unattributed allowed {allowed:.4f} s)",
        f"spans written to {path.relative_to(ROOT)}",
    ]
    if loose > allowed:
        res.errors.append("wrapped layers and checks do not account for the traced wall time")
        res.wrong += 1
    return metrics, res, notes


def main(argv=None) -> int:
    import instances

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ryser" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'ryser'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pool = instances.build(args.workload, args.seed)
    if args.trace:
        metrics, res, notes = per_layer(args.workload, pool, args.seconds, args.seed)
    else:
        metrics, res, notes = end_to_end(args.workload, pool, args.seconds)
    for line in notes + res.errors:
        print(line)
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>14.6g} {m['unit']}")
    result = {"correct": res.wrong == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
