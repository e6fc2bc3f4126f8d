"""Tests for the benchmark's own code: seeded inputs, checkers, tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for p in (str(HERE.parent / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import instances  # noqa: E402
import refclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from ryser import colored, delta2, generators, hypergraph, oracles, tcover  # noqa: E402


# -- seeded inputs ----------------------------------------------------------------


def _colored_text(seed: int) -> str:
    labels = instances.transitive_labels(instances.workload_rng("colored-large", seed), 40, 7, 2)
    return instances.labels_to_cgf(labels) + instances.labels_to_hgf(labels)


def _texts(pool) -> list[tuple]:
    return [(i.name, i.text, i.seed, i.merge) for i in pool]


def test_same_seed_gives_identical_instance_text():
    assert _colored_text(7) == _colored_text(7)
    assert _colored_text(7) != _colored_text(8)
    assert _texts(instances.delta2_ladder(7)) == _texts(instances.delta2_ladder(7))
    assert _texts(instances.certify_small(7)) == _texts(instances.certify_small(7))
    assert _texts(instances.certify_small(7)) != _texts(instances.certify_small(8))


def test_generated_colourings_meet_the_hypothesis():
    """Every pair shares >= t colours, and the program reads back the same
    partitions the labels describe."""
    for r in (5, 7, 9):
        t = instances.min_t(r)
        labels = instances.transitive_labels(instances.workload_rng("test", r), 60, r, t)
        for u in range(60):
            for v in range(u + 1, 60):
                assert sum(lab[u] == lab[v] for lab in labels) >= t
        text = instances.labels_to_cgf(labels)
        index = colored.monochromatic_components(colored.parse_cgf(text))
        assert [set(comps) for comps in index.components] == checks.blocks(labels)
        assert checks.blocks(instances.cgf_labels(text)) == checks.blocks(labels)
        g = colored.gyarfas_graph(hypergraph.parse_hgf(instances.labels_to_hgf(labels)))
        assert colored.to_cgf(g) == instances.labels_to_cgf(labels)


def test_blowup_labels_match_the_program():
    from ryser.planes import affine_plane, blowup_graph

    for q, b in ((2, 2), (3, 1), (5, 1)):
        assert colored.to_cgf(blowup_graph(affine_plane(q), b)) == instances.labels_to_cgf(instances.blowup_labels(q, b))


# -- checkers ----------------------------------------------------------------------

# colour 1: {0,1,2} {3,4,5}; colour 2: {0,3} {1,4} {2,5}; colour 3: all of V
LABELS = [[0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2], [0] * 6]
F = frozenset


def test_cover_checker_accepts_a_true_cover():
    assert checks.check_cover_t(LABELS, 1, [(1, F({0, 1, 2})), (1, F({3, 4, 5}))]) == 2


def test_cover_checker_rejects_a_missing_vertex():
    with pytest.raises(CheckFailed, match="misses vertex 5"):
        checks.check_cover_t(LABELS, 1, [(1, F({0, 1, 2})), (2, F({0, 3})), (2, F({1, 4}))])


def test_cover_checker_rejects_a_part_that_is_not_a_whole_block():
    with pytest.raises(CheckFailed, match="not a whole colour-1 block"):
        checks.check_cover_t(LABELS, 1, [(1, F({0, 1, 2})), (1, F({3, 4}))])
    with pytest.raises(CheckFailed, match="not a whole colour-2 block"):
        checks.check_cover_t(LABELS, 1, [(2, F({0, 1, 2, 3, 4, 5}))])


def test_cover_checker_rejects_an_over_budget_cover():
    with pytest.raises(CheckFailed, match="exceed the budget"):
        checks.check_cover_t(LABELS, 2, [(1, F({0, 1, 2})), (1, F({3, 4, 5}))])


def test_partial_checker():
    assert checks.check_partial(LABELS, [(3, F(range(6))), (1, F({0, 1, 2}))], 0) == 6
    with pytest.raises(CheckFailed, match="distinct"):
        checks.check_partial(LABELS, [(1, F({0, 1, 2})), (1, F({3, 4, 5}))], 0)
    with pytest.raises(CheckFailed, match="not common"):
        checks.check_partial(LABELS, [(1, F({0, 1, 2})), (2, F({1, 4}))], 0)
    with pytest.raises(CheckFailed, match="< ceil bound"):
        checks.check_partial(LABELS, [(1, F({0, 1, 2})), (2, F({0, 3}))], 0)
    assert checks.coverage_need(6, 3) == 5  # (1 - 1/4) * 6 = 4.5


def test_checkers_accept_the_program_on_a_seeded_instance():
    labels = instances.transitive_labels(instances.workload_rng("test", 0), 50, 7, 2)
    g = colored.parse_cgf(instances.labels_to_cgf(labels))
    cover = tcover.cover_t(g, 2)
    assert checks.check_cover_t(labels, 2, checks.parts_of(cover)) == cover.size


def test_delta2_checker_rejects_a_set_missing_one_edge():
    text = hypergraph.to_hgf(generators.gen_delta2(3, 8, 5, mode="disjoint"))
    edges = instances.hgf_edges(text)
    cover = delta2.ryser_delta2(hypergraph.parse_hgf(text), verify=False)
    assert checks.check_hitting(edges, cover) == len(cover) == 8
    with pytest.raises(CheckFailed, match="is not hit"):
        checks.check_hitting(edges, cover[1:])


def test_ryser_window_and_blowup_checkers():
    checks.check_ryser_window(2, 3, 2, 3)
    with pytest.raises(CheckFailed):
        checks.check_ryser_window(2, 5, 2, 3)
    with pytest.raises(CheckFailed):
        checks.check_ryser_window(3, 2, 2, 3)
    with pytest.raises(CheckFailed, match="not recognized"):
        checks.check_blowup(None, 5, 6)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert checks.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert checks.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    assert checks.tail([float(i) for i in range(1, 16)]) == (50.0, 8.0)
    assert checks.median([3.0, 1.0, 2.0, 10.0]) == 2.5


# -- timed loop and tracing -----------------------------------------------------------


def _spin(seconds: float) -> None:
    """Busy for `seconds` of CPU time: the time limits count CPU time."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def _hang(seed: int, limit_s: float = 0.05) -> instances.Instance:
    hang = [i for i in instances.delta2_ladder(seed) if i.rung == "hang" and i.m == 60][0]
    hang.limit_s = limit_s
    return hang


def _small(seed: int) -> list[instances.Instance]:
    return [i for i in instances.delta2_ladder(seed) if i.rung == "small"]


def test_clock_reads_work_by_the_samples_taken_during_it(monkeypatch):
    took = iter([1.0, 3.0, 3.0, 1.0])
    monkeypatch.setattr(refclock, "calibration", lambda: next(took) * refclock.REF_SECONDS)
    monkeypatch.setattr(refclock, "NEAREST", 2)
    clock = refclock.RefClock()
    a = clock.cpu()
    _spin(0.01)
    clock._sample()
    clock._sample()
    b = clock.cpu()
    _spin(0.01)
    clock._sample()
    assert clock.samples == 4
    # the samples' own time is not work, and work reads by the samples in it
    assert clock.cpu() - a == pytest.approx(0.02, abs=0.005)
    assert clock.to_ref(a, b) == pytest.approx((b - a) / 3)
    assert clock.to_ref(b, b + 1) == pytest.approx(1 / 2)  # the two nearest
    assert clock.cpu_budget(1.0) == pytest.approx(2.0)


def test_sampling_runs_while_the_loop_runs_and_timeouts_cost_their_limit():
    clock = refclock.RefClock()
    res = workloads.run_loop([_hang(1, 0.2)] + _small(1)[:5], 0, clock=clock)
    assert clock.samples > 1 and res.timeouts == 1
    assert res.samples[0] == 0.2 and all(0 < t < 0.2 for t in res.samples[1:])


def test_wrong_answers_and_timeouts_are_counted_once_per_instance():
    hang = _hang(1)
    small = _small(1)[0]
    broken = instances.Instance("delta2", "planted", small.text, "hgf", r=small.r, edges=[F({"nowhere"})])
    res = workloads.run_loop([hang, broken, hang, small], 0)
    assert (res.attempted, res.timeouts, res.wrong, res.failed) == (4, 2, 1, 3)
    assert res.instances == 3 and res.ok_ratio == pytest.approx(1 / 3)
    assert "is not hit" in res.errors[0]


def test_a_certification_timeout_is_not_a_program_failure(monkeypatch):
    def stuck(*args, **kwargs):
        _spin(1)

    small = _small(1)[:2]
    small[0].limit_s = 0.05
    monkeypatch.setattr(oracles, "tau_exact", stuck)
    res = workloads.run_loop(small[:1], 0)
    assert (res.uncertified, res.failed, res.ok_ratio) == (1, 0, 1.0)
    assert res.samples[0] < 0.05 and res.quality.t_budget == 0
    monkeypatch.setattr(oracles, "tau_exact", lambda *args, **kwargs: 10**6)
    res = workloads.run_loop(small[1:], 0)
    assert (res.uncertified, res.wrong) == (0, 1) and "tau=1000000" in res.errors[0]


def test_repeated_attempts_give_one_time_and_one_quality_term():
    small = _small(2)[:3]
    once = workloads.run_loop(small, 0)
    twice = workloads.run_loop(small + small[:1], 0)
    assert twice.attempted == 4 and len(twice.median_times(small + small[:1])) == 3
    res = workloads.LoopResult(samples=[5.0, 1.0, 9.0, 2.0, 7.0, 3.0])
    assert sorted(res.median_times(small[:2])) == [2.0, 7.0]
    assert twice.quality.delta2_size == once.quality.delta2_size > 0
    assert twice.quality.t_budget == once.quality.t_budget > 0


def _traced(pool):
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = workloads.run_loop(pool, 0, tracer)
    finally:
        tracer.uninstall()
    return tracer, res


def test_wrapped_layers_account_for_the_traced_wall_time():
    # The hang gives the run a wall time of a real run's order, against
    # which the allowance for the loop's bookkeeping is set.
    pool = instances.certify_small(3)[::12] + _small(3)[:5] + [_hang(3, 0.5)]
    original, contract, hit = colored.parse_cgf, colored.contract_full_color_classes, checks.check_hitting
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert colored.parse_cgf is not original and checks.check_hitting is not hit
        assert tcover.contract_full_color_classes is colored.contract_full_color_classes is not contract
        res = workloads.run_loop(pool, 0, tracer)
    finally:
        tracer.uninstall()
    assert colored.parse_cgf is original and checks.check_hitting is hit
    assert res.timeouts == 1 and res.wrong == 0
    loose, allowed = tracer.attribution(res.wall_s, spans.span_cost())
    assert loose <= allowed
    own = tracer.self_times()
    assert own["generators.gen_transitive_colored"] > 0 and own["graphs.max_independent_set"] > 0
    assert own[spans.CHECK_SPAN] > 0
    assert tracer.calls["bench.instance"] == len(pool)
    for sid, parent, inst, name, start, end in tracer.spans:
        assert end >= start
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[4] <= start and end <= p[5]
            assert name == "bench.instance" or inst == p[2]


def test_time_outside_the_wrapped_layers_fails_the_attribution_check(monkeypatch):
    def unwrapped(inst):
        _spin(0.05)
        return workloads.Quality(), None

    monkeypatch.setitem(workloads.ROUTINES, "unwrapped", unwrapped)
    tracer, res = _traced(_small(4)[:5] + [instances.Instance("unwrapped", "planted")])
    loose, allowed = tracer.attribution(res.wall_s, spans.span_cost())
    assert loose > 0.04 > allowed  # CPU time spun, read on the wall clock
