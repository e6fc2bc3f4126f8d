"""The t-cover construction: plan arithmetic, the triangle split, and the
dispatcher against the exact oracle on seeded instances."""

import pytest
from hypothesis import given, settings, strategies as st

from ryser import (
    ColoredCompleteGraph,
    cover_t,
    gen_transitive_colored,
    is_valid_component_cover,
    min_component_cover,
    plan_lemma,
)
from ryser.errors import PreconditionError
from ryser.tcover import max_common_triangle, triangle_partition


def _mask_graph(n, r, pairs):
    masks = [[0] * n for _ in range(n)]
    for (u, v), cols in pairs.items():
        m = 0
        for c in cols:
            m |= 1 << (c - 1)
        masks[u][v] = masks[v][u] = m
    return ColoredCompleteGraph(n, r, masks)


# -- plan arithmetic -----------------------------------------------------------


def test_plan_within_interval_when_r_small():
    # r <= 2t: the first r - t colors of the shared interval suffice
    plan = plan_lemma(5, 3, (1, 2, 4))
    assert plan.branch == "within-I"
    assert plan.J == (1, 2)
    assert plan.part_budget == 2 == 5 - 3


def test_plan_balanced_extension():
    # r = 6, t = 2, shared pair has exactly t colors: j = floor(r/2) - t = 1
    plan = plan_lemma(6, 2, (3, 5))
    assert plan.branch == "I-plus-balanced-J"
    assert plan.j == 1
    assert plan.J == (1,)  # smallest colors outside I
    assert plan.part_budget == 2 + 2 * 1 <= 4


def test_plan_refuses_triangle_regime():
    # r = 4t - 1 with an exactly-t pair belongs to the triangle split instead
    with pytest.raises(PreconditionError):
        plan_lemma(7, 2, (3, 5))


def test_plan_mixed_pair_wide():
    # ell = 4 > t = 2, r = 7 > t + ell = 6: j = floor((7-2-4)/2) = 0
    plan = plan_lemma(7, 2, (1, 2, 3, 4))
    assert plan.branch == "I-plus-balanced-J"
    assert plan.j == 0
    assert plan.part_budget == 4 <= 5


def test_plan_mixed_pair_within():
    # ell = 3 > t = 2, r = 5 <= t + ell: within the interval, r - t = 3 parts
    plan = plan_lemma(5, 2, (2, 3, 5))
    assert plan.branch == "within-I"
    assert plan.J == (2, 3, 5)
    assert plan.part_budget == 3


# -- triangle machinery ---------------------------------------------------------


def test_max_common_triangle_planted():
    g = _mask_graph(4, 3, {
        (0, 1): [1, 2], (0, 2): [1, 2], (1, 2): [1, 2],
        (0, 3): [3], (1, 3): [3], (2, 3): [3],
    })
    k, tri = max_common_triangle(g)
    assert k == 2 and tri == (0, 1, 2)


def test_triangle_partition_shapes():
    # triangle 0,1,2 with one common color and pairwise extras, t = 2
    g = _mask_graph(3, 7, {(0, 1): [1, 2], (0, 2): [1, 3], (1, 2): [1, 4]})
    part = triangle_partition(g, 2, (0, 1, 2))
    assert part.k == 1
    assert part.K == (1,)
    assert part.X == (4,) and part.Y == (3,) and part.Z == (2,)
    assert part.S == (5, 6, 7)


def test_triangle_partition_needs_exactly_t():
    g = _mask_graph(3, 7, {(0, 1): [1, 2, 3], (0, 2): [1], (1, 2): [1]})
    with pytest.raises(PreconditionError):
        triangle_partition(g, 2, (0, 1, 2))


# -- dispatcher ----------------------------------------------------------------


def test_cover_t_rejects_small_t():
    g = gen_transitive_colored(6, 5, 1, seed=0)
    with pytest.raises(PreconditionError):
        cover_t(g, 1)  # needs 4t > r


def test_cover_t_rejects_deficient_pair():
    g = _mask_graph(3, 3, {(0, 1): [1], (0, 2): [1], (1, 2): [1]})
    with pytest.raises(PreconditionError):
        cover_t(g, 2)


def test_cover_t_two_vertices():
    g = _mask_graph(2, 3, {(0, 1): [2]})
    cov = cover_t(g, 1)
    assert cov.covered_count == 2 and cov.size <= 2


def test_cover_t_spanning_color_contracts():
    # every pair shares color 1: contraction collapses to a point
    g = _mask_graph(5, 3, {(u, v): [1] for u in range(5) for v in range(u + 1, 5)})
    cov = cover_t(g, 1)
    assert cov.size == 1 and cov.covered_count == 5


@pytest.mark.parametrize("r,t", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3),
                                 (5, 2), (5, 3), (5, 4), (6, 2), (6, 5),
                                 (7, 2), (7, 4), (7, 6)])
def test_cover_t_seeded_instances(r, t):
    for i in range(25):
        n = 3 + (i % 22)
        g = gen_transitive_colored(n, r, t, seed=10_000 * r + 100 * t + i)
        cov = cover_t(g, t)
        assert is_valid_component_cover(g, cov)
        assert cov.size <= r - t


@given(st.integers(3, 14), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_cover_t_never_beats_oracle(n, seed):
    g = gen_transitive_colored(n, 3, 1, seed)
    cov = cover_t(g, 1)
    assert min_component_cover(g, max_total_components=128).size <= cov.size <= 2


@given(st.integers(3, 12), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_cover_shrinks_when_colors_exceed_t(n, seed):
    """Pairs sharing >= t+1 of r colors keep a valid t-level cover after one
    color is dropped, and the budget tightens to (r-1) - t."""
    r, t = 5, 2
    g = gen_transitive_colored(n, r, t + 1, seed)
    smaller = ColoredCompleteGraph.from_labels(g.labels[:-1])  # drop color r's partition
    cov = cover_t(smaller, t)
    assert is_valid_component_cover(smaller, cov)
    assert cov.size <= (r - 1) - t


def test_trace_names_the_route():
    g = gen_transitive_colored(12, 7, 2, seed=5)
    trace: list[str] = []
    cover_t(g, 2, trace=trace)
    assert trace  # at least one dispatch step recorded
    assert all(isinstance(s, str) for s in trace)
    # vertex 12 clones vertex 0: one full-color pair, contracted once
    cloned = ColoredCompleteGraph.from_labels([row + (row[0],) for row in g.labels])
    trace = []
    cover = cover_t(cloned, 2, trace=trace)
    assert [s for s in trace if s.startswith("contracted")] == ["contracted 13 -> 12 vertices"]
    assert is_valid_component_cover(cloned, cover) and cover.size <= 5


# colors of the base pairs: (0,1) {1,2}, (0,2) {1}, (1,2) {1,3}
_SHORT_BASE = ([0, 0, 0], [0, 0, 2], [0, 1, 1])


def _first_short_pair(g, t):
    return next((u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.masks[u][v].bit_count() < t)


def test_short_pair_is_named_by_its_vertices_in_g():
    """Clone classes {0,1}, {2,4}, {3,5}: the quotient's short pair (1,2) is
    g's pair (2,3). A pair through a clone has the same colors as the pair
    through its class's smallest member, so the first short pair always
    joins two smallest members; it must be named in g's vertices."""
    g = ColoredCompleteGraph.from_labels([[row[v] for v in (1, 1, 0, 2, 0, 2)] for row in _SHORT_BASE])
    assert _first_short_pair(g, 2) == (2, 3)
    with pytest.raises(PreconditionError, match=r"^pair \(2,3\) carries fewer than t=2 colors$"):
        cover_t(g, 2)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_short_pair_matches_a_scan_of_g(rng):
    copies = [v for v in range(3) for _ in range(rng.randint(1, 4))]
    rng.shuffle(copies)
    g = ColoredCompleteGraph.from_labels([[row[v] for v in copies] for row in _SHORT_BASE])
    u, v = _first_short_pair(g, 2)
    with pytest.raises(PreconditionError, match=rf"^pair \({u},{v}\) carries fewer than t=2 colors$"):
        cover_t(g, 2)
