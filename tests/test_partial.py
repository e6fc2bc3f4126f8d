"""Partial covers by r-1 distinct-color components, the coverage bound, the
counting identities, and blowup recognition."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ryser import (
    ColoredCompleteGraph,
    affine_plane,
    blowup_graph,
    check_sharpness,
    color_stats,
    components_of,
    coverage_bound,
    gen_transitive_colored,
    is_affine_blowup,
    merge_color_components,
    partial_cover_distinct,
    verify_counting_identities,
)
from ryser.errors import PreconditionError, RyserError
from ryser.partial import _candidate_min_degree


def _mask_graph(n, r, pairs):
    masks = [[0] * n for _ in range(n)]
    for (u, v), cols in pairs.items():
        m = 0
        for c in cols:
            m |= 1 << (c - 1)
        masks[u][v] = masks[v][u] = m
    return ColoredCompleteGraph(n, r, masks)


def test_coverage_bound_values():
    assert coverage_bound(4, 3) == 3  # (1 - 1/4) * 4
    assert coverage_bound(9, 4) == Fraction(63, 9)  # (1 - 2/9) * 9 = 7
    assert coverage_bound(10, 3) == Fraction(30, 4)  # not integral


def test_blowup_q2_cover_is_three_of_four():
    g = blowup_graph(affine_plane(2), 1)
    cov = partial_cover_distinct(g)
    assert cov.size == 2  # r - 1 = 2 parts
    assert cov.covered_count == 3
    assert cov.common_vertex is not None


def test_non_spanning_color_covers_everything():
    # vertex 2 sees color 2 nowhere: components of the OTHER colors at 2 span
    g = _mask_graph(3, 3, {(0, 1): [1, 2], (0, 2): [1], (1, 2): [1, 3]})
    cov = partial_cover_distinct(g)
    assert cov.covered_count == 3
    assert len(cov.parts) == 2


def test_two_colors_single_spanning_part():
    g = gen_transitive_colored(12, 2, 1, seed=8)
    cov = partial_cover_distinct(g)
    assert cov.size == 1
    assert cov.covered_count >= -(-coverage_bound(12, 2).numerator // coverage_bound(12, 2).denominator)


@given(st.integers(3, 30), st.integers(2, 5), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_partial_cover_meets_bound(n, r, seed):
    g = gen_transitive_colored(n, r, 1, seed)
    cov = partial_cover_distinct(g)
    colors = [c for c, _ in cov.parts]
    assert len(colors) == len(set(colors)) == r - 1
    bound = coverage_bound(n, r)
    assert Fraction(cov.covered_count) >= bound
    assert all(cov.common_vertex in part for _, part in cov.parts)


@given(st.integers(3, 24), st.integers(2, 5), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_counting_identities_random(n, r, seed):
    g = gen_transitive_colored(n, r, 1, seed)
    stats = verify_counting_identities(g)
    assert stats.n == n
    # row sums: every color's components partition V
    for c in range(1, r + 1):
        assert sum(stats.gammas[c - 1]) == n


@st.composite
def _cloned_colorings(draw):
    """A label-built coloring with planted clone classes: r - 1 random
    partitions of up to 20 base vertices, a last color whose blocks join
    every pair sharing none of them, and each base vertex copied 1-3 times,
    in shuffled order (n <= 40)."""
    rng = draw(st.randoms(use_true_random=False))
    r = draw(st.integers(2, 8))
    base = draw(st.integers(2, 20))
    labels = [[rng.randrange(rng.randint(1, base)) for _ in range(base)] for _ in range(r - 1)]
    parent = list(range(base))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u in range(base):
        for v in range(u + 1, base):
            if all(row[u] != row[v] for row in labels):
                parent[find(v)] = find(u)
    labels.append([find(v) for v in range(base)])
    copies = [v for v in range(base) for _ in range(rng.randint(1, 3))]
    rng.shuffle(copies)
    return ColoredCompleteGraph.from_labels([[row[v] for v in copies[:40]] for row in labels])


@st.composite
def _shuffled_blowups(draw):
    """Affine-plane blowups, q in {2,3,4,5}, n <= 40, vertices shuffled. For
    q >= 3 two lines of one color may be merged: a pair across them gains
    that color, which leaves every d_i(v) > 0 but no longer all equal."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    g = blowup_graph(affine_plane(q), draw(st.integers(1, 40 // (q * q))))
    if q >= 3 and draw(st.booleans()):
        g = merge_color_components(g, draw(st.integers(1, q + 1)), 0, 1)
    order = draw(st.permutations(range(g.n)))
    return ColoredCompleteGraph.from_labels([[row[v] for v in order] for row in g.labels])


def _least_degree_cover(g):
    """C(v, [r] - {i}) for the least (d_i(v), i, v) over all colors and vertices."""
    d = color_stats(g).d
    _, i, v = min((d[i - 1][v], i, v) for i in range(1, g.r + 1) for v in range(g.n))
    return components_of(g, v, [c for c in range(1, g.r + 1) if c != i])


@given(_cloned_colorings())
@settings(max_examples=150, deadline=None)
def test_min_degree_candidate_is_the_least_key(g):
    assert _candidate_min_degree(g) == _least_degree_cover(g)


@given(_shuffled_blowups())
@settings(max_examples=40, deadline=None)
def test_min_degree_candidate_when_no_degree_is_zero(g):
    assert min(map(min, color_stats(g).d)) > 0  # the search runs over every class
    assert _candidate_min_degree(g) == _least_degree_cover(g)


def test_color_stats_on_blowup():
    g = blowup_graph(affine_plane(2), 2)
    stats = color_stats(g)
    assert stats.k == (2, 2, 2)
    assert stats.gammas == ((4, 4), (4, 4), (4, 4))


# -- recognition ---------------------------------------------------------------


@pytest.mark.parametrize("q,b", [(2, 1), (2, 2), (3, 1), (3, 3), (4, 2)])
def test_blowup_recognized(q, b):
    g = blowup_graph(affine_plane(q), b)
    w = is_affine_blowup(g)
    assert w is not None
    assert w.map.b == b
    assert w.plane.q == q
    # the recovered map sends clone groups onto plane points
    assert len(set(w.map.f)) == q * q


def test_random_instance_not_recognized():
    g = gen_transitive_colored(16, 3, 1, seed=21)
    assert is_affine_blowup(g) is None


def test_coarsened_blowup_not_recognized():
    g = blowup_graph(affine_plane(2), 2)
    merged = merge_color_components(g, 1, 0, 1)
    assert is_affine_blowup(merged) is None


def test_sharpness_report_on_blowup():
    g = blowup_graph(affine_plane(3), 1)
    rep = check_sharpness(g)
    assert rep.is_sharp and rep.bound_integral
    assert rep.oracle_max == 7 and rep.bound == 7
    assert rep.blowup is not None


def test_sharpness_report_on_coarsened():
    g = merge_color_components(blowup_graph(affine_plane(2), 1), 1, 0, 1)
    rep = check_sharpness(g)
    assert not rep.is_sharp
    assert rep.oracle_max == 4 > rep.bound
    assert rep.blowup is None


def test_sharpness_with_fractional_bound():
    # n = 5, r = 3: bound 15/4 is not an integer, equality is impossible
    g = gen_transitive_colored(5, 3, 1, seed=2)
    rep = check_sharpness(g)
    assert not rep.bound_integral
    assert not rep.is_sharp


def test_partial_cover_needs_at_least_two_colors():
    with pytest.raises(PreconditionError):
        partial_cover_distinct(_mask_graph(2, 1, {(0, 1): [1]}))
