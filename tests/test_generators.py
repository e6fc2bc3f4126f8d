"""Determinism and validity of the seeded generators."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from ryser import (
    ColoredCompleteGraph,
    GenConfig,
    Hypergraph,
    SplitMix64,
    dual,
    gen_delta2,
    gen_t_intersecting_hypergraph,
    gen_transitive_colored,
    generate,
    gyarfas_graph,
    parse_cgf,
    to_cgf,
    to_hgf,
    validate,
)
from ryser import generators
from ryser.delta2 import reduce_dual
from ryser.errors import PreconditionError, RyserError
from ryser.hypergraph import intersection_level


def test_splitmix64_reference_stream():
    # first outputs for seed 0 from the reference implementation
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_randrange_bounds_and_determinism():
    rng = SplitMix64(99)
    vals = [rng.randrange(7) for _ in range(1000)]
    assert set(vals) <= set(range(7))
    rng2 = SplitMix64(99)
    assert vals == [rng2.randrange(7) for _ in range(1000)]
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_shuffle_is_a_permutation():
    rng = SplitMix64(5)
    items = list(range(20))
    rng.shuffle(items)
    assert sorted(items) == list(range(20))
    assert items != list(range(20))  # seed 5 does move something


# frozen artifacts: changing the generators is a breaking change


def test_transitive_colored_frozen_digest():
    g = gen_transitive_colored(10, 5, 2, seed=42)
    digest = hashlib.sha256(to_cgf(g).encode()).hexdigest()
    assert digest == "fc9ec22031a4bedff729084985a262ef22686076139a3432dbd71103d195baa5"


def test_t_intersecting_frozen_digest():
    h, reached = gen_t_intersecting_hypergraph(4, 2, 6, 3, seed=7)
    assert reached
    digest = hashlib.sha256(to_hgf(h).encode()).hexdigest()
    assert digest == "e179a21eb8086ea21b49f5bf6083001bc95d9e4d04c295e8cb269564a6a74e03"


def test_delta2_frozen_digest():
    h = gen_delta2(4, 7, seed=11, mode="mixed")
    digest = hashlib.sha256(to_hgf(h).encode()).hexdigest()
    assert digest == "cf37f480c6ac8b64ebb9cfac9d06b89021175841df6278ff2ee2dd05da01a10f"


# validity properties


@given(st.integers(2, 20), st.integers(2, 7), st.integers(0, 2**48))
@settings(max_examples=80, deadline=None)
def test_transitive_colored_is_valid(n, r, seed):
    min_colors = 1 + seed % r
    if min_colors >= r:
        min_colors = r - 1
    g = gen_transitive_colored(n, r, min_colors, seed)
    assert g.transitive
    for u in range(n):
        for v in range(u + 1, n):
            assert len(g.col(u, v)) >= min_colors


@given(st.integers(2, 5), st.integers(1, 8), st.integers(2, 4), st.integers(0, 2**48))
@settings(max_examples=60, deadline=None)
def test_t_intersecting_is_valid(r, m, class_size, seed):
    t = 1 + seed % (r - 1)
    h, reached = gen_t_intersecting_hypergraph(r, t, m, class_size, seed)
    assert validate(h) == []
    assert h.m <= m
    if reached:
        assert h.m == m
    if h.m >= 2:
        assert intersection_level(h) >= t


@given(st.integers(2, 6), st.integers(1, 14), st.integers(0, 2**48))
@settings(max_examples=80, deadline=None)
def test_delta2_is_valid(r, m, seed):
    mode = ("mixed", "cycle", "chain", "disjoint")[seed % 4]
    if mode == "cycle" and r == 2 and m == 2:
        return  # rejected combination, covered below
    h = gen_delta2(r, m, seed, mode=mode)
    assert h.m == m
    assert all(len(e) == r for e in h.edges)
    assert h.max_degree() <= 2


def test_delta2_cycle_mode_dual_is_cyclic():
    h = gen_delta2(3, 5, seed=1, mode="cycle")
    # each consecutive pair of edges shares exactly one vertex
    for i in range(5):
        assert len(h.edges[i] & h.edges[(i + 1) % 5]) == 1
        assert len(h.edges[i] & h.edges[(i + 2) % 5]) == 0


def test_generator_preconditions():
    with pytest.raises(PreconditionError):
        gen_transitive_colored(1, 3, 1, 0)
    with pytest.raises(PreconditionError):
        gen_transitive_colored(5, 3, 3, 0)
    with pytest.raises(PreconditionError):
        gen_t_intersecting_hypergraph(3, 3, 4, 2, 0)
    with pytest.raises(PreconditionError):
        gen_delta2(3, 4, 0, mode="spiral")
    with pytest.raises(PreconditionError):
        gen_delta2(2, 2, 0, mode="cycle")


def test_generated_instance_meets_in_t_colors():
    # shared positions become shared colors of the edge-intersection graph
    h, reached = gen_t_intersecting_hypergraph(4, 2, 6, 3, seed=7)
    assert reached
    g = gyarfas_graph(h)
    assert isinstance(g, ColoredCompleteGraph)
    assert min(g.mask(i, j).bit_count() for i in range(g.n) for j in range(i + 1, g.n)) >= 2


def test_cycle_mode_reduces_to_one_cycle_component():
    h = gen_delta2(3, 4, seed=2, mode="cycle")
    red = reduce_dual(dual(h))
    assert [k for k, _ in red.component_kinds] == ["cycle"]
    assert len(red.component_kinds[0][1]) == 4


def test_genconfig_round_trips_each_generator():
    cfg = GenConfig("random-colored", 3, n=9, r=4, min_colors=2)
    assert to_cgf(generate(cfg)) == to_cgf(generate(cfg))
    cfg = GenConfig("random-hyp", 7, r=4, t=2, m=6, class_size=3)
    (h1, ok1), (h2, ok2) = generate(cfg), generate(cfg)
    assert ok1 is ok2
    assert to_hgf(h1) == to_hgf(h2)
    cfg = GenConfig("random-delta2", 11, r=4, m=7, mode="mixed")
    assert to_hgf(generate(cfg)) == to_hgf(gen_delta2(4, 7, 11, mode="mixed"))


def test_genconfig_rejects_bad_field_sets():
    with pytest.raises(PreconditionError):
        generate(GenConfig("random-sparse", 0))
    with pytest.raises(PreconditionError):
        generate(GenConfig("random-hyp", 0, r=4, t=2, m=3))  # class_size missing
    with pytest.raises(PreconditionError):
        generate(GenConfig("random-delta2", 0, r=3, m=2, mode="chain", t=1))  # stray t


# reference repair loop: each step takes min(deficient) and, per color,
# rescans every deficient pair; gen_transitive_colored must match it exactly


def _reference_transitive_labels(n, r, min_colors, seed):
    rng = SplitMix64(seed)
    block = []
    for _ in range(r):
        nblocks = 1 + rng.randrange(n)
        block.append([rng.randrange(nblocks) for _ in range(n)])
    count = [[0] * n for _ in range(n)]
    deficient = set()
    for u in range(n):
        for v in range(u + 1, n):
            c = sum(1 for cc in range(r) if block[cc][u] == block[cc][v])
            count[u][v] = c
            if c < min_colors:
                deficient.add((u, v))
    while deficient:
        u, v = min(deficient)
        best = None
        for c in range(r):
            bu, bv = block[c][u], block[c][v]
            if bu == bv:
                continue
            gain = 0
            for a, b in deficient:
                x, y = block[c][a], block[c][b]
                if (x == bu and y == bv) or (x == bv and y == bu):
                    gain += 1
            if best is None or gain > best[0]:
                best = (gain, c)
        _, c = best
        bu, bv = block[c][u], block[c][v]
        src = [w for w in range(n) if block[c][w] == bu]
        dst = [w for w in range(n) if block[c][w] == bv]
        for w in dst:
            block[c][w] = bu
        for a in src:
            for b in dst:
                x, y = (a, b) if a < b else (b, a)
                count[x][y] += 1
                if count[x][y] == min_colors:
                    deficient.discard((x, y))
    return block


@pytest.mark.parametrize("r", range(2, 9))
def test_transitive_colored_matches_the_reference_loop(r):
    for min_colors in range(1, r):
        for i, n in enumerate((2, 3, 5, 8, 13, 21, 31, 44, 60)):
            seed = 1000 * r + 10 * min_colors + i
            got = gen_transitive_colored(n, r, min_colors, seed).labels
            want = ColoredCompleteGraph.from_labels(_reference_transitive_labels(n, r, min_colors, seed)).labels
            assert got == want, (n, r, min_colors, seed)


def test_transitive_colored_matches_the_reference_loop_at_30_colors():
    # a pair's packed count field peaks at 128 - min_colors + 30 < 256
    for n, min_colors in ((9, 1), (9, 29), (25, 15), (25, 29)):
        got = gen_transitive_colored(n, 30, min_colors, n + min_colors).labels
        want = ColoredCompleteGraph.from_labels(_reference_transitive_labels(n, 30, min_colors, n + min_colors)).labels
        assert got == want, (n, min_colors)


def test_transitive_colored_at_n300_is_transitive_with_two_colors_everywhere():
    g = parse_cgf(to_cgf(gen_transitive_colored(300, 7, 2, seed=1)))
    assert g.transitive
    assert min(m.bit_count() for u, row in enumerate(g.masks) for m in row[u + 1:]) >= 2


def test_transitive_colored_checks_r_before_drawing(monkeypatch):
    def refuse(seed):
        raise AssertionError("the generator drew randomness before checking r")

    monkeypatch.setattr(generators, "SplitMix64", refuse)
    with pytest.raises(PreconditionError, match="r must be in 1..30, got 40"):
        gen_transitive_colored(5, 40, 2, 0)


def test_delta2_invariant_failure_names_the_vertex(monkeypatch):
    degrees = Hypergraph.degrees
    monkeypatch.setattr(Hypergraph, "degrees", lambda h: {**degrees(h), "v0": 3})
    with pytest.raises(RyserError, match="vertex v0 lies in 3 edges"):
        gen_delta2(3, 4, seed=1, mode="chain")
