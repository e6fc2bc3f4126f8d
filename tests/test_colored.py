import random

import pytest
from hypothesis import given, settings, strategies as st

from ryser import (
    ColoredCompleteGraph,
    affine_plane,
    blowup_graph,
    gen_t_intersecting_hypergraph,
    FormatError,
    Hypergraph,
    PartialColoredGraph,
    components_of,
    contract_full_color_classes,
    gen_transitive_colored,
    gyarfas_graph,
    is_valid_component_cover,
    isomorphic_colored,
    merge_color_components,
    monochromatic_components,
    parse_cgf,
    to_cgf,
    transitive_closure,
)
from ryser.colored import ComponentCover, _canonical_masks, _read_lines, lift_cover
from ryser.errors import PreconditionError


def _mask_graph(n, r, pairs):
    """pairs: {(u,v): iterable of 1-based colors}; must list every pair."""
    masks = [[0] * n for _ in range(n)]
    for (u, v), cols in pairs.items():
        m = 0
        for c in cols:
            m |= 1 << (c - 1)
        masks[u][v] = masks[v][u] = m
    return ColoredCompleteGraph(n, r, masks)


def test_rejects_uncolored_pair():
    with pytest.raises(PreconditionError):
        _mask_graph(3, 2, {(0, 1): [1], (0, 2): [2], (1, 2): []})


def test_rejects_out_of_range_color():
    with pytest.raises(PreconditionError):
        _mask_graph(2, 2, {(0, 1): [3]})


def test_transitivity_flag():
    g = _mask_graph(3, 2, {(0, 1): [1], (0, 2): [1], (1, 2): [2]})
    assert not g.transitive  # 0-1 and 0-2 in color 1 but 1-2 is not
    t = transitive_closure(g)
    assert t.transitive
    assert 1 in t.col(1, 2) and 2 in t.col(1, 2)


def test_components_and_cover_validation():
    g = _mask_graph(4, 2, {
        (0, 1): [1, 2], (0, 2): [1, 2], (1, 2): [1, 2],
        (0, 3): [2], (1, 3): [2], (2, 3): [2],
    })
    idx = monochromatic_components(g)
    assert idx.k(1) == 2 and idx.k(2) == 1  # color 1: triangle plus singleton
    cov = components_of(g, 0, [1, 2])
    assert cov.covered_count == 4 and cov.common_vertex == 0
    assert is_valid_component_cover(g, cov)
    fake = ComponentCover(((1, frozenset([0, 3])),), 2)
    assert not is_valid_component_cover(g, fake)


@given(st.integers(3, 10), st.integers(2, 5), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_closure_is_idempotent(n, r, seed):
    g = gen_transitive_colored(n, r, 1, seed)
    assert transitive_closure(g) == g


def test_contract_full_color_classes():
    # vertices 0,1 carry every color; contraction glues them
    g = _mask_graph(3, 2, {(0, 1): [1, 2], (0, 2): [1], (1, 2): [1]})
    c, mapping = contract_full_color_classes(g)
    assert c.n == 2
    assert sorted(map(sorted, mapping)) == [[0, 1], [2]]
    cover = components_of(c, 0, [1])
    lifted = lift_cover(cover, mapping)
    assert lifted.covered_count == 3


def test_merge_color_components_adds_cross_pairs():
    g = _mask_graph(4, 2, {
        (0, 1): [1, 2], (2, 3): [1, 2], (0, 2): [2], (0, 3): [2], (1, 2): [2], (1, 3): [2],
    })
    assert monochromatic_components(g).k(1) == 2
    merged = merge_color_components(g, 1, 0, 1)
    assert merged.transitive
    assert 1 in merged.col(0, 2)
    assert monochromatic_components(merged).k(1) == 1
    with pytest.raises(PreconditionError):
        merge_color_components(g, 0, 0, 1)  # colors are 1-based


# -- label construction --------------------------------------------------------


def test_from_labels_relabels_blocks_by_smallest_vertex():
    g = ColoredCompleteGraph.from_labels([["x", "y", "x"], [5, 5, 5]])
    assert g.labels == ((0, 1, 0), (0, 0, 0))
    assert g.col(0, 2) == frozenset([1, 2]) and g.col(0, 1) == frozenset([2])
    assert g.transitive
    assert g.component_of(2, 1) == frozenset([0, 2])


def test_from_labels_rejects_colorless_pair():
    with pytest.raises(PreconditionError, match=r"\(0, 2\)"):
        ColoredCompleteGraph.from_labels([[0, 0, 1], [0, 1, 1]])


@given(st.integers(1, 90), st.integers(1, 30), st.integers(0, 40), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_from_labels_masks_match_the_pairwise_definition(n, r, k, seed):
    # block sizes from one vertex to n and up to 30 colors reach both the
    # packed and the pair-by-pair path of every field width
    from ryser.generators import SplitMix64

    rng = SplitMix64(seed)
    labels = [[0] * n] + [[rng.randrange(k + 1) for _ in range(n)] for _ in range(r - 1)]
    g = ColoredCompleteGraph.from_labels(labels)
    assert g.masks == [
        [sum(1 << c for c in range(r) if u != v and labels[c][u] == labels[c][v]) for v in range(n)]
        for u in range(n)
    ]


def _assert_mask_path_agrees(g):
    """Rebuilding g from its masks (the mask-input path) gives the same
    graph, transitive, with the same labels and component order."""
    rebuilt = ColoredCompleteGraph(g.n, g.r, g.masks)
    assert rebuilt == g
    assert rebuilt.transitive and g.transitive
    assert rebuilt.labels == g.labels
    assert monochromatic_components(rebuilt) == monochromatic_components(g)


@given(st.integers(2, 14), st.integers(2, 6), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_label_built_graphs_match_the_mask_path(n, r, seed):
    g = gen_transitive_colored(n, r, 1 + seed % (r - 1), seed)
    _assert_mask_path_agrees(g)
    _assert_mask_path_agrees(contract_full_color_classes(g)[0])
    _assert_mask_path_agrees(transitive_closure(g))
    for color in range(1, r + 1):
        if monochromatic_components(g).k(color) > 1:
            _assert_mask_path_agrees(merge_color_components(g, color, 0, 1))
    h, _ = gen_t_intersecting_hypergraph(r, 1 + seed % (r - 1), n, 3, seed)
    _assert_mask_path_agrees(gyarfas_graph(h))


def _reference_labels(n, r, masks):
    """Union-find per color, then the clique check on every component."""
    labels = []
    for c in range(r):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u in range(n):
            for v in range(u + 1, n):
                if masks[u][v] >> c & 1:
                    ru, rv = find(u), find(v)
                    parent[max(ru, rv)] = min(ru, rv)
        labels.append(tuple(find(v) for v in range(n)))
    transitive = all(
        masks[u][v] >> c & 1
        for c, row in enumerate(labels)
        for u in range(n)
        for v in range(u + 1, n)
        if row[u] == row[v]
    )
    return tuple(labels), transitive


@st.composite
def _mask_matrices(draw):
    """Symmetric nonzero masks: all colors everywhere, or the masks of
    random partitions (full where no block is shared), then up to four
    pairs overwritten with arbitrary masks; both kinds of input arise."""
    n = draw(st.integers(1, 8))
    r = draw(st.integers(1, 4))
    full = (1 << r) - 1
    if draw(st.booleans()):
        labels = [draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)) for _ in range(r)]
        masks = [[sum(1 << c for c in range(r) if labels[c][u] == labels[c][v]) or full for v in range(n)] for u in range(n)]
    else:
        masks = [[full] * n for _ in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), max_size=4)):
            masks[u][v] = masks[v][u] = draw(st.integers(1, full))
    for u in range(n):
        masks[u][u] = 0
    return n, r, masks


@given(_mask_matrices())
@settings(max_examples=300, deadline=None)
def test_transitivity_and_labels_match_union_find(case):
    n, r, masks = case
    g = ColoredCompleteGraph(n, r, masks)
    labels, transitive = _reference_labels(n, r, masks)
    assert g.labels == labels
    assert g.transitive is transitive
    assert parse_cgf(to_cgf(g)).labels == labels


def test_equal_pair_counts_do_not_make_a_coloring_transitive():
    # color 1 on 0-2, 0-3, 1-4, 2-4: four pairs, as many as blocks {0,2,3}
    # and {1,4} would have, but color 1 is one path-connected component
    one = {(0, 2), (0, 3), (1, 4), (2, 4)}
    g = _mask_graph(5, 2, {(u, v): [1] if (u, v) in one else [2] for u in range(5) for v in range(u + 1, 5)})
    assert g.transitive is False
    assert g.labels[0] == (0, 0, 0, 0, 0)
    assert g.labels == _reference_labels(5, 2, g.masks)[0]


@pytest.mark.parametrize("q,b", [(2, 1), (2, 3), (3, 2), (4, 1), (5, 1)])
def test_blowups_match_the_mask_path(q, b):
    g = blowup_graph(affine_plane(q), b)
    _assert_mask_path_agrees(g)
    _assert_mask_path_agrees(contract_full_color_classes(g)[0])


# -- gyarfas graph -------------------------------------------------------------


def test_gyarfas_intersecting_triangle():
    h = Hypergraph(
        3,
        [["a1", "b1", "c1"], ["a1", "b2", "c2"], ["a2", "b1", "c2"]],
        classes=[["a1", "a2"], ["b1", "b2"], ["c1", "c2"]],
    )
    g = gyarfas_graph(h)
    assert isinstance(g, ColoredCompleteGraph)
    assert g.col(0, 1) == frozenset([1])  # share the class-1 vertex a1
    assert g.col(0, 2) == frozenset([2])
    assert g.col(1, 2) == frozenset([3])
    assert g.transitive


def test_gyarfas_disjoint_pair_reported():
    h = Hypergraph(
        2,
        [["a1", "b1"], ["a2", "b2"]],
        classes=[["a1", "a2"], ["b1", "b2"]],
    )
    g = gyarfas_graph(h)
    assert isinstance(g, PartialColoredGraph)
    assert g.disjoint_witness == (0, 1)


def test_gyarfas_requires_classes():
    with pytest.raises(PreconditionError):
        gyarfas_graph(Hypergraph(2, [["a", "b"]]))


# -- CGF -----------------------------------------------------------------------


def test_parse_cgf_example():
    texts = [
        "colored n 3 r 2\ne 0 1 1\ne 0 2 1,2\ne 1 2 2\n",
        # trailing comment on an e line, comment-only and whitespace-only lines
        "# a colouring\ncolored n 3 r 2  # header\n\n   \t\ne 0 1 1 # one\n  # only a comment\ne 0 2 1,2\ne 1 2 2#two\n",
        # vertex ids that int() accepts but that are not spelled plainly
        "colored n 3 r 2\ne 0 1 1\ne 00 2 1,2\ne +1 2 2\n",
    ]
    for text in texts:
        g = parse_cgf(text)
        assert g.n == 3 and g.r == 2
        assert g.col(0, 1) == frozenset([1])
        assert g.col(0, 2) == frozenset([1, 2])
        assert g.col(1, 2) == frozenset([2])


@pytest.mark.parametrize(
    "text",
    [
        "colored n 3 r 2\ne 0 1 1\n",  # missing pairs
        "colored n 2 r 2\ne 1 0 1\n",  # u >= v
        "colored n 2 r 2\ne 0 1 3\n",  # color out of range
        "colored n 2 r 2\ne 0 1 1\ne 0 1 2\n",  # duplicate pair
        "e 0 1 1\n",  # missing header
        "colored n 2 r 2\ne 0 1 0\n",  # colors are 1-based
        "colored n 2 r 2\ne 0 1 1 2\n",  # too many tokens
        "colored n 2 r 2\ne 0 1 # 1\n",  # the comment swallows the colors
        "colored n 2 r 2\ne 0 x 1\n",  # bad vertex id
        "colored n 3 r 2\ne 0 1 1\ne 0 2 1\ne 1 3 1\n",  # vertex id n
        "colored n 2 r 2\ne 0 1 1,,2\n",  # empty color in the list
    ],
)
def test_parse_cgf_rejects(text):
    with pytest.raises(FormatError):
        parse_cgf(text)


def test_parse_cgf_rejects_a_repeated_bad_color_at_its_first_line():
    text = "colored n 3 r 2\n# bad token below\ne 0 1 1,x\ne 0 2 1,x\ne 1 2 1,x\n"
    with pytest.raises(FormatError, match=r"^line 3: bad color 'x'$"):
        parse_cgf(text)
    with pytest.raises(FormatError, match=r"^line 4: color 3 out of range 1\.\.2$"):
        parse_cgf("colored n 3 r 2\ne 0 1 1\n\ne 0 2 3\ne 1 2 3\n")


def test_parse_cgf_rejects_a_header_larger_than_the_input():
    # checked before the n x n matrix is allocated
    with pytest.raises(FormatError, match="pair lines"):
        parse_cgf("colored n 1000000000 r 3\ne 0 1 1\n")


@given(st.integers(2, 9), st.integers(2, 5), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_cgf_round_trip(n, r, seed):
    g = gen_transitive_colored(n, r, 1, seed)
    assert parse_cgf(to_cgf(g)) == g


def _random_coloring(seed):
    """Seeded coloring with n in 1..40 and r in 1..30; every other one is
    transitive, the rest carry independent random masks."""
    rng = random.Random(seed)
    n, r = rng.randint(1, 40), rng.randint(1, 30)
    if seed % 2 == 0 and n >= 2 and r >= 2:
        return gen_transitive_colored(n, r, rng.randint(1, r - 1), rng.getrandbits(32))
    masks = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            masks[u][v] = masks[v][u] = rng.randrange(1, 1 << r)
    return ColoredCompleteGraph(n, r, masks)


def _mutants(text, r, rng):
    """(kind, text) for each kind of damage or respelling: whole-text edits,
    in-line edits on a line near the top (comments, header) and on any line,
    and pair-line edits on two random pair lines."""
    lines = text.split("\n")[:-1]
    pairs = [i for i, line in enumerate(lines) if line.startswith("e ")]

    def with_line(i, new):  # the text with line i replaced by the lines `new`
        return "\n".join(lines[:i] + new + lines[i + 1 :]) + "\n"

    yield "crlf", text.replace("\n", "\r\n")
    yield "no final newline", text[:-1]
    yield "text after the final newline", text + "e 0 1 1"
    i = rng.randrange(len(lines))
    yield "blank line", with_line(i, ["", lines[i]])
    for i in (rng.randrange(min(3, len(lines))), rng.randrange(len(lines))):
        line = lines[i]
        k = rng.randrange(1, len(line))
        yield "lone cr", with_line(i, [line[:k] + "\r" + line[k:]])
        yield "vertical tab", with_line(i, [line[:k] + "\v" + line[k:]])
        yield "tab", with_line(i, [line.replace(" ", "\t", 1)])
        yield "double space", with_line(i, [line.replace(" ", "  ", 1)])
        yield "trailing space", with_line(i, [line + " "])
        yield "leading space", with_line(i, [" " + line])
        yield "inline comment", with_line(i, [line + " # x"])
    if len(pairs) >= 2:
        i, j = rng.sample(pairs, 2)
        swapped = list(lines)
        swapped[i], swapped[j] = lines[j], lines[i]
        yield "swapped pair lines", "\n".join(swapped) + "\n"
    for i in rng.sample(pairs, min(2, len(pairs))):
        _, u, v, colors = lines[i].split(" ")
        yield "dropped e", with_line(i, [f"{u} {v} {colors}"])
        yield "duplicate line", with_line(i, [lines[i]] * 2)
        yield "missing line", with_line(i, [])
        yield "+k id", with_line(i, [f"e +{u} {v} {colors}"])
        yield "0k id", with_line(i, [f"e {u} 0{v} {colors}"])
        yield "colors reversed", with_line(i, [f"e {u} {v} {','.join(reversed(colors.split(',')))}"])
        yield "color 0", with_line(i, [f"e {u} {v} 0"])
        yield "color r+1", with_line(i, [f"e {u} {v} {colors},{r + 1}"])


def _line_loop(text):
    """What the line loop alone reads: (r, masks), or its FormatError message."""
    try:
        return _read_lines(text)
    except FormatError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(24))
def test_canonical_reader_agrees_with_the_line_loop(seed):
    g = _random_coloring(seed)
    rng = random.Random(seed)
    for comment in ("", "x\ny"):
        text = to_cgf(g, comment=comment)
        assert _canonical_masks(text) == _line_loop(text) == (g.r, g.masks)
        for kind, mutant in _mutants(text, g.r, rng):
            want = _line_loop(mutant)
            fast = _canonical_masks(mutant)
            assert fast is None or fast == want, kind
            if isinstance(want, str):
                with pytest.raises(FormatError) as exc:
                    parse_cgf(mutant)
                assert str(exc.value) == want, kind
            else:
                assert parse_cgf(mutant).masks == want[1], kind


# -- isomorphism ---------------------------------------------------------------


def test_isomorphic_colored_color_swap():
    g1 = _mask_graph(3, 2, {(0, 1): [1], (0, 2): [1], (1, 2): [1]})
    g2 = _mask_graph(3, 2, {(0, 1): [2], (0, 2): [2], (1, 2): [2]})
    assert isomorphic_colored(g1, g2)


def test_isomorphic_colored_distinguishes():
    g1 = _mask_graph(3, 2, {(0, 1): [1], (0, 2): [1], (1, 2): [1]})
    g2 = _mask_graph(3, 2, {(0, 1): [1], (0, 2): [1], (1, 2): [2]})
    assert not isomorphic_colored(g1, g2)


@given(st.integers(3, 8), st.integers(2, 4), st.integers(0, 2**31), st.integers(0, 2**31), st.randoms())
@settings(max_examples=30, deadline=None)
def test_isomorphic_colored_invariant_under_relabeling(n, r, seed, permseed, color_rng):
    from ryser.generators import SplitMix64

    g = gen_transitive_colored(n, r, 1, seed)
    rng = SplitMix64(permseed)
    perm = list(range(n))
    rng.shuffle(perm)
    rho = list(range(r))  # color bit c goes to bit rho[c]
    color_rng.shuffle(rho)
    masks = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u != v:
                masks[perm[u]][perm[v]] = sum(1 << rho[c] for c in range(r) if g.masks[u][v] >> c & 1)
    assert isomorphic_colored(g, ColoredCompleteGraph(n, r, masks))
