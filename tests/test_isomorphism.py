"""The witness-checked isomorphism search behind isomorphic_colored and
isomorphic: non-isomorphic graphs that colour refinement cannot separate,
the finite-plane round trips, and the node budget."""

import pytest

from ryser import (
    ColoredCompleteGraph,
    Hypergraph,
    affine_plane,
    blowup_graph,
    dual,
    gyarfas_graph,
    isomorphic,
    isomorphic_colored,
    transitive_closure,
    truncated_projective_plane,
)
from ryser import colored, graphs, hypergraph
from ryser.errors import PreconditionError, RyserError
from ryser.graphs import adjacency_masks, find_isomorphism
from ryser.planes import SUPPORTED_ORDERS

CELLS = [(i, j) for i in range(4) for j in range(4)]


def _rook(a, b):
    return a[0] == b[0] or a[1] == b[1]


def _shrikhande(a, b):
    return ((b[0] - a[0]) % 4, (b[1] - a[1]) % 4) in {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}


def _two_coloring(adjacent):
    """Color 1 on the graph's edges, color 2 on its non-edges, of K16."""
    masks = [[0 if u == v else 1 if adjacent(CELLS[u], CELLS[v]) else 2 for v in range(16)] for u in range(16)]
    return ColoredCompleteGraph(16, 2, masks)


def _edges(*sides):
    """The graphs side by side as one 2-uniform hypergraph; side k's vertex
    u is named "k.u"."""
    return Hypergraph(
        2,
        [
            [f"{k}.{u}", f"{k}.{v}"]
            for k, adjacent in enumerate(sides)
            for u in range(16)
            for v in range(u + 1, 16)
            if adjacent(CELLS[u], CELLS[v])
        ],
    )


def test_find_isomorphism_maps_types_and_edges():
    path = adjacency_masks(3, [(0, 1), (1, 2)])
    other_centre = adjacency_masks(3, [(0, 2), (2, 1)])
    assert find_isomorphism("abc", path, "abc", other_centre) is None
    assert find_isomorphism("abc", path, "cba", path) == [2, 1, 0]
    assert find_isomorphism("aab", path, "abb", path) is None
    assert find_isomorphism("", [], "", []) == []


def test_rook_and_shrikhande_graphs_are_told_apart():
    # both strongly regular (16, 6, 2, 2): refinement alone leaves every cell whole
    rook, shrikhande = _two_coloring(_rook), _two_coloring(_shrikhande)
    assert not isomorphic_colored(rook, shrikhande)
    assert isomorphic_colored(rook, _two_coloring(_rook))
    assert not isomorphic(_edges(_rook), _edges(_shrikhande))
    assert isomorphic(_edges(_shrikhande), _edges(_shrikhande))


def test_search_backtracks_out_of_a_wrong_first_choice():
    # every vertex is 6-regular, so vertex 0.0 of the first graph (rook) is
    # first tried against 0.0 of the second (Shrikhande)
    assert isomorphic(_edges(_rook, _shrikhande), _edges(_shrikhande, _rook))
    assert not isomorphic(_edges(_rook, _shrikhande), _edges(_shrikhande, _shrikhande))


def test_a_witness_that_fails_its_check_is_never_reported_as_true(monkeypatch):
    identity = lambda types_a, adj_a, types_b, adj_b: list(range(len(types_a)))  # noqa: E731
    monkeypatch.setattr(colored, "find_isomorphism", identity)
    monkeypatch.setattr(hypergraph, "find_isomorphism", identity)
    one_color = ColoredCompleteGraph(3, 2, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    two_colors = ColoredCompleteGraph(3, 2, [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    with pytest.raises(RyserError, match="witness"):
        isomorphic_colored(one_color, two_colors)
    with pytest.raises(RyserError, match="witness"):  # same edge set, other multiplicities
        isomorphic(Hypergraph(2, ["ab", "ab", "bc"]), Hypergraph(2, ["ab", "bc", "bc"]))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_truncated_plane_is_isomorphic_to_its_double_dual(q):
    h = truncated_projective_plane(q)
    assert isomorphic(h, dual(dual(h)))


def test_search_over_its_node_budget_raises(monkeypatch):
    g1 = transitive_closure(gyarfas_graph(truncated_projective_plane(5)))
    g2 = blowup_graph(affine_plane(5), 1)
    monkeypatch.setattr(graphs, "ISOMORPHISM_NODE_BUDGET", 1)
    with pytest.raises(PreconditionError, match="budget"):
        isomorphic_colored(g1, g2)
