"""Vertex covers of size at most (r-1) * nu for r-uniform hypergraphs in
which no vertex lies in more than two edges.

Everything happens in the dual: its hyperedges are the vertex stars, of size
one or two, so after eliminating the unit edges the dual is a simple graph G
whose edge covers are vertex covers of the original. Unit-edge elimination
is lossless: a unit edge inside a two-edge is redundant, and a unit edge
{u} with no two-edge over u means the hyperedge u meets nothing else and
some vertex of it is forced into every cover (both the cover number and the
strong independence number drop by exactly one).

For the graph part, per connected component:

  * cycles get alternating edges (ceil(l/2), one worse than the l/2 + k
    lower-bound pattern of pure cycles but still within budget);
  * complete components get a pairing (ceil(m/2));
  * anything else follows the independence construction: a maximum
    independent set I, a maximum matching M on the rest, a matching into I
    covering the leftover independent part (Hall's condition holds, else I
    was not maximum), one extra edge per still-uncovered I vertex; at most
    |M| + |I| edges in total.

With Delta(G) <= r and exact independence numbers this never exceeds
(r-1) * alpha(G) edges, which is what the (r-1) * nu budget needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import PreconditionError, RyserError
from .graphs import (
    adjacency_masks,
    bipartite_matching_cover,
    connected_components,
    iter_bits,
    max_independent_set,
    max_matching,
    vertex_mask,
)
from .hypergraph import Hypergraph, dual
from .oracles import nu_exact


@dataclass(frozen=True)
class DualReduction:
    """Outcome of eliminating unit edges from a {1,2}-size dual.

    vertices: remaining dual vertices (hyperedge tokens of the original).
    edges: the collapsed simple graph on them. sources maps each graph edge
    to the original vertices realizing it (sorted). forced: original
    vertices every cover must contain. removed: dual vertices eliminated
    alongside. component_kinds: ("cycle" | "complete" | "general", members).
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    sources: dict
    forced: tuple[str, ...]
    removed: tuple[str, ...]
    component_kinds: tuple[tuple[str, tuple[str, ...]], ...]


def classify_component(members: Sequence[int], adj: Sequence[int]) -> str:
    k = len(members)
    cm = vertex_mask(members)
    degs = [(adj[v] & cm).bit_count() for v in members]
    if k >= 3 and all(d == 2 for d in degs):
        # connected 2-regular = cycle (K_3 lands here on purpose)
        return "cycle"
    if all(d == k - 1 for d in degs):
        return "complete"
    return "general"


def reduce_dual(hd: Hypergraph, edge_labels: Optional[Sequence[str]] = None) -> DualReduction:
    """Eliminate unit hyperedges from a dual with edge sizes in {0, 1, 2}.

    edge_labels[i] names the original vertex behind dual edge i (defaults to
    positional names). Size-0 edges (isolated original vertices) are useless
    for covering and dropped. Errors on any edge of size three or more.
    """
    if edge_labels is None:
        edge_labels = [f"v{i}" for i in range(hd.m)]
    if len(edge_labels) != hd.m:
        raise PreconditionError("need one label per dual edge")
    singles: dict[str, list[str]] = {}
    pairs: dict[tuple[str, str], list[str]] = {}
    has_pair: set[str] = set()
    for e, label in zip(hd.edges, edge_labels):
        if len(e) > 2:
            raise PreconditionError(f"dual edge {sorted(e)} has size {len(e)} > 2")
        if len(e) == 0:
            continue
        if len(e) == 1:
            (u,) = e
            singles.setdefault(u, []).append(label)
        else:
            u, w = sorted(e)
            pairs.setdefault((u, w), []).append(label)
            has_pair.add(u)
            has_pair.add(w)
    forced: list[str] = []
    removed: list[str] = []
    for u in sorted(singles):
        if u not in has_pair:
            forced.append(min(singles[u]))
            removed.append(u)
        # else: the unit edge sits inside a two-edge and is redundant
    vertices = tuple(sorted(set(itertools.chain.from_iterable(pairs))))
    edges = tuple(sorted(pairs))
    sources = {e: tuple(sorted(v)) for e, v in pairs.items()}
    vid = {v: i for i, v in enumerate(vertices)}
    adj = adjacency_masks(len(vertices), [(vid[a], vid[b]) for a, b in edges])
    kinds = []
    for comp in connected_components(len(vertices), adj):
        kinds.append((classify_component(comp, adj), tuple(vertices[i] for i in comp)))
    red = DualReduction(vertices, edges, sources, tuple(forced), tuple(removed), tuple(kinds))
    for i, v in enumerate(vertices):
        assert adj[i], f"reduced dual vertex {v} has graph degree 0"
    return red


def _cycle_order(members: Sequence[int], adj: Sequence[int]) -> list[int]:
    cm = vertex_mask(members)
    order = [min(members)]
    prev = -1
    while len(order) < len(members):
        nxt = min(b for b in iter_bits(adj[order[-1]] & cm) if b != prev)
        prev = order[-1]
        order.append(nxt)
    return order


def edge_cover_graph(n: int, edges: Sequence[tuple[int, int]], r: int) -> list[tuple[int, int]]:
    """Edge cover of a simple graph without isolated vertices, of size at
    most (r-1) * alpha(G). Requires r >= 3 and max degree <= r."""
    if r < 3:
        raise PreconditionError(f"need r >= 3, got {r}")
    adj = adjacency_masks(n, edges)
    if any(a == 0 for a in adj):
        raise PreconditionError("isolated vertex: edge cover undefined")
    if max(a.bit_count() for a in adj) > r:
        raise PreconditionError(f"max degree exceeds r={r}")
    cover: list[tuple[int, int]] = []
    alpha_total = 0
    for comp in connected_components(n, adj):
        kind = classify_component(comp, adj)
        if kind == "cycle":
            order = _cycle_order(comp, adj)
            l = len(order)
            for i in range(0, l - 1, 2):
                cover.append(_e(order[i], order[i + 1]))
            if l % 2 == 1:
                cover.append(_e(order[-1], order[0]))
            alpha_total += l // 2
        elif kind == "complete":
            vs = sorted(comp)
            for i in range(0, len(vs) - 1, 2):
                cover.append(_e(vs[i], vs[i + 1]))
            if len(vs) % 2 == 1:
                cover.append(_e(vs[-1], vs[0]))
            alpha_total += 1
        else:
            part, alpha = _independence_cover(comp, adj)
            cover.extend(part)
            alpha_total += alpha
    covered = set()
    for u, v in cover:
        covered.add(u)
        covered.add(v)
    if covered != set(range(n)):
        raise RyserError("internal invariant violated: edge cover missed a vertex")
    if len(cover) > (r - 1) * alpha_total:
        raise RyserError("internal invariant violated: cover exceeds the (r-1)*alpha budget")
    return sorted(set(cover))


def _independence_cover(comp: Sequence[int], adj: Sequence[int]) -> tuple[list[tuple[int, int]], int]:
    """The not-a-cycle construction on one connected component; returns the
    chosen edges and the component's independence number."""
    cm = vertex_mask(comp)
    local = sorted(comp)
    lid = {v: i for i, v in enumerate(local)}
    ladj = [0] * len(local)
    for v in local:
        for u in iter_bits(adj[v] & cm):
            ladj[lid[v]] |= 1 << lid[u]
    imask = max_independent_set(ladj, len(local))
    I = [local[i] for i in iter_bits(imask)]
    rest = [v for v in local if v not in set(I)]
    rest_edges = [
        (u, v) for u, v in itertools.combinations(rest, 2) if adj[u] >> v & 1
    ]
    ridx = {v: i for i, v in enumerate(rest)}
    m_local = max_matching(len(rest), [(ridx[u], ridx[v]) for u, v in rest_edges])
    M = [(rest[a], rest[b]) for a, b in m_local]
    matched = set(itertools.chain.from_iterable(M))
    Y = [v for v in rest if v not in matched]
    for u, v in itertools.combinations(Y, 2):
        assert not adj[u] >> v & 1, "leftover set must be independent if M is maximum"
    bip = {y: {u for u in iter_bits(adj[y] & cm) if u in set(I)} for y in Y}
    y_match = bipartite_matching_cover(Y, I, bip)
    cover = [_e(u, v) for u, v in M]
    cover += [_e(y, i) for y, i in y_match.items()]
    used_i = set(y_match.values())
    for v in I:
        if v not in used_i:
            partner = min(iter_bits(adj[v] & cm))
            cover.append(_e(v, partner))
    assert len(cover) <= len(M) + len(I)
    return cover, len(I)


def _e(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def ryser_delta2(h: Hypergraph, verify: bool = True) -> tuple[str, ...]:
    """Vertex cover of size at most (r-1) * nu for Delta(H) <= 2, r >= 3.

    Returns the chosen vertices sorted. With verify the nu budget is checked
    against the exact oracle (desk-scale inputs only).
    """
    if h.r < 3:
        raise PreconditionError(f"need r >= 3, got r={h.r}")
    if any(len(e) != h.r for e in h.edges):
        raise PreconditionError("hypergraph is not r-uniform")
    if h.m == 0:
        return ()
    if h.max_degree() > 2:
        bad = max(h.degrees(), key=lambda v: h.degrees()[v])
        raise PreconditionError(f"vertex {bad!r} lies in more than two edges")
    hd = dual(h)
    red = reduce_dual(hd, edge_labels=list(h.vertices))
    vid = {v: i for i, v in enumerate(red.vertices)}
    graph_edges = [(vid[a], vid[b]) for a, b in red.edges]
    chosen = list(red.forced)
    if red.vertices:
        cover_edges = edge_cover_graph(len(red.vertices), graph_edges, h.r)
        for u, v in cover_edges:
            key = (red.vertices[u], red.vertices[v])
            chosen.append(min(red.sources[key]))
    chosen_set = set(chosen)
    T = tuple(sorted(chosen_set))
    missed = [i for i, e in enumerate(h.edges) if chosen_set.isdisjoint(e)]
    if missed:
        raise RyserError(f"internal invariant violated: edges {missed} uncovered")
    if verify:
        nu = nu_exact(h, max_vertices=max(h.n, 1), max_edges=max(h.m, 1))
        if len(T) > (h.r - 1) * nu:
            raise RyserError(f"internal invariant violated: |T|={len(T)} exceeds (r-1)*nu={(h.r - 1) * nu}")
    return T
