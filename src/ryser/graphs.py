"""Exact solvers for small simple graphs, and the one isomorphism search.

Everything here is desk scale and deterministic. Graphs are given as an
adjacency list over vertices 0..n-1 (list of int bitmasks).
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Optional, Sequence

from .errors import PreconditionError, RyserError

# Search nodes find_isomorphism may visit before it gives up.
ISOMORPHISM_NODE_BUDGET = 10_000


def iter_bits(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_mask(vertices: Iterable[int]) -> int:
    """Bitmask with bit v set for every v in vertices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def adjacency_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise RyserError(f"self-loop at {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def max_independent_set(adj: Sequence[int], n: int) -> int:
    """One maximum independent set, as a bitmask. Branch and bound: branch on
    a highest-degree candidate vertex (take it / drop it)."""
    best_mask = 0
    best_size = -1

    def rec(cand: int, cur: int, cur_size: int):
        nonlocal best_mask, best_size
        if cur_size + cand.bit_count() <= best_size:
            return
        if cand == 0:
            if cur_size > best_size:
                best_size, best_mask = cur_size, cur
            return
        v = max(iter_bits(cand), key=lambda x: (adj[x] & cand).bit_count())
        rec(cand & ~(1 << v) & ~adj[v], cur | (1 << v), cur_size + 1)
        rec(cand & ~(1 << v), cur, cur_size)

    rec((1 << n) - 1, 0, 0)
    return best_mask


def max_matching(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Maximum-cardinality matching of a simple graph (networkx blossom).

    networkx is imported here, not at module level: only the degree-2 case
    needs it, and it would otherwise dominate the CLI's start-up time."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    m = nx.max_weight_matching(g, maxcardinality=True)
    return sorted((min(u, v), max(u, v)) for u, v in m)


def max_matching_size_bruteforce(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """Independent oracle: exhaustive search over edge subsets (small n only)."""
    es = list(edges)

    def rec(i: int, used: int) -> int:
        if i == len(es):
            return 0
        best = rec(i + 1, used)
        u, v = es[i]
        m = (1 << u) | (1 << v)
        if not used & m:
            best = max(best, 1 + rec(i + 1, used | m))
        return best

    return rec(0, 0)


def bipartite_matching_cover(left: Sequence[int], right: Sequence[int], adj: dict[int, set[int]]) -> dict[int, int]:
    """A matching covering every vertex of `left` inside left x right.

    Kuhn augmenting paths; raises if Hall's condition fails.
    """
    match_r: dict[int, int] = {}

    def try_augment(u: int, seen: set[int]) -> bool:
        for w in sorted(adj.get(u, ())):
            if w in seen:
                continue
            seen.add(w)
            if w not in match_r or try_augment(match_r[w], seen):
                match_r[w] = u
                return True
        return False

    for u in left:
        if not try_augment(u, set()):
            raise RyserError(f"internal invariant violated: no matching saturates {u}")
    return {u: w for w, u in match_r.items()}


def min_edge_cover_size(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """Gallai: with no isolated vertex, min edge cover = n - max matching."""
    covered = set()
    for u, v in edges:
        covered.add(u)
        covered.add(v)
    if len(covered) != n:
        raise RyserError("edge cover undefined: isolated vertex")
    return n - len(max_matching(n, edges))


def connected_components(n: int, adj: Sequence[int]) -> list[list[int]]:
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in iter_bits(adj[v]):
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        out.append(sorted(comp))
    return out


def _refine(nbrs_a: list[list[int]], la: list[int], nbrs_b: list[list[int]], lb: list[int]):
    """Colour refinement of both graphs at once: a node's new label is its
    old one plus the multiset of its neighbours' labels, numbered through one
    table shared by both graphs, so equal labels mean equal refined colours.
    Returns the stable (la, lb), or None once the label counts differ."""
    cells = len(set(la))
    while True:
        table: dict[tuple, int] = {}
        la = [table.setdefault((la[x], tuple(sorted([la[y] for y in nb]))), len(table)) for x, nb in enumerate(nbrs_a)]
        lb = [table.setdefault((lb[x], tuple(sorted([lb[y] for y in nb]))), len(table)) for x, nb in enumerate(nbrs_b)]
        if sorted(la) != sorted(lb):
            return None
        if len(table) == cells:
            return la, lb
        cells = len(table)


def find_isomorphism(
    types_a: Sequence[Hashable], adj_a: Sequence[int], types_b: Sequence[Hashable], adj_b: Sequence[int]
) -> Optional[list[int]]:
    """A type-preserving isomorphism of node-typed graphs A -> B as a node
    map (pi[x] is x's image), or None when there is none.

    Individualisation and refinement (McKay & Piperno, Practical graph
    isomorphism II, 2014): refine both graphs, individualise A's first node
    in a non-singleton cell and try each node of the same cell in B. At a
    discrete stable partition the labels define the map, and it is an
    isomorphism: each label has one signature, so a node and its image have
    the same neighbour labels. Raises PreconditionError once the search
    passes ISOMORPHISM_NODE_BUDGET nodes.
    """
    ids: dict[Hashable, int] = {}
    la = [ids.setdefault(t, len(ids)) for t in types_a]
    lb = [ids.setdefault(t, len(ids)) for t in types_b]
    nbrs_a = [list(iter_bits(m)) for m in adj_a]
    nbrs_b = [list(iter_bits(m)) for m in adj_b]
    stack = [(la, lb, None, None)]  # parent labels, and the pair (x, y) to individualise
    nodes = 0
    while stack:
        la, lb, x, y = stack.pop()
        nodes += 1
        if nodes > ISOMORPHISM_NODE_BUDGET:
            raise PreconditionError(f"isomorphism search passed its budget of {ISOMORPHISM_NODE_BUDGET} nodes")
        if x is not None:
            fresh = len(set(la))
            la, lb = la.copy(), lb.copy()
            la[x] = lb[y] = fresh
        refined = _refine(nbrs_a, la, nbrs_b, lb)
        if refined is None:
            continue
        la, lb = refined
        size = Counter(la)
        x = next((v for v, c in enumerate(la) if size[c] > 1), None)
        if x is None:
            node_of = {c: v for v, c in enumerate(lb)}
            return [node_of[c] for c in la]
        cell = la[x]
        stack.extend((la, lb, x, y) for y in reversed([v for v, c in enumerate(lb) if c == cell]))
    return None
