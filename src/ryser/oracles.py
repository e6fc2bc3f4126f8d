"""Exact brute-force oracles for the hypergraph and cover parameters.

These are the ground truth the constructive algorithms are measured against,
so they are deliberately independent of those algorithms: plain branch and
bound / exhaustive enumeration on bitmasks, desk scale (|V| <= 40, |E| <= 64
by default; the limits are arguments).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .colored import ColoredCompleteGraph, ComponentCover, monochromatic_components
from .errors import PreconditionError
from .graphs import iter_bits, max_independent_set, vertex_mask
from .hypergraph import Hypergraph, intersection_level

DEFAULT_MAX_VERTICES = 40
DEFAULT_MAX_EDGES = 64


@dataclass(frozen=True)
class HypergraphParams:
    """tau/nu/rho/delta/alpha/alpha_prime/t_level, all exact.

    rho is None when some vertex lies in no edge (edge covers of V then do
    not exist). t_level is 0 when there are no edges or some pair of edges
    is disjoint, and r for a single-edge hypergraph.
    """

    tau: int
    nu: int
    rho: Optional[int]
    delta: int
    alpha: int
    alpha_prime: int
    t_level: int


def _check_limits(h: Hypergraph, max_vertices: int, max_edges: int) -> None:
    if h.n > max_vertices:
        raise PreconditionError(f"|V|={h.n} exceeds the oracle limit {max_vertices}")
    if h.m > max_edges:
        raise PreconditionError(f"|E|={h.m} exceeds the oracle limit {max_edges}")


def _matching_lower_bound(masks: list[int], todo: list[int]) -> int:
    used = 0
    cnt = 0
    for i in todo:
        if not masks[i] & used:
            used |= masks[i]
            cnt += 1
    return cnt


def tau_exact(h: Hypergraph, max_vertices: int = DEFAULT_MAX_VERTICES, max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """Minimum vertex cover (transversal) size, branch and bound.

    Branches on the vertices of an uncovered edge, highest remaining degree
    first; prunes with a greedy disjoint-edge lower bound.
    """
    _check_limits(h, max_vertices, max_edges)
    if any(len(e) == 0 for e in h.edges):
        raise PreconditionError("an empty edge cannot be covered")
    if h.m == 0:
        return 0
    masks = h.edge_masks()

    # greedy upper bound: always take a highest-degree vertex of the first uncovered edge
    def greedy() -> int:
        left = list(range(h.m))
        size = 0
        while left:
            counts: dict[int, int] = {}
            for i in left:
                for b in iter_bits(masks[i]):
                    counts[b] = counts.get(b, 0) + 1
            v = max(counts, key=lambda x: (counts[x], -x))
            left = [i for i in left if not masks[i] >> v & 1]
            size += 1
        return size

    best = greedy()

    def rec(todo: list[int], chosen: int):
        nonlocal best
        if not todo:
            best = min(best, chosen)
            return
        if chosen + _matching_lower_bound(masks, todo) >= best:
            return
        e = masks[todo[0]]
        cand = sorted(iter_bits(e), key=lambda v: -sum(masks[i] >> v & 1 for i in todo))
        for v in cand:
            rest = [i for i in todo if not masks[i] >> v & 1]
            rec(rest, chosen + 1)

    rec(list(range(h.m)), 0)
    return best


def tau_bruteforce(h: Hypergraph, max_vertices: int = 20) -> int:
    """Independent route: try vertex subsets by increasing size."""
    if h.n > max_vertices:
        raise PreconditionError(f"|V|={h.n} exceeds the enumeration limit {max_vertices}")
    if any(len(e) == 0 for e in h.edges):
        raise PreconditionError("an empty edge cannot be covered")
    if h.m == 0:
        return 0
    support = sorted(set().union(*h.edges))
    for k in range(len(support) + 1):
        for combo in itertools.combinations(support, k):
            s = set(combo)
            if all(e & s for e in h.edges):
                return k
    raise AssertionError("unreachable")


def nu_exact(h: Hypergraph, max_vertices: int = DEFAULT_MAX_VERTICES, max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """Maximum matching (pairwise disjoint edge instances), branch and bound."""
    _check_limits(h, max_vertices, max_edges)
    masks = h.edge_masks()
    m = len(masks)
    best = 0

    def rec(i: int, used: int, size: int):
        nonlocal best
        if size + (m - i) <= best:
            return
        if i == m:
            best = max(best, size)
            return
        if not masks[i] & used and masks[i]:
            rec(i + 1, used | masks[i], size + 1)
        rec(i + 1, used, size)

    rec(0, 0, 0)
    return best


def rho_exact(
    h: Hypergraph, max_vertices: int = DEFAULT_MAX_VERTICES, max_edges: int = DEFAULT_MAX_EDGES
) -> Optional[int]:
    """Minimum number of edges whose union is V; None if a vertex is uncovered
    by every edge. Exact set cover on bitmasks."""
    _check_limits(h, max_vertices, max_edges)
    universe = (1 << h.n) - 1
    if h.n == 0:
        return 0
    masks = h.edge_masks()
    reach = 0
    for x in masks:
        reach |= x
    if reach != universe:
        return None
    order = sorted(range(h.m), key=lambda i: (-masks[i].bit_count(), i))

    def greedy() -> int:
        left = universe
        size = 0
        while left:
            i = max(range(h.m), key=lambda j: (masks[j] & left).bit_count())
            left &= ~masks[i]
            size += 1
        return size

    best = greedy()
    biggest = max(x.bit_count() for x in masks)

    def rec(left: int, size: int):
        nonlocal best
        if left == 0:
            best = min(best, size)
            return
        if size + (left.bit_count() + biggest - 1) // biggest >= best:
            return
        v = (left & -left).bit_length() - 1
        for i in order:
            if masks[i] >> v & 1:
                rec(left & ~masks[i], size + 1)

    rec(universe, 0)
    return best


def alpha_exact(h: Hypergraph, max_vertices: int = DEFAULT_MAX_VERTICES, max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """Maximum vertex set containing no edge entirely. Complements tau:
    X contains no full edge iff V - X is a transversal."""
    return h.n - tau_exact(h, max_vertices, max_edges)


def alpha_prime_exact(
    h: Hypergraph, max_vertices: int = DEFAULT_MAX_VERTICES, max_edges: int = DEFAULT_MAX_EDGES
) -> int:
    """Maximum vertex set meeting every edge at most once: an independent set
    of the co-occurrence graph (u ~ v iff some edge contains both)."""
    _check_limits(h, max_vertices, max_edges)
    adj = [0] * h.n
    masks = h.edge_masks()
    for em in masks:
        for v in iter_bits(em):
            adj[v] |= em & ~(1 << v)
    return max_independent_set(adj, h.n).bit_count()


def delta_exact(h: Hypergraph) -> int:
    """Largest number of edge instances through one vertex."""
    return h.max_degree()


def parameters_exact(
    h: Hypergraph, max_vertices: int = DEFAULT_MAX_VERTICES, max_edges: int = DEFAULT_MAX_EDGES
) -> HypergraphParams:
    _check_limits(h, max_vertices, max_edges)
    t_level = intersection_level(h) if h.m else 0
    return HypergraphParams(
        tau=tau_exact(h, max_vertices, max_edges),
        nu=nu_exact(h, max_vertices, max_edges),
        rho=rho_exact(h, max_vertices, max_edges),
        delta=delta_exact(h),
        alpha=alpha_exact(h, max_vertices, max_edges),
        alpha_prime=alpha_prime_exact(h, max_vertices, max_edges),
        t_level=t_level,
    )


# -- cover oracles over colored graphs ----------------------------------------


def min_component_cover(g: ColoredCompleteGraph, max_total_components: int = 64) -> ComponentCover:
    """Minimum number of monochromatic components covering all vertices,
    colors unrestricted. Exact set cover; candidates explored in
    (color, smallest member) order, so ties resolve deterministically."""
    index = monochromatic_components(g)
    cands: list[tuple[int, frozenset[int], int]] = []
    for c in range(1, g.r + 1):
        for comp in index.of_color(c):
            cands.append((c, comp, vertex_mask(comp)))
    if len(cands) > max_total_components:
        raise PreconditionError(
            f"{len(cands)} components exceed the oracle limit {max_total_components}"
        )
    cands.sort(key=lambda t: (t[0], min(t[1])))
    universe = (1 << g.n) - 1

    def greedy() -> list[int]:
        left = universe
        picks = []
        while left:
            i = max(range(len(cands)), key=lambda j: ((cands[j][2] & left).bit_count(), -j))
            picks.append(i)
            left &= ~cands[i][2]
        return picks

    best = greedy()

    def rec(left: int, picks: list[int]):
        nonlocal best
        if left == 0:
            if len(picks) < len(best):
                best = picks[:]
            return
        if len(picks) + 1 >= len(best):
            return
        v = (left & -left).bit_length() - 1
        for i, (_, _, m) in enumerate(cands):
            if m >> v & 1:
                picks.append(i)
                rec(left & ~m, picks)
                picks.pop()

    rec(universe, [])
    return ComponentCover.build([(cands[i][0], cands[i][1]) for i in best])


def max_partial_cover_distinct(g: ColoredCompleteGraph, max_tuples: int = 10_000_000) -> ComponentCover:
    """Best coverage achievable by r-1 components of pairwise different
    colors: full enumeration of all color (r-1)-subsets x component choices.

    Deterministic tie-break: first optimum in (omitted color, component
    index tuple) order. common_vertex is set when all parts intersect.
    """
    index = monochromatic_components(g)
    per_color_masks = [[vertex_mask(comp) for comp in index.of_color(c)] for c in range(1, g.r + 1)]
    total = 0
    for omit in range(1, g.r + 1):
        prod = 1
        for c in range(1, g.r + 1):
            if c != omit:
                prod *= len(per_color_masks[c - 1])
        total += prod
    if total > max_tuples:
        raise PreconditionError(f"{total} component tuples exceed the oracle limit {max_tuples}")

    best_covered = -1
    best_choice: Optional[tuple[int, tuple[int, ...]]] = None
    for omit in range(1, g.r + 1):
        colors = [c for c in range(1, g.r + 1) if c != omit]
        max_tail = [0] * (len(colors) + 1)
        for i in range(len(colors) - 1, -1, -1):
            max_tail[i] = max_tail[i + 1] + max(m.bit_count() for m in per_color_masks[colors[i] - 1])

        def rec(i: int, union: int, picked: tuple[int, ...]):
            nonlocal best_covered, best_choice
            if union.bit_count() + max_tail[i] <= best_covered:
                return
            if i == len(colors):
                cov = union.bit_count()
                if cov > best_covered:
                    best_covered = cov
                    best_choice = (omit, picked)
                return
            for j, m in enumerate(per_color_masks[colors[i] - 1]):
                rec(i + 1, union | m, picked + (j,))

        rec(0, 0, ())
    assert best_choice is not None
    omit, picked = best_choice
    colors = [c for c in range(1, g.r + 1) if c != omit]
    parts = [(c, index.of_color(c)[j]) for c, j in zip(colors, picked)]
    inter = frozenset.intersection(*(s for _, s in parts)) if parts else frozenset()
    common = min(inter) if inter else None
    return ComponentCover.build(parts, common_vertex=common)
