"""Hypergraphs with multiset edges: validation, duality, intersection level,
HGF text I/O and isomorphism by a witness-checked search.

Vertex ids are opaque strings; all set computations renumber them densely and
work on int bitmasks. Edges form a multiset: repeated edge instances are kept
and tracked by index. Instances are immutable by convention (no mutators).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import FormatError, PreconditionError, RyserError
from .graphs import adjacency_masks, find_isomorphism


@dataclass(frozen=True)
class Violation:
    """One violated invariant with a concrete witness."""

    rule: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.rule}: {self.witness!r}"


class Hypergraph:
    """Finite hypergraph with a declared uniformity `r`.

    `vertices` is the sorted tuple of all vertex tokens (edge vertices, class
    vertices and any explicitly supplied extras). `edges` is a tuple of
    frozensets in instance order. `classes`, when given, declares a partition
    of a superset of the edge union into `r` groups; validate() reports every
    breach of the declared shape instead of raising.
    """

    def __init__(
        self,
        r: int,
        edges: Iterable[Iterable[str]] = (),
        classes: Optional[Sequence[Iterable[str]]] = None,
        vertices: Iterable[str] = (),
    ):
        self.r = int(r)
        self.edges: tuple[frozenset[str], ...] = tuple(frozenset(map(str, e)) for e in edges)
        self.classes: Optional[tuple[frozenset[str], ...]] = (
            tuple(frozenset(map(str, c)) for c in classes) if classes is not None else None
        )
        pool: set[str] = set(map(str, vertices))
        for e in self.edges:
            pool.update(e)
        if self.classes:
            for c in self.classes:
                pool.update(c)
        self.vertices: tuple[str, ...] = tuple(sorted(pool))
        self._vindex = {v: i for i, v in enumerate(self.vertices)}

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertex_index(self, v: str) -> int:
        return self._vindex[v]

    def edge_masks(self) -> list[int]:
        """Edges as bitmasks over the dense vertex numbering."""
        idx = self._vindex
        out = []
        for e in self.edges:
            m = 0
            for v in e:
                m |= 1 << idx[v]
            out.append(m)
        return out

    def degree(self, v: str) -> int:
        return sum(1 for e in self.edges if v in e)

    def degrees(self) -> dict[str, int]:
        d = {v: 0 for v in self.vertices}
        for e in self.edges:
            for v in e:
                d[v] += 1
        return d

    def max_degree(self) -> int:
        degs = self.degrees()
        return max(degs.values()) if degs else 0

    def __repr__(self) -> str:
        return f"Hypergraph(r={self.r}, n={self.n}, m={self.m})"

    def __eq__(self, other) -> bool:
        """Labelled equality (same tokens, same edge multiset, same classes)."""
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.r == other.r
            and self.vertices == other.vertices
            and sorted(self.edges, key=sorted) == sorted(other.edges, key=sorted)
            and (self.classes is None) == (other.classes is None)
            and (self.classes is None or sorted(self.classes, key=sorted) == sorted(other.classes, key=sorted))
        )

    def __hash__(self):
        return hash((self.r, self.vertices, tuple(sorted(tuple(sorted(e)) for e in self.edges))))


def validate(h: Hypergraph) -> list[Violation]:
    """Check the declared shape; returns violations as data, never raises.

    Rules reported: "not r-uniform" (an edge whose cardinality differs from r),
    "not r-partite" (an edge with two vertices in one declared class, or an
    edge vertex missing from every class), "classes not disjoint",
    "class count" (classes present but not exactly r of them).
    """
    out: list[Violation] = []
    for i, e in enumerate(h.edges):
        if len(e) != h.r:
            out.append(Violation("not r-uniform", (i, tuple(sorted(e)))))
    if h.classes is not None:
        if len(h.classes) != h.r:
            out.append(Violation("class count", (len(h.classes), h.r)))
        seen: dict[str, int] = {}
        for ci, c in enumerate(h.classes):
            for v in c:
                if v in seen:
                    out.append(Violation("classes not disjoint", (v, seen[v] + 1, ci + 1)))
                else:
                    seen[v] = ci
        for i, e in enumerate(h.edges):
            hits: dict[int, list[str]] = {}
            for v in e:
                if v not in seen:
                    out.append(Violation("not r-partite", (i, v, "vertex in no class")))
                else:
                    hits.setdefault(seen[v], []).append(v)
            for ci, vs in hits.items():
                if len(vs) > 1:
                    out.append(Violation("not r-partite", (i, tuple(sorted(vs)), ci + 1)))
    return out


def intersection_level(h: Hypergraph) -> int:
    """Largest t such that every two edge instances share >= t vertices.

    By convention a single-edge hypergraph is r-intersecting (returns r).
    A hypergraph with a disjoint edge pair has level 0.
    """
    if h.m == 0:
        raise PreconditionError("intersection_level needs at least one edge")
    if h.m == 1:
        return h.r
    masks = h.edge_masks()
    best = min((a & b).bit_count() for a, b in itertools.combinations(masks, 2))
    return best


def dual(h: Hypergraph) -> Hypergraph:
    """Dual hypergraph: one vertex per edge instance, one edge per vertex star.

    Dual vertices are named "e0", "e1", ... in the instance order of h.edges.
    Dual edges are the vertex stars taken as a multiset, in the sorted order
    of h.vertices; a vertex lying in no edge contributes an empty star. Kept
    that way, dual(dual(h)) is isomorphic to h including isolated vertices.
    The result's declared uniformity is the largest star size.
    """
    names = [f"e{i}" for i in range(h.m)]
    star_of: list[list[str]] = [[] for _ in h.vertices]
    for name, e in zip(names, h.edges):
        for v in e:
            star_of[h.vertex_index(v)].append(name)
    stars = [frozenset(s) for s in star_of]
    r_out = max((len(s) for s in stars), default=0)
    return Hypergraph(r_out, stars, vertices=names)


# -- HGF text format ---------------------------------------------------------
#
#   r <int>
#   class <index> <vertex> ...      (optional block; indices 1..r, each once)
#   edge <vertex> ... <vertex>      (exactly r tokens; repeat line = multiedge)
#
# '#' starts a comment, blank lines are skipped, one item per line.


def parse_hgf(text: str) -> Hypergraph:
    r: Optional[int] = None
    classes: dict[int, list[str]] = {}
    edges: list[frozenset[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "r":
            if r is not None:
                raise FormatError(f"line {lineno}: duplicate r line")
            if len(toks) != 2:
                raise FormatError(f"line {lineno}: r line needs exactly one integer")
            try:
                r = int(toks[1])
            except ValueError:
                raise FormatError(f"line {lineno}: r is not an integer: {toks[1]!r}") from None
            if r < 1:
                raise FormatError(f"line {lineno}: r must be positive")
        elif kind == "class":
            if r is None:
                raise FormatError(f"line {lineno}: class line before r line")
            if len(toks) < 2:
                raise FormatError(f"line {lineno}: class line needs an index")
            try:
                ci = int(toks[1])
            except ValueError:
                raise FormatError(f"line {lineno}: class index is not an integer") from None
            if not 1 <= ci <= r:
                raise FormatError(f"line {lineno}: class index {ci} out of range 1..{r}")
            if ci in classes:
                raise FormatError(f"line {lineno}: class {ci} declared twice")
            classes[ci] = toks[2:]
        elif kind == "edge":
            if r is None:
                raise FormatError(f"line {lineno}: edge line before r line")
            vs = toks[1:]
            if len(vs) != r:
                raise FormatError(f"line {lineno}: edge has {len(vs)} vertices, expected {r}")
            if len(set(vs)) != len(vs):
                raise FormatError(f"line {lineno}: repeated vertex within an edge")
            edges.append(frozenset(vs))
        else:
            raise FormatError(f"line {lineno}: unknown directive {kind!r}")
    if r is None:
        raise FormatError("missing r line")
    cls = None
    if classes:
        if sorted(classes) != list(range(1, r + 1)):
            missing = sorted(set(range(1, r + 1)) - set(classes))
            raise FormatError(f"class block present but classes {missing} missing")
        cls = [classes[i] for i in range(1, r + 1)]
    return Hypergraph(r, edges, classes=cls)


def to_hgf(h: Hypergraph, comment: str = "") -> str:
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"# {c}")
    lines.append(f"r {h.r}")
    if h.classes is not None:
        for i, c in enumerate(h.classes, start=1):
            lines.append("class " + str(i) + (" " + " ".join(sorted(c)) if c else ""))
    for e in h.edges:
        lines.append("edge " + " ".join(sorted(e)))
    return "\n".join(lines) + "\n"


# -- isomorphism ----------------------------------------------------------------


def _incidence_graph(h: Hypergraph) -> tuple[list[int], list[int]]:
    """Node types and adjacency: vertices 0..n-1, then one node per edge
    instance (so multiplicity counts), joined to the edge's vertices."""
    pairs = [(h.n + i, h.vertex_index(v)) for i, e in enumerate(h.edges) for v in e]
    return [0] * h.n + [1] * h.m, adjacency_masks(h.n + h.m, pairs)


def _edge_multiset(h: Hypergraph, pi: Sequence[int]) -> Counter:
    return Counter(frozenset(pi[h.vertex_index(v)] for v in e) for e in h.edges)


def isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    """Isomorphism up to vertex relabeling (classes are ignored).

    True only with a witness: a vertex map checked to carry the edge
    multiset of h1 onto that of h2. Raises PreconditionError when the search
    passes its node budget.
    """
    pi = find_isomorphism(*_incidence_graph(h1), *_incidence_graph(h2))
    if pi is None:
        return False
    if _edge_multiset(h1, pi) != _edge_multiset(h2, range(h2.n)):
        raise RyserError("internal invariant violated: isomorphism witness does not map the edges")
    return True
