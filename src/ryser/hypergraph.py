"""Hypergraphs with multiset edges: validation, duality, intersection level,
HGF text I/O and isomorphism via canonical forms.

Vertex ids are opaque strings; all set computations renumber them densely and
work on int bitmasks. Edges form a multiset: repeated edge instances are kept
and tracked by index. Instances are immutable by convention (no mutators).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Optional, Sequence

from .errors import FormatError, PreconditionError


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


# -- canonical form / isomorphism --------------------------------------------


def _refine_vertex_cells(h: Hypergraph, rounds: int = 3) -> list[list[int]]:
    """Partition vertex indices into cells by an iterated structural invariant.

    Isomorphisms map cells to cells, so a lex-min search may restrict itself
    to permutations that respect the (invariant-ordered) cell sequence.
    """
    n = h.n
    members: list[list[int]] = [[] for _ in range(n)]  # vertex -> incident edges
    for ei, e in enumerate(h.edges):
        for v in e:
            members[h.vertex_index(v)].append(ei)
    lab = [0] * n
    for _ in range(rounds):
        sigs = []
        for v in range(n):
            around = sorted(
                (len(h.edges[ei]), tuple(sorted(lab[h.vertex_index(u)] for u in h.edges[ei] if h.vertex_index(u) != v)))
                for ei in members[v]
            )
            sigs.append((lab[v], tuple(around)))
        order = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(order)}
        lab = [rank[s] for s in sigs]
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(lab[v], []).append(v)
    return [cells[k] for k in sorted(cells)]


def _edge_encoding(h: Hypergraph, pos: dict[int, int]) -> tuple:
    enc = sorted(tuple(sorted(pos[h.vertex_index(v)] for v in e)) for e in h.edges)
    return tuple(enc)


def hypergraph_fingerprint(h: Hypergraph) -> tuple:
    """Isomorphism-invariant fingerprint (refinement labels; no search)."""
    cells = _refine_vertex_cells(h)
    lab = [0] * h.n
    for ci, cell in enumerate(cells):
        for v in cell:
            lab[v] = ci
    per_edge = sorted(tuple(sorted(lab[h.vertex_index(v)] for v in e)) for e in h.edges)
    return (
        "hg",
        h.n,
        h.m,
        tuple(sorted(len(e) for e in h.edges)),
        tuple(len(c) for c in cells),
        tuple(per_edge),
    )


def canonical_form(h: Hypergraph, budget: int = 200_000) -> tuple[str, tuple]:
    """("exact", encoding) when the cell-respecting search fits the budget,
    else ("fingerprint", invariant). Exact encodings are equal iff the
    hypergraphs are isomorphic (vertex relabeling; classes are ignored).
    """
    cells = _refine_vertex_cells(h)
    work = 1
    for c in cells:
        work *= factorial(len(c))
        if work > budget:
            return ("fingerprint", hypergraph_fingerprint(h))
    best: Optional[tuple] = None
    offsets = []
    off = 0
    for c in cells:
        offsets.append(off)
        off += len(c)
    for perms in itertools.product(*(itertools.permutations(c) for c in cells)):
        pos: dict[int, int] = {}
        for cell_perm, base in zip(perms, offsets):
            for j, v in enumerate(cell_perm):
                pos[v] = base + j
        enc = _edge_encoding(h, pos)
        if best is None or enc < best:
            best = enc
    sizes = tuple(len(c) for c in cells)
    return ("exact", (h.n, sizes, best))


def isomorphic(h1: Hypergraph, h2: Hypergraph, budget: int = 200_000) -> bool:
    """Isomorphism test; exact within the search budget, fingerprint above it."""
    if hypergraph_fingerprint(h1) != hypergraph_fingerprint(h2):
        return False
    k1 = canonical_form(h1, budget)
    k2 = canonical_form(h2, budget)
    if k1[0] == "exact" and k2[0] == "exact":
        return k1 == k2
    return True  # fingerprints agree; beyond the budget that is the contract
