"""Finite affine planes, truncated projective planes, and blowup colorings.

AG(2,q) is built over GF(q) for q in {2,3,4,5,7,8,9}: points are coordinate
pairs, lines are y = m*x + c (one parallel class per slope m) plus the
vertical class x = c, giving q+1 classes of q mutually disjoint lines.

The truncated projective plane of order q is the plane of order q minus one
point and the q+1 lines through it. It is the canonical tight family here:
a (q+1)-partite (q+1)-uniform intersecting hypergraph with cover number q.
Concretely we delete the vertical direction, so the q^2 hyperedges are the
non-vertical affine lines, each extended by its slope point; the partite
classes are the q point columns plus the class of slope points.

blowup_graph replaces each plane point by b clones: clone pairs over one
point get all q+1 colors, and clones over two different points get the single
color of the parallel class joining the points. These colorings achieve the
distinct-color partial cover bound with equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .colored import ColoredCompleteGraph
from .errors import PreconditionError
from .graphs import max_independent_set
from .hypergraph import Hypergraph, Violation

# q: (p, k, irreducible poly coefficients c_0..c_k for x^k + ... reduction)
_FIELD_TABLE = {
    2: (2, 1, None),
    3: (3, 1, None),
    4: (2, 2, (1, 1, 1)),        # x^2 + x + 1
    5: (5, 1, None),
    7: (7, 1, None),
    8: (2, 3, (1, 1, 0, 1)),     # x^3 + x + 1
    9: (3, 2, (1, 0, 1)),        # x^2 + 1
}

SUPPORTED_ORDERS = tuple(sorted(_FIELD_TABLE))


class GF:
    """GF(q) with elements encoded as ints 0..q-1 (base-p coefficient digits).

    Prime q uses plain modular arithmetic; prime powers multiply polynomials
    modulo the tabled irreducible. add/mul are precomputed tables.
    """

    def __init__(self, q: int):
        if q not in _FIELD_TABLE:
            raise PreconditionError(f"unsupported field order {q}; supported: {SUPPORTED_ORDERS}")
        self.q = q
        p, k, poly = _FIELD_TABLE[q]
        self.p, self.k = p, k

        def digits(x: int) -> list[int]:
            out = []
            for _ in range(k):
                out.append(x % p)
                x //= p
            return out

        def undigits(d: Sequence[int]) -> int:
            x = 0
            for c in reversed(d):
                x = x * p + c
            return x

        def polymul(a: list[int], b: list[int]) -> list[int]:
            prod = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
            # reduce modulo the irreducible (monic of degree k)
            if poly is not None:
                for d in range(len(prod) - 1, k - 1, -1):
                    c = prod[d]
                    if c:
                        prod[d] = 0
                        for i in range(k):
                            prod[d - k + i] = (prod[d - k + i] - c * poly[i]) % p
            return prod[:k]

        self.add = [[0] * q for _ in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                da, db = digits(a), digits(b)
                self.add[a][b] = undigits([(x + y) % p for x, y in zip(da, db)])
                self.mul[a][b] = undigits(polymul(da, db))

    def elements(self) -> range:
        return range(self.q)


@dataclass(frozen=True)
class AffinePlane:
    """Point/line incidence structure of order q with its parallel classes.

    lines holds frozensets of point tokens; parallel_classes groups line
    indices, one group per class (q+1 groups of q lines each).
    """

    q: int
    points: tuple[str, ...]
    lines: tuple[frozenset[str], ...]
    parallel_classes: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return self.q + 1


def affine_plane(q: int, verify: bool = True) -> AffinePlane:
    """AG(2,q); every axiom is re-verified after construction."""
    gf = GF(q)
    pts = [f"({a},{b})" for a in gf.elements() for b in gf.elements()]
    lines: list[frozenset[str]] = []
    classes: list[tuple[int, ...]] = []
    for m in gf.elements():
        idxs = []
        for c in gf.elements():
            line = frozenset(f"({x},{gf.add[gf.mul[m][x]][c]})" for x in gf.elements())
            idxs.append(len(lines))
            lines.append(line)
        classes.append(tuple(idxs))
    idxs = []
    for c in gf.elements():
        line = frozenset(f"({c},{y})" for y in gf.elements())
        idxs.append(len(lines))
        lines.append(line)
    classes.append(tuple(idxs))
    plane = AffinePlane(q, tuple(pts), tuple(lines), tuple(classes))
    if verify:
        bad = verify_affine_axioms(plane.points, plane.lines, order=q)
        if bad:
            raise AssertionError(f"constructed plane violates an axiom: {bad[0]}")
    return plane


def verify_affine_axioms(
    points: Sequence[str], lines: Sequence[frozenset[str]], order: Optional[int] = None
) -> list[Violation]:
    """Check the five affine-plane axioms on an arbitrary candidate structure.

    (i) two points lie on exactly one common line; (ii) for a point x off a
    line L there is exactly one line through x disjoint from L; (iii) every
    line has >= 2 points; (iv) every point is on >= 3 lines; (v) the maximum
    family of pairwise disjoint lines has size `order` (when given).
    Violations come back as data with witnesses.
    """
    out: list[Violation] = []
    pts = list(points)
    pset = set(pts)
    for li, line in enumerate(lines):
        if not line <= pset:
            out.append(Violation("line uses unknown point", (li, tuple(sorted(line - pset)))))
    pair_count: dict[tuple[str, str], int] = {}
    for line in lines:
        for a, b in itertools.combinations(sorted(line), 2):
            pair_count[(a, b)] = pair_count.get((a, b), 0) + 1
    for a, b in itertools.combinations(sorted(pts), 2):
        c = pair_count.get((a, b), 0)
        if c != 1:
            out.append(Violation("point pair not on exactly one line", (a, b, c)))
    for li, line in enumerate(lines):
        if len(line) < 2:
            out.append(Violation("line with fewer than two points", (li, tuple(sorted(line)))))
    incident: dict[str, list[int]] = {p: [] for p in pts}
    for li, line in enumerate(lines):
        for p in line:
            if p in incident:
                incident[p].append(li)
    for p in pts:
        if len(incident[p]) < 3:
            out.append(Violation("point on fewer than three lines", (p, len(incident[p]))))
    for p in pts:
        for li, line in enumerate(lines):
            if p in line:
                continue
            disjoint = [lj for lj in incident[p] if not lines[lj] & line]
            if len(disjoint) != 1:
                out.append(Violation("parallel axiom fails", (p, li, len(disjoint))))
    if order is not None:
        got = _max_disjoint_lines(lines)
        if got != order:
            out.append(Violation("max parallel family size", (got, order)))
    return out


def _max_disjoint_lines(lines: Sequence[frozenset[str]]) -> int:
    """Size of the largest family of pairwise disjoint lines.

    Fast path: when "disjoint or equal" is an equivalence relation the answer
    is the largest equivalence class; otherwise exact search on the
    intersection graph.
    """
    n = len(lines)
    if n == 0:
        return 0
    disj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = not (lines[i] & lines[j])
            disj[i][j] = disj[j][i] = d
    transitive = True
    for i in range(n):
        for j in range(n):
            if not disj[i][j] or i == j:
                continue
            for k in range(n):
                if k != i and k != j and disj[j][k] and not disj[i][k] and i != k:
                    transitive = False
                    break
            if not transitive:
                break
        if not transitive:
            break
    if transitive:
        seen = [False] * n
        best = 1
        for i in range(n):
            if seen[i]:
                continue
            grp = [j for j in range(n) if j == i or disj[i][j]]
            for j in grp:
                seen[j] = True
            best = max(best, len(grp))
        return best
    adj = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and not disj[i][j]:
                adj[i] |= 1 << j
    return max_independent_set(adj, n).bit_count()


def truncated_projective_plane(q: int) -> Hypergraph:
    """The projective plane of order q minus one point and its q+1 lines.

    Vertices: q^2 affine points "(a,b)" plus q slope points "D(m)". Edges:
    for each slope m and intercept c, the affine line y = m*x + c together
    with D(m). Classes: the q columns x = a, plus the slope class. Any two
    edges meet (equal slopes share the slope point, distinct slopes share an
    affine point), tau = q and nu = 1.
    """
    gf = GF(q)
    edges = []
    for m in gf.elements():
        for c in gf.elements():
            e = [f"({x},{gf.add[gf.mul[m][x]][c]})" for x in gf.elements()]
            e.append(f"D({m})")
            edges.append(e)
    classes = [[f"({a},{b})" for b in gf.elements()] for a in gf.elements()]
    classes.append([f"D({m})" for m in gf.elements()])
    return Hypergraph(q + 1, edges, classes=classes)


@dataclass(frozen=True)
class BlowupMap:
    """Clone count b and the vertex -> point token assignment."""

    b: int
    f: tuple[str, ...]


def blowup_graph(plane: AffinePlane, b: int) -> ColoredCompleteGraph:
    """Replace every point with b clones; color a clone pair by the parallel
    classes of the lines through both underlying points (all r colors on
    same-point pairs, exactly one otherwise). Vertex v sits over point
    plane.points[v // b]; its block in color c is the line of parallel
    class c through that point."""
    if b < 1:
        raise PreconditionError("b must be >= 1")
    pt_index = {p: i for i, p in enumerate(plane.points)}
    line_of = [[0] * len(plane.points) for _ in plane.parallel_classes]
    for ci, grp in enumerate(plane.parallel_classes):
        for li in grp:
            for p in plane.lines[li]:
                line_of[ci][pt_index[p]] = li
    n = b * len(plane.points)
    return ColoredCompleteGraph.from_labels([[row[v // b] for v in range(n)] for row in line_of])
