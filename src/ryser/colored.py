"""Complete graphs whose edges carry nonempty sets of colors drawn from [r].

Color sets are stored as bitmasks (bit c-1 = color c, so r <= 30). The
central structural notion is transitivity: color i on uv and on vw forces i
on uw. Transitive colorings are exactly systems of r vertex partitions, and
the monochromatic components of color i are the blocks of partition i, which
are cliques in that color.

A graph keeps those partitions as r label arrays: labels[c][v] is the
smallest vertex of v's color-(c+1) component. Producers that already hold
partitions (generators, blowups, the Gyarfas graph, closure, coarsening)
build through ColoredCompleteGraph.from_labels, transitive by construction;
contraction keeps its representatives' rows of the masks. Mask input (the
constructor, and parse_cgf, which hands over the matrix it has validated)
labels each vertex by the first earlier block representative sharing the
color, and is transitive iff the masks those labels induce equal the input,
one list comparison; only a non-transitive input is relabeled by union-find.

Includes the edge-intersection construction that turns an r-partite
intersecting hypergraph into such a graph (vertices = hyperedges, colors =
the partite classes where two hyperedges meet), the CGF text format, and
isomorphism up to vertex AND color relabeling, True only with a checked
witness.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Hashable, Iterable, Optional, Sequence

from .errors import FormatError, PreconditionError, RyserError
from .graphs import adjacency_masks, find_isomorphism, iter_bits, vertex_mask
from .hypergraph import Hypergraph, validate

MAX_COLORS = 30


def _min_labels(labels: Sequence[Sequence[Hashable]]) -> tuple[tuple[int, ...], ...]:
    """Relabel each partition so that a block's label is its smallest vertex."""
    if not 1 <= len(labels) <= MAX_COLORS:
        raise PreconditionError(f"r must be in 1..{MAX_COLORS}, got {len(labels)}")
    n = len(labels[0])
    if n < 1:
        raise PreconditionError("need at least one vertex")
    out = []
    for row in labels:
        if len(row) != n:
            raise PreconditionError("every color needs one label per vertex")
        first: dict = {}
        out.append(tuple([first.setdefault(x, v) for v, x in enumerate(row)]))
    return tuple(out)


def _blocks(row: Sequence[int]) -> dict[int, list[int]]:
    """Label -> sorted members; insertion order is by smallest member."""
    blocks: dict[int, list[int]] = {}
    for v, x in enumerate(row):
        blocks.setdefault(x, []).append(v)
    return blocks


def _label_masks(labels: Sequence[Sequence[int]]) -> list[list[int]]:
    """Mask matrix of a partition system: color c on uv iff u, v share a block.

    Rows are built as integers of fixed-width fields, one per vertex, and
    unpacked through array at C speed. A block adds one integer, holding
    its color bit in each member's field, to each member's row (distinct
    bits, so no carries): |B| + 2 passes over a row's `width` bytes. A
    block of at most width/40 vertices is cheaper set pair by pair (|B|^2
    updates)."""
    n = len(labels[0])
    code = next(tc for tc in "BHIL" if array(tc).itemsize * 8 >= len(labels))
    width = n * array(code).itemsize
    rows = [0] * n
    small: list[tuple[int, list[int]]] = []
    for c, row in enumerate(labels):
        for block in _blocks(row).values():
            if len(block) == 1:
                continue
            if len(block) * 40 <= width:
                small.append((1 << c, block))
                continue
            fields = array(code, bytes(width))
            for v in block:
                fields[v] = 1 << c
            packed = int.from_bytes(fields, sys.byteorder)
            for v in block:
                rows[v] += packed
    masks = [array(code, packed.to_bytes(width, sys.byteorder)).tolist() for packed in rows]
    for bit, block in small:
        for u in block:
            mu = masks[u]
            for v in block:
                mu[v] |= bit
    for u in range(n):
        masks[u][u] = 0
    return masks


def _first_colorless(masks: Sequence[list[int]]) -> Optional[tuple[int, int]]:
    """Lexicographically first pair u < v carrying no color, if any."""
    for u, row in enumerate(masks):
        if row.count(0) > 1:  # the diagonal is one zero
            return u, row.index(0, u + 1)
    return None


def _rep_labels(masks: Sequence[Sequence[int]], r: int) -> tuple[tuple[int, ...], ...]:
    """Per color, each vertex's label is the first earlier block
    representative it shares the color with, else the vertex itself (a new
    representative). For a transitive coloring these are the components
    labeled by their smallest vertex; at most n(n-1)/2 bit tests per color."""
    out = []
    for c in range(r):
        bit = 1 << c
        reps: list[int] = []
        row: list[int] = []
        for v, mv in enumerate(masks):
            for x in reps:
                if mv[x] & bit:
                    row.append(x)
                    break
            else:
                reps.append(v)
                row.append(v)
        out.append(tuple(row))
    return tuple(out)


class ColoredCompleteGraph:
    """Complete graph on vertices 0..n-1 with color-set masks on every pair.

    The label arrays (labels[c][v]: the smallest vertex of v's color-(c+1)
    component), the component index read from them and the transitivity
    flag are computed eagerly at construction, so concurrent readers always
    see a fully built index.
    """

    def __init__(self, n: int, r: int, masks: Sequence[Sequence[int]]):
        if n < 1:
            raise PreconditionError("need at least one vertex")
        if not 1 <= r <= MAX_COLORS:
            raise PreconditionError(f"r must be in 1..{MAX_COLORS}, got {r}")
        full = (1 << r) - 1
        mm: list[list[int]] = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                x = masks[u][v]
                if x != masks[v][u]:
                    raise PreconditionError(f"asymmetric colors on pair ({u},{v})")
                if x == 0:
                    raise PreconditionError(f"pair ({u},{v}) carries no color")
                if x & ~full:
                    raise PreconditionError(f"pair ({u},{v}) uses a color outside 1..{r}")
                mm[u][v] = x
        self._index_masks(mm, r)

    @classmethod
    def from_labels(cls, labels: Sequence[Sequence[Hashable]]) -> "ColoredCompleteGraph":
        """The coloring of r partitions: labels[c][v] names v's block in color
        c+1 (any hashable; blocks are relabeled by their smallest vertex).
        Transitive by construction; every pair must share some block."""
        labels = _min_labels(labels)
        masks = _label_masks(labels)
        bad = _first_colorless(masks)
        if bad is not None:
            raise PreconditionError(f"pair {bad} carries no color")
        return cls._of_partitions(masks, labels)

    @classmethod
    def _of_partitions(cls, masks: list[list[int]], labels: tuple[tuple[int, ...], ...]) -> "ColoredCompleteGraph":
        """Graph from smallest-vertex labels and the masks they induce."""
        g = cls.__new__(cls)
        g._set(masks, labels)
        g.transitive = True
        return g

    def _set(self, masks: list[list[int]], labels: tuple[tuple[int, ...], ...]) -> None:
        """Store masks and labels, and index each label's block."""
        self.n = len(masks)
        self.r = len(labels)
        self.masks = masks
        self.labels = labels
        blocks = [_blocks(row) for row in labels]
        self._by_label = tuple({x: frozenset(vs) for x, vs in b.items()} for b in blocks)
        self._components = tuple(tuple(d.values()) for d in self._by_label)

    @staticmethod
    def _union_find(n: int, r: int, masks: list[list[int]]) -> tuple[tuple[int, ...], ...]:
        """Per color, the smallest vertex of each vertex's connected component."""
        labels = []
        for c in range(r):
            bit = 1 << c
            parent = list(range(n))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u in range(n):
                mu = masks[u]
                for v in range(u + 1, n):
                    if mu[v] & bit:
                        ru, rv = find(u), find(v)
                        if ru != rv:
                            parent[max(ru, rv)] = min(ru, rv)
            labels.append(tuple(find(v) for v in range(n)))
        return tuple(labels)

    @classmethod
    def _of_masks(cls, masks: list[list[int]], r: int) -> "ColoredCompleteGraph":
        """Graph from a matrix already known to be valid: symmetric, zero
        diagonal, every pair a nonempty subset of [r]. The matrix is kept."""
        g = cls.__new__(cls)
        g._index_masks(masks, r)
        return g

    def _index_masks(self, masks: list[list[int]], r: int) -> None:
        """Labels and transitivity of a valid mask matrix.

        The representative labels induce masks equal to the input exactly
        when every color's relation is an equivalence; only otherwise are
        the components found by union-find."""
        labels = _rep_labels(masks, r)
        self.transitive = _label_masks(labels) == masks
        if not self.transitive:
            labels = self._union_find(len(masks), r, masks)
        self._set(masks, labels)

    def mask(self, u: int, v: int) -> int:
        return self.masks[u][v]

    def pair_masks(self) -> set[int]:
        """The distinct masks on pairs u != v, collected at C speed: no pair
        carries the empty mask, so the diagonal's zero is the only one."""
        values = set().union(*self.masks)
        values.discard(0)
        return values

    def col(self, u: int, v: int) -> frozenset[int]:
        """Colors of the pair uv, 1-based."""
        return frozenset(b + 1 for b in iter_bits(self.masks[u][v]))

    def component_of(self, v: int, color: int) -> frozenset[int]:
        if not 1 <= color <= self.r:
            raise PreconditionError(f"color {color} out of range 1..{self.r}")
        return self._by_label[color - 1][self.labels[color - 1][v]]

    def __repr__(self) -> str:
        return f"ColoredCompleteGraph(n={self.n}, r={self.r}, transitive={self.transitive})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredCompleteGraph):
            return NotImplemented
        return self.n == other.n and self.r == other.r and self.masks == other.masks

    def __hash__(self):
        return hash((self.n, self.r, tuple(tuple(row) for row in self.masks)))


@dataclass(frozen=True)
class PartialColoredGraph:
    """Edge-intersection graph of a non-intersecting hypergraph.

    Some vertex pairs carry no color, so none of the covering machinery
    applies; `disjoint_witness` names one offending hyperedge pair.
    """

    n: int
    r: int
    col: dict
    disjoint_witness: tuple[int, int]

    @property
    def complete(self) -> bool:
        return False


@dataclass(frozen=True)
class ComponentIndex:
    """Per color: the monochromatic components, each a frozenset of vertices.

    components[c-1] lists color c's components sorted by smallest member;
    for a transitive graph every color's list partitions all of V.
    """

    r: int
    components: tuple[tuple[frozenset[int], ...], ...]

    def k(self, color: int) -> int:
        return len(self.components[color - 1])

    def of_color(self, color: int) -> tuple[frozenset[int], ...]:
        return self.components[color - 1]

    def sizes(self, color: int) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components[color - 1])


@dataclass(frozen=True)
class ComponentCover:
    """A set of (color, component) parts plus bookkeeping.

    covered_count = |union of the parts|; common_vertex, when set, lies in
    every part. Parts are sorted by (color, smallest vertex) and exact
    duplicates (same color, same vertex set) are never repeated.
    """

    parts: tuple[tuple[int, frozenset[int]], ...]
    covered_count: int
    common_vertex: Optional[int] = None

    @property
    def size(self) -> int:
        return len(self.parts)

    def union(self) -> frozenset[int]:
        out: set[int] = set()
        for _, comp in self.parts:
            out |= comp
        return frozenset(out)

    @staticmethod
    def build(parts: Iterable[tuple[int, frozenset[int]]], common_vertex: Optional[int] = None) -> "ComponentCover":
        dedup = sorted(set((c, frozenset(s)) for c, s in parts), key=lambda p: (p[0], min(p[1])))
        covered: set[int] = set()
        for _, s in dedup:
            covered |= s
        return ComponentCover(tuple(dedup), len(covered), common_vertex)


def monochromatic_components(g: ColoredCompleteGraph) -> ComponentIndex:
    """Component index of a transitive coloring.

    Each color's components are cliques in that color and partition V (the
    component/clique duality that every cover construction leans on);
    transitivity, which makes them so, is required here.
    """
    if not g.transitive:
        raise PreconditionError("graph is not transitive; apply transitive_closure first")
    return ComponentIndex(g.r, g._components)


def components_of(g: ColoredCompleteGraph, x: int, colors: Iterable[int]) -> ComponentCover:
    """The components through x in the given colors, as a cover with common vertex x."""
    parts = [(c, g.component_of(x, c)) for c in sorted(set(colors))]
    return ComponentCover.build(parts, common_vertex=x)


def is_valid_component_cover(g: ColoredCompleteGraph, cover: ComponentCover, require_spanning: bool = True) -> bool:
    """Every part must be an actual monochromatic component of its color."""
    for c, s in cover.parts:
        if not 1 <= c <= g.r:
            return False
        if s not in g._components[c - 1]:
            return False
    if len(cover.union()) != cover.covered_count:
        return False
    if cover.common_vertex is not None and any(cover.common_vertex not in s for _, s in cover.parts):
        return False
    if require_spanning and cover.covered_count != g.n:
        return False
    return True


# -- constructions -----------------------------------------------------------


def gyarfas_graph(h: Hypergraph):
    """Edge-intersection coloring of an r-partite r-uniform hypergraph.

    Vertices are the hyperedge instances of h; color i lies on a pair iff
    the two hyperedges share their class-i vertex. Intersecting h gives a
    ColoredCompleteGraph (always transitive: two hyperedges meeting a third
    in the same class-i vertex meet each other there too); otherwise a
    PartialColoredGraph is returned.
    """
    if h.classes is None:
        raise PreconditionError("hypergraph has no declared classes")
    bad = validate(h)
    if bad:
        raise PreconditionError(f"hypergraph is not valid r-partite r-uniform: {bad[0]}")
    if h.m < 1:
        raise PreconditionError("need at least one hyperedge")
    if h.r > MAX_COLORS:
        raise PreconditionError(f"r={h.r} exceeds the color budget {MAX_COLORS}")
    class_of = {}
    for ci, c in enumerate(h.classes):
        for v in c:
            class_of[v] = ci
    tokens: list[list[Optional[str]]] = [[None] * h.m for _ in range(h.r)]
    for a, e in enumerate(h.edges):
        for v in e:
            tokens[class_of[v]][a] = v  # the class-i vertex labels edge a's block
    labels = _min_labels(tokens)
    masks = _label_masks(labels)
    witness = _first_colorless(masks)
    if witness is not None:
        col = {}
        for a in range(h.m):
            for b in range(a + 1, h.m):
                if masks[a][b]:
                    col[(a, b)] = frozenset(x + 1 for x in iter_bits(masks[a][b]))
        return PartialColoredGraph(h.m, h.r, col, witness)
    return ColoredCompleteGraph._of_partitions(masks, labels)


def transitive_closure(g: ColoredCompleteGraph) -> ColoredCompleteGraph:
    """Smallest transitive coloring containing g: color i is added to every
    pair lying in one connected component of color i. Idempotent, and the
    components themselves are unchanged."""
    return ColoredCompleteGraph.from_labels(g.labels)


def full_color_classes(g: ColoredCompleteGraph) -> dict[tuple[int, ...], list[int]]:
    """Label tuple -> the vertices carrying it, in order of smallest member.
    In a transitive coloring these are the classes of the all-colors
    relation."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for v, key in enumerate(zip(*g.labels)):
        classes.setdefault(key, []).append(v)
    return classes


def contract_full_color_classes(g: ColoredCompleteGraph):
    """Contract every maximal set of vertices pairwise joined in all r colors.

    Returns (contracted graph, mapping) where mapping[i] is the frozenset of
    original vertices behind contracted vertex i. Transitivity makes the
    full-color relation an equivalence: its classes are the vertices with
    equal label tuples, and the contracted vertex keeps their labels and the
    masks of its smallest member. The result has no full-color pair unless
    it is a single vertex; when nothing contracts it is g itself.
    """
    if not g.transitive:
        raise PreconditionError("contraction needs a transitive coloring")
    classes = full_color_classes(g)
    mapping = tuple(frozenset(vs) for vs in classes.values())
    if len(mapping) == g.n:
        return g, mapping
    reps = [vs[0] for vs in classes.values()]
    pick = itemgetter(*reps)
    masks = [list(pick(g.masks[u])) for u in reps] if len(reps) > 1 else [[0]]
    return ColoredCompleteGraph._of_partitions(masks, _min_labels(list(zip(*classes)))), mapping


def lift_cover(cover: ComponentCover, mapping: Sequence[frozenset[int]]) -> ComponentCover:
    """Map a cover of a contracted graph back to the original vertex set."""
    parts = []
    for c, comp in cover.parts:
        blown: set[int] = set()
        for i in comp:
            blown |= mapping[i]
        parts.append((c, frozenset(blown)))
    common = None
    if cover.common_vertex is not None:
        common = min(mapping[cover.common_vertex])
    return ComponentCover.build(parts, common_vertex=common)


def merge_color_components(g: ColoredCompleteGraph, color: int, a: int, b: int) -> ColoredCompleteGraph:
    """Coarsen one color's partition by merging its components #a and #b
    (indices into the component list). Preserves transitivity."""
    if not g.transitive:
        raise PreconditionError("coarsening needs a transitive coloring")
    if not 1 <= color <= g.r:
        raise PreconditionError(f"color {color} out of range 1..{g.r}")
    comps = g._components[color - 1]
    if not (0 <= a < len(comps) and 0 <= b < len(comps) and a != b):
        raise PreconditionError(f"color {color} has {len(comps)} components; cannot merge {a} and {b}")
    labels = [list(row) for row in g.labels]
    keep = min(comps[a])
    for v in comps[b]:
        labels[color - 1][v] = keep
    return ColoredCompleteGraph.from_labels(labels)


# -- CGF text format ----------------------------------------------------------
#
#   colored n <int> r <int>
#   e <u> <v> <c1,c2,...>      (0-based u < v, 1-based colors, every pair once)


def _color_mask(tok: str, r: int, lineno: int) -> int:
    """Bitmask of a comma-separated 1-based color list."""
    m = 0
    for part in tok.split(","):
        try:
            c = int(part)
        except ValueError:
            raise FormatError(f"line {lineno}: bad color {part!r}") from None
        if not 1 <= c <= r:
            raise FormatError(f"line {lineno}: color {c} out of range 1..{r}")
        m |= 1 << (c - 1)
    if m == 0:
        raise FormatError(f"line {lineno}: empty color list")
    return m


def _color_text(mask: int) -> str:
    """The color list of a mask as to_cgf spells it: ascending, comma-separated."""
    return ",".join(str(b + 1) for b in iter_bits(mask))


def _token_mask(tok: str, r: int) -> Optional[int]:
    """Mask of a color token "<colors>\\ne" (a pair line's colors up to the
    next line's "e"), or None unless <colors> is spelled as to_cgf spells it."""
    if not tok.endswith("\ne"):
        return None
    body = tok[:-2]
    try:
        m = _color_mask(body, r, 0)
    except FormatError:
        return None
    return m if _color_text(m) == body else None


def _canonical_masks(text: str) -> Optional[tuple[int, list[list[int]]]]:
    """(r, masks) of a text exactly as to_cgf writes it, else None.

    Accepted: leading "#" lines, the header "colored n <n> r <r>", then for
    each u in order the lines "e u v <colors>" for v = u+1..n-1, single
    spaces, canonical color lists, "\\n" endings and nothing after the last
    one. Row u is cut out by finding its last line, split on spaces and
    checked column by column with list comparisons; each distinct color
    token is validated once."""
    pos = 0
    while text.startswith("#", pos):
        pos = text.find("\n", pos) + 1
        if pos == 0:
            return None
    comments = text[:pos]
    if len(comments.splitlines()) != comments.count("\n"):
        return None  # a comment holds another line break: the line loop splits there
    end = text.find("\n", pos)
    if end < 0:
        return None
    head = text[pos:end].split(" ")
    if len(head) != 5 or head[0] != "colored" or head[1] != "n" or head[3] != "r":
        return None
    _, _, ns, _, rs = head
    try:
        n, r = int(ns), int(rs)
    except ValueError:
        return None
    if str(n) != ns or str(r) != rs or n < 1 or not 1 <= r <= MAX_COLORS:
        return None
    # before allocating: the newline count fixes n, so n x n is bounded by the input
    if text.count("\n") != comments.count("\n") + 1 + n * (n - 1) // 2:
        return None
    masks = [[0] * n for _ in range(n)]
    names = [str(v) for v in range(n)]
    token_masks: dict[str, int] = {}
    last = names[-1]
    pos = end + 1
    for u in range(n - 1):
        name = names[u]
        cut = text.find(f"e {name} {last} ", pos)
        end = text.find("\n", cut)
        if cut < 0 or end < 0:
            return None
        toks = text[pos:end].split(" ")
        pos = end + 1
        toks[-1] += "\ne"  # the row's last color token, spelled like the others
        k = n - 1 - u
        if len(toks) != 3 * k + 1 or toks[0] != "e" or toks[1::3] != [name] * k or toks[2::3] != names[u + 1 :]:
            return None
        colors = toks[3::3]
        try:
            masks[u][u + 1 :] = map(token_masks.__getitem__, colors)
        except KeyError:  # the row has tokens not seen before: check each once
            for tok in set(colors).difference(token_masks):
                m = _token_mask(tok, r)
                if m is None:
                    return None
                token_masks[tok] = m
            masks[u][u + 1 :] = map(token_masks.__getitem__, colors)
    if pos != len(text):
        return None
    # mirror: row v left of the diagonal is column v above it
    for v, column in enumerate(zip(*masks)):
        masks[v][:v] = column[:v]
    return r, masks


def parse_cgf(text: str) -> ColoredCompleteGraph:
    """Read CGF. Text in to_cgf's exact form is read row by row; any other
    valid layout goes through the line loop, which yields the same graph and
    gives every error its line number."""
    read = _canonical_masks(text)
    r, masks = read if read is not None else _read_lines(text)
    # every pair listed once, symmetric, in range and nonempty: no re-check
    return ColoredCompleteGraph._of_masks(masks, r)


def _read_lines(text: str) -> tuple[int, list[list[int]]]:
    """(r, masks) of any valid CGF text, one line at a time."""
    n = r = None
    masks: Optional[list[list[int]]] = None
    ids: dict[str, int] = {}  # "0".."n-1" -> vertex, filled at the header
    color_masks: dict[str, int] = {}  # each distinct color token is checked once
    pairs = 0
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        toks = raw.split()
        if not toks:
            continue
        head = toks[0]
        if head == "e":
            if masks is None or n is None or r is None:
                raise FormatError(f"line {lineno}: edge before header")
            if len(toks) != 4:
                raise FormatError(f"line {lineno}: edge line needs 'e u v colors'")
            _, a, b, tok = toks
            u, v = ids.get(a), ids.get(b)
            if u is None or v is None:  # not a plain id below n: int() decides
                try:
                    u, v = int(a), int(b)
                except ValueError:
                    raise FormatError(f"line {lineno}: bad vertex ids") from None
            if not (0 <= u < v < n):
                raise FormatError(f"line {lineno}: need 0 <= u < v < n, got {u},{v}")
            row = masks[u]
            if row[v]:
                raise FormatError(f"line {lineno}: pair ({u},{v}) listed twice")
            m = color_masks.get(tok)
            if m is None:
                m = color_masks[tok] = _color_mask(tok, r, lineno)
            row[v] = masks[v][u] = m
            pairs += 1
        elif head == "colored":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(toks) != 5 or toks[1] != "n" or toks[3] != "r":
                raise FormatError(f"line {lineno}: header must be 'colored n <int> r <int>'")
            try:
                n, r = int(toks[2]), int(toks[4])
            except ValueError:
                raise FormatError(f"line {lineno}: bad header integers") from None
            if n < 1:
                raise FormatError(f"line {lineno}: n must be positive")
            if not 1 <= r <= MAX_COLORS:
                raise FormatError(f"line {lineno}: r must be in 1..{MAX_COLORS}")
            if n * (n - 1) // 2 > len(lines):
                raise FormatError(f"line {lineno}: n={n} needs {n * (n - 1) // 2} pair lines, input has {len(lines)} lines")
            masks = [[0] * n for _ in range(n)]
            ids = {str(i): i for i in range(n)}
        else:
            raise FormatError(f"line {lineno}: unknown directive {head!r}")
    if n is None or r is None or masks is None:
        raise FormatError("missing header line")
    want = n * (n - 1) // 2
    if pairs != want:
        raise FormatError(f"expected {want} pair lines, saw {pairs}")
    return r, masks


def to_cgf(g: ColoredCompleteGraph, comment: str = "") -> str:
    lines = [f"# {c}" for c in comment.splitlines()]
    lines.append(f"colored n {g.n} r {g.r}")
    text_of = {m: _color_text(m) for m in g.pair_masks()}  # each distinct mask spelled once
    for u, row in enumerate(g.masks):
        lines.extend([f"e {u} {v} {text_of[row[v]]}" for v in range(u + 1, g.n)])
    return "\n".join(lines) + "\n"


# -- isomorphism (vertex AND color relabeling) ---------------------------------


def _incidence_graph(g: ColoredCompleteGraph) -> tuple[list[int], list[int]]:
    """Node types and adjacency: vertices 0..n-1, colors n..n+r-1, then one
    node per pair, joined to its two ends and to its colors."""
    n, r = g.n, g.r
    edges = []
    node = n + r
    for u in range(n):
        for v in range(u + 1, n):
            edges += [(node, u), (node, v)]
            edges += [(node, n + c) for c in iter_bits(g.masks[u][v])]
            node += 1
    return [0] * n + [1] * r + [2] * (node - n - r), adjacency_masks(node, edges)


def isomorphic_colored(g1: ColoredCompleteGraph, g2: ColoredCompleteGraph) -> bool:
    """Isomorphism up to vertex and color relabeling, transitive or not.

    True only with a witness: a vertex map pi and a color map rho, checked
    as g2.masks[pi u][pi v] == rho(g1.masks[u][v]) on every pair. Raises
    PreconditionError when the search passes its node budget.
    """
    pi = find_isomorphism(*_incidence_graph(g1), *_incidence_graph(g2))
    if pi is None:
        return False
    n = g1.n
    rho = [pi[n + c] - n for c in range(g1.r)]  # color bit -> color bit
    image = {m: vertex_mask(rho[c] for c in iter_bits(m)) for m in g1.pair_masks()}
    for u in range(n):
        for v in range(u + 1, n):
            if g2.masks[pi[u]][pi[v]] != image[g1.masks[u][v]]:
                raise RyserError(f"internal invariant violated: isomorphism witness fails on pair ({u},{v})")
    return True
