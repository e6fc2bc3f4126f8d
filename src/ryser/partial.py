"""Covers by r - 1 monochromatic components of pairwise different colors.

Any transitive coloring admits r - 1 such components, all through one common
vertex, covering at least (1 - (r-2)/(r-1)^2) * n vertices. The construction
tries, in order:

  (a) non-spanning shortcut: a vertex v missing color i entirely is covered
      together with everything else by C(v, [r] - {i});
  (b) a color with a single component spans V, so C(x, [r] - {j}) for x
      arbitrary and j != that color covers everything (for r = 2 this is the
      folklore spanning-component fact: one of the two colors is connected);
  (c) otherwise two candidates are evaluated and the better one returned:
      - pick colors a (most components, k_a maximal) and b != a (fewest),
        take the pair (C, C') in colors (a, b) minimizing |C - C'|; the
        minimizing pair intersects, and for x in the intersection,
        C(x, [r] - {a}) misses only part of C - C';
      - pick (v, i) minimizing d_i(v) = #{u : col(uv) = {i}}; the cover
        C(v, [r] - {i}) misses exactly those u. The least key (d_i(v), i, v)
        is searched over the smallest members of the full-color classes in
        increasing order (d is constant on a class), each d_i(v) read from
        v's component bitmasks; a key (0, 1, v) ends the search, as no
        degree is below 0 and no color below 1, and every earlier vertex
        has already been keyed.
      Whichever case hypothesis holds (k_max >= r-1 / all k_i <= r-1), its
      candidate meets the bound, so the max does.

The bound is tight exactly on clone-blowups of affine planes; this module
also recognizes those (is_affine_blowup) and packages the sharpness verdict
(check_sharpness). All bound arithmetic is exact (fractions.Fraction).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .colored import ColoredCompleteGraph, ComponentCover, components_of, full_color_classes, monochromatic_components
from .errors import PreconditionError, RyserError
from .graphs import vertex_mask
from .oracles import max_partial_cover_distinct
from .planes import AffinePlane, BlowupMap, verify_affine_axioms


@dataclass(frozen=True)
class ColorStats:
    """Per-color counting data.

    k[i-1]: number of components of color i. gammas[i-1]: their sizes.
    m[i-1]: number of pairs colored exactly {i}. d[i-1][v]: number of
    vertices joined to v by such a pair. big_m[i-1]: number of pairs inside
    color-i components (M_i). multi_pairs: pairs carrying >= 2 colors.
    """

    n: int
    r: int
    k: tuple[int, ...]
    gammas: tuple[tuple[int, ...], ...]
    m: tuple[int, ...]
    d: tuple[tuple[int, ...], ...]
    big_m: tuple[int, ...]
    multi_pairs: int


def color_stats(g: ColoredCompleteGraph) -> ColorStats:
    """The counting data by definition, one pass over all n(n-1)/2 pairs.

    verify_counting_identities and the tests read it; the constructions do
    not (the min-degree candidate reads component bitmasks instead)."""
    index = monochromatic_components(g)
    k = tuple(index.k(c) for c in range(1, g.r + 1))
    gammas = tuple(index.sizes(c) for c in range(1, g.r + 1))
    big_m = tuple(sum(s * (s - 1) // 2 for s in sizes) for sizes in gammas)
    m = [0] * g.r
    d = [[0] * g.n for _ in range(g.r)]
    multi = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            mask = g.masks[u][v]
            if mask.bit_count() == 1:
                c = mask.bit_length() - 1
                m[c] += 1
                d[c][u] += 1
                d[c][v] += 1
            else:
                multi += 1
    return ColorStats(g.n, g.r, k, gammas, tuple(m), tuple(tuple(row) for row in d), big_m, multi)


def verify_counting_identities(g: ColoredCompleteGraph) -> ColorStats:
    """Exact counting facts every transitive coloring satisfies.

    For every ordered color pair (i, j):  sum over C in color i, C' in color
    j of |C - C'| equals (k_j - 1) * n  (color j's components partition V).
    For every color i:  M_i >= n^2 / (2 k_i) - n / 2  (power mean on the
    component sizes) and  sum_v d_i(v) = 2 m_i;  overall  sum_i m_i =
    C(n, 2) - multi_pairs.  Raises RyserError with the first failure.
    """
    st = color_stats(g)
    index = monochromatic_components(g)
    comp_masks = [[vertex_mask(comp) for comp in index.of_color(c)] for c in range(1, g.r + 1)]
    for i in range(g.r):
        for j in range(g.r):
            if i == j:
                continue
            total = sum(
                (ci & ~cj).bit_count() for ci in comp_masks[i] for cj in comp_masks[j]
            )
            if total != (st.k[j] - 1) * g.n:
                raise RyserError(
                    f"difference-count identity fails for colors ({i + 1},{j + 1}): "
                    f"{total} != ({st.k[j]}-1)*{g.n}"
                )
    for i in range(g.r):
        lhs = Fraction(st.big_m[i])
        rhs = Fraction(g.n * g.n, 2 * st.k[i]) - Fraction(g.n, 2)
        if lhs < rhs:
            raise RyserError(f"component-pair lower bound fails for color {i + 1}: {lhs} < {rhs}")
        if sum(st.d[i]) != 2 * st.m[i]:
            raise RyserError(f"degree sum fails for color {i + 1}")
    if sum(st.m) != g.n * (g.n - 1) // 2 - st.multi_pairs:
        raise RyserError("single-color pair count fails")
    return st


def coverage_bound(n: int, r: int) -> Fraction:
    """(1 - (r-2)/(r-1)^2) * n, exactly."""
    return (1 - Fraction(r - 2, (r - 1) ** 2)) * n


def partial_cover_distinct(g: ColoredCompleteGraph) -> ComponentCover:
    """r - 1 components of pairwise different colors through a common vertex,
    covering at least coverage_bound(n, r) vertices (guaranteed, checked)."""
    if not g.transitive:
        raise PreconditionError("coloring is not transitive")
    if g.r < 2:
        raise PreconditionError("need r >= 2 colors")
    cover = _partial_candidates(g)
    colors = [c for c, _ in cover.parts]
    if len(colors) != g.r - 1 or len(set(colors)) != g.r - 1:
        raise RyserError(f"internal invariant violated: cover colors {colors} are not r-1={g.r - 1} distinct colors")
    if cover.common_vertex is None:
        raise RyserError("internal invariant violated: cover has no common vertex")
    bound = math.ceil(coverage_bound(g.n, g.r))
    if cover.covered_count < bound:
        raise RyserError(f"internal invariant violated: cover reaches {cover.covered_count} < {bound} vertices")
    return cover


def _partial_candidates(g: ColoredCompleteGraph) -> ComponentCover:
    index = monochromatic_components(g)
    # (a) a color missing at some vertex covers everything; color i is
    # missing at v exactly when v's color-i component is {v}
    alone = [{min(comp) for comp in index.of_color(c) if len(comp) == 1} for c in range(1, g.r + 1)]
    lonely = set().union(*alone)
    if lonely:
        v = min(lonely)
        i = next(c for c in range(1, g.r + 1) if v in alone[c - 1])
        cover = components_of(g, v, [c for c in range(1, g.r + 1) if c != i])
        _require_spanning(g, cover, f"color {i} is missing at vertex {v}")
        return cover
    k = [index.k(c) for c in range(1, g.r + 1)]
    # (b) a spanning component: keep its color, drop any other
    for i, ki in enumerate(k, start=1):
        if ki == 1:
            j = next(c for c in range(1, g.r + 1) if c != i)
            cover = components_of(g, 0, [c for c in range(1, g.r + 1) if c != j])
            _require_spanning(g, cover, f"color {i} has a single component")
            return cover
    if g.r == 2:
        # folklore: some color of a 2-coloring spans, so (a) or (b) returned
        raise RyserError("internal invariant violated: 2-coloring with no spanning component")
    cand = [_candidate_component_pair(g, index, k), _candidate_min_degree(g)]
    cand.sort(key=lambda cv: -cv.covered_count)
    return cand[0]


def _require_spanning(g: ColoredCompleteGraph, cover: ComponentCover, why: str) -> None:
    """The spanning shortcuts (a) and (b) cover every vertex."""
    if cover.covered_count != g.n:
        raise RyserError(
            f"internal invariant violated: {why}, yet the cover at vertex {cover.common_vertex} "
            f"reaches {cover.covered_count} of {g.n} vertices"
        )


def _candidate_component_pair(g: ColoredCompleteGraph, index, k: list[int]) -> ComponentCover:
    a = max(range(1, g.r + 1), key=lambda c: (k[c - 1], -c))
    b = min((c for c in range(1, g.r + 1) if c != a), key=lambda c: (k[c - 1], c))
    best = None
    for ca in index.of_color(a):
        for cb in index.of_color(b):
            diff = len(ca - cb)
            key = (diff, min(ca), min(cb))
            if best is None or key < best[0]:
                best = (key, ca, cb)
    (diff, min_a, min_b), ca, cb = best
    inter = ca & cb
    # a disjoint minimizing pair is impossible: C(x, b) for x in ca meets ca
    if not inter:
        raise RyserError(
            f"internal invariant violated: the components of colors ({a},{b}) at vertices "
            f"{min_a} and {min_b} minimize |C - C'| = {diff} but are disjoint"
        )
    x = min(inter)
    return components_of(g, x, [c for c in range(1, g.r + 1) if c != a])


def _candidate_min_degree(g: ColoredCompleteGraph) -> ComponentCover:
    """C(v, [r] - {i}) for the least key (d_i(v), i, v).

    u counts in d_i(v) when it lies in v's color-i component and in none of
    v's other components, so d_i(v) is read off v's r component bitmasks,
    and it is the same for every vertex of v's full-color class: only each
    class's smallest member is keyed, in increasing order, and the search
    ends at the first key (0, 1, v), which nothing can beat."""
    masks: dict[tuple[int, int], int] = {}  # (color, label) -> component bitmask
    best = (g.n, 0, 0)  # above every key: d_i(v) < n
    for v in (members[0] for members in full_color_classes(g).values()):
        comps = []
        for c in range(1, g.r + 1):
            key = (c, g.labels[c - 1][v])
            if key not in masks:
                masks[key] = vertex_mask(g.component_of(v, c))
            comps.append(masks[key])
        once = twice = 0
        for m in comps:
            twice |= once & m
            once |= m
        for i, m in enumerate(comps, start=1):
            best = min(best, ((m & ~twice).bit_count(), i, v))
        if best[:2] == (0, 1):
            break
    _, i, v = best
    return components_of(g, v, [c for c in range(1, g.r + 1) if c != i])


# -- sharpness ----------------------------------------------------------------


@dataclass(frozen=True)
class AffineBlowupWitness:
    plane: AffinePlane
    map: BlowupMap


@dataclass(frozen=True)
class SharpnessReport:
    """bound = ceil of the exact coverage bound; oracle_max = true optimum
    over distinct-color covers; is_sharp iff they agree AND the bound is an
    integer; non-integral ties fall outside the blowup characterization."""

    is_sharp: bool
    bound: int
    oracle_max: int
    bound_integral: bool
    blowup: Optional[AffineBlowupWitness]


def is_affine_blowup(g: ColoredCompleteGraph) -> Optional[AffineBlowupWitness]:
    """Recognize clone-blowups of affine planes; None when any condition
    fails.

    Checks, in order: every color has exactly r - 1 components; every pair
    carries 1 or r colors; n = b * (r-1)^2 for integral b; every cross-color
    component intersection has exactly b vertices; the full-color classes
    (the clone groups) number (r-1)^2 and sit inside components one class
    per color; the resulting point/line structure satisfies all five affine
    axioms with order r - 1, with lines disjoint exactly when they share a
    color.
    """
    if not g.transitive or g.r < 3:
        return None
    r = g.r
    index = monochromatic_components(g)
    if any(index.k(c) != r - 1 for c in range(1, r + 1)):
        return None
    full = (1 << r) - 1
    if any(x != full and x.bit_count() != 1 for x in g.pair_masks()):
        return None
    if g.n % (r - 1) ** 2 != 0:
        return None
    b = g.n // (r - 1) ** 2
    comps = [(c, comp) for c in range(1, r + 1) for comp in index.of_color(c)]
    for (c1, a), (c2, bb) in itertools.combinations(comps, 2):
        if c1 != c2 and len(a & bb) != b:
            return None
    # clone groups: classes of the all-colors relation
    groups = list(full_color_classes(g).values())
    group_of = {v: gi for gi, grp in enumerate(groups) for v in grp}
    if len(groups) != (r - 1) ** 2 or any(len(grp) != b for grp in groups):
        return None
    point_names = tuple(f"P{gi}" for gi in range(len(groups)))
    lines: list[frozenset[str]] = []
    line_color: list[int] = []
    for c, comp in comps:
        gids = {group_of[v] for v in comp}
        if sum(len(groups[gi]) for gi in gids) != len(comp):
            return None  # a clone group straddles a component boundary
        lines.append(frozenset(point_names[gi] for gi in gids))
        line_color.append(c)
    for i, j in itertools.combinations(range(len(lines)), 2):
        same_color = line_color[i] == line_color[j]
        if bool(lines[i] & lines[j]) == same_color:
            return None
    if verify_affine_axioms(point_names, lines, order=r - 1):
        return None
    classes = []
    pos = 0
    for c in range(1, r + 1):
        cnt = index.k(c)
        classes.append(tuple(range(pos, pos + cnt)))
        pos += cnt
    plane = AffinePlane(r - 1, point_names, tuple(lines), tuple(classes))
    f = tuple(point_names[group_of[v]] for v in range(g.n))
    return AffineBlowupWitness(plane, BlowupMap(b, f))


def check_sharpness(g: ColoredCompleteGraph, max_tuples: int = 10_000_000) -> SharpnessReport:
    """Compare the exact distinct-color optimum with the coverage bound.

    is_sharp demands equality at an integral bound; a sharp instance must be
    recognized as an affine-plane blowup (raises otherwise, that would
    contradict the characterization). Non-integral equality is reported as
    outside the characterization, not sharp.
    """
    if not g.transitive:
        raise PreconditionError("coloring is not transitive")
    if g.r < 2:
        raise PreconditionError("need r >= 2 colors")
    exact = coverage_bound(g.n, g.r)
    bound = math.ceil(exact)
    oracle = max_partial_cover_distinct(g, max_tuples=max_tuples)
    integral = exact.denominator == 1
    is_sharp = integral and oracle.covered_count == bound
    witness = is_affine_blowup(g) if is_sharp else None
    if is_sharp and witness is None:
        raise RyserError(
            "characterization violated: coverage bound attained with equality "
            "but the coloring is not an affine-plane blowup"
        )
    return SharpnessReport(is_sharp, bound, oracle.covered_count, integral, witness)
