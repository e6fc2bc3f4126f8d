"""Cover a transitive coloring where every pair carries >= t colors by at
most r - t monochromatic components, assuming r - 1 >= t > r/4.

The construction first contracts the full-color classes, once: a pair
inside a class carries all r > t colors and any other pair the colors of its
classes' smallest members, so the >= t hypothesis is checked on the
quotient's distinct pair masks (g is scanned only to name the first short
pair). The quotient, which has no full-color pair, is covered by a
dispatcher on the same masks and the cover is lifted back:

  * n <= 2: one component suffices.
  * some pair xy carries strictly between t and r colors: cover from the
    pair. With l = |col(xy)|, either r <= t + l and the components of x in
    the r - t smallest colors of col(xy) work, or j = floor((r-t-l)/2) extra
    colors J outside col(xy) are added and C(x, col(xy)) + C(x, J) + C(y, J)
    works (l + 2j <= r - t parts).
  * every pair carries exactly t colors and r <= 4t - 2: same shape from any
    pair, with J of size floor(r/2) - t when r > 2t.
  * every pair carries exactly t colors and r = 4t - 1: the triangle case.
    Take a triangle xyz maximizing the common color count k and split the
    color set into K (on all three edges; pairwise intersections equal K by
    transitivity), X/Y/Z (one edge each) and S (unused). k = 0 forces
    n <= r + 1 and a pairing cover; 0 < 3k <= t and 3k > t each have a fixed
    recipe of at most 3t - 1 = r - t components.

Every branch re-verifies coverage and raises HypothesisViolation with a
vertex witness if the input secretly breaches the hypotheses; part budgets
and the split invariants raise RyserError naming their values, never by
assert, so they also hold under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .colored import (
    ColoredCompleteGraph,
    ComponentCover,
    components_of,
    contract_full_color_classes,
    lift_cover,
)
from .errors import HypothesisViolation, PreconditionError, RyserError


@dataclass(frozen=True)
class LemmaPlan:
    """The pair-based recipe: base pair, its colors I, branch arithmetic."""

    x: int
    y: int
    ell: int                 # |col(x,y)|
    branch: str              # "within-I" or "I-plus-balanced-J"
    I: tuple[int, ...]       # colors of the base pair
    J: tuple[int, ...]       # extra colors (subset of I in the first branch)
    j: int                   # |J| in the second branch

    @property
    def part_budget(self) -> int:
        if self.branch == "within-I":
            return len(self.J)
        return self.ell + 2 * self.j


@dataclass(frozen=True)
class TrianglePartition:
    """Color split induced by a triangle xyz: K on all three edges, Z only on
    xy, Y only on xz, X only on yz, S on none of them."""

    x: int
    y: int
    z: int
    k: int
    K: tuple[int, ...]
    X: tuple[int, ...]
    Y: tuple[int, ...]
    Z: tuple[int, ...]
    S: tuple[int, ...]


def _check_common(g: ColoredCompleteGraph, t: int) -> None:
    if not g.transitive:
        raise PreconditionError("coloring is not transitive")
    if not 1 <= t <= g.r - 1:
        raise PreconditionError(f"need 1 <= t <= r-1, got t={t}, r={g.r}")
    if 4 * t <= g.r:
        raise PreconditionError(f"need t > r/4, got t={t}, r={g.r}")


def plan_lemma(r: int, t: int, colors_xy: tuple[int, ...], x: int = 0, y: int = 1) -> LemmaPlan:
    """Pick the branch and color sets for a base pair with colors I.

    Deterministic: J is the r - t smallest colors of I in the first branch,
    and the j smallest colors outside I in the second.
    """
    I = tuple(sorted(colors_xy))
    ell = len(I)
    if not t <= ell < r:
        raise PreconditionError(f"base pair must carry t..r-1 colors, has {ell}")
    if ell == t:
        if not t + 1 <= r <= 4 * t - 2:
            raise PreconditionError(f"exactly-t pair needs t+1 <= r <= 4t-2, got r={r}, t={t}")
        threshold = 2 * t
        j = r // 2 - t
    else:
        if not t + 1 <= r <= 4 * t - 1:
            raise PreconditionError(f"mixed pair needs t+1 <= r <= 4t-1, got r={r}, t={t}")
        threshold = t + ell
        j = (r - t - ell) // 2
    if r <= threshold:
        J = I[: r - t]
        return LemmaPlan(x, y, ell, "within-I", I, J, len(J))
    outside = tuple(c for c in range(1, r + 1) if c not in set(I))
    J = outside[:j]
    plan = LemmaPlan(x, y, ell, "I-plus-balanced-J", I, J, j)
    if plan.part_budget > r - t:
        raise RyserError(f"internal invariant violated: plan needs {plan.part_budget} parts > r-t={r - t}: {plan}")
    return plan


def lemma_cover(g: ColoredCompleteGraph, t: int, x: int, y: int) -> ComponentCover:
    """Cover from a base pair per plan_lemma; verifies full coverage.

    Callers guarantee the dispatcher context (no full-color pair; if
    |col(xy)| = t then every pair has exactly t colors). An uncovered vertex
    is reported with its color sets as a hypothesis violation.
    """
    plan = plan_lemma(g.r, t, tuple(g.col(x, y)), x, y)
    if plan.branch == "within-I":
        cover = components_of(g, x, plan.J)
    else:
        parts = list(components_of(g, x, plan.I + plan.J).parts)
        parts += list(components_of(g, y, plan.J).parts)
        cover = ComponentCover.build(parts)
    missed = sorted(set(range(g.n)) - cover.union())
    if missed:
        w = missed[0]
        raise HypothesisViolation(
            f"pair-based cover missed vertex {w}: col(x,w)={sorted(g.col(x, w))}, "
            f"col(y,w)={sorted(g.col(y, w))}, plan={plan}"
        )
    if cover.size > g.r - t:
        raise RyserError(f"internal invariant violated: pair cover has {cover.size} parts > r-t={g.r - t}, plan={plan}")
    return cover


def max_common_triangle(g: ColoredCompleteGraph) -> tuple[int, tuple[int, int, int]]:
    """Maximum over triangles of |col(xy) & col(yz) & col(zx)|, with the
    lexicographically smallest witness. Requires n >= 3."""
    if g.n < 3:
        raise PreconditionError("need at least three vertices")
    best_k = -1
    best = (0, 1, 2)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            mxy = g.masks[x][y]
            for z in range(y + 1, g.n):
                k = (mxy & g.masks[y][z] & g.masks[x][z]).bit_count()
                if k > best_k:
                    best_k, best = k, (x, y, z)
    return best_k, best


def triangle_partition(g: ColoredCompleteGraph, t: int, tri: tuple[int, int, int]) -> TrianglePartition:
    x, y, z = tri
    cxy, cyz, cxz = g.col(x, y), g.col(y, z), g.col(x, z)
    K = cxy & cyz & cxz
    # transitivity collapses pairwise intersections onto K
    if not cxy & cyz == cyz & cxz == cxy & cxz == K:
        raise HypothesisViolation(
            f"triangle {tri} is not transitive: col(x,y)={sorted(cxy)}, col(y,z)={sorted(cyz)}, "
            f"col(x,z)={sorted(cxz)} meet in more than their common colors {sorted(K)}"
        )
    X = cyz - K
    Y = cxz - K
    Z = cxy - K
    if not (len(cxy) == len(cyz) == len(cxz) == t):
        raise PreconditionError("witness triangle edges must carry exactly t colors")
    S = frozenset(range(1, g.r + 1)) - (K | X | Y | Z)
    return TrianglePartition(
        x, y, z, len(K),
        tuple(sorted(K)), tuple(sorted(X)), tuple(sorted(Y)), tuple(sorted(Z)), tuple(sorted(S)),
    )


def _pairing_cover(g: ColoredCompleteGraph, t: int) -> ComponentCover:
    """k = 0 case: incident pairs never share a color, so n <= r + 1; pair
    consecutive vertices and take one component per pair (smallest color)."""
    if g.n > g.r + 1:
        raise HypothesisViolation(
            f"no triangle shares a color yet n={g.n} > r+1={g.r + 1}; "
            "some incident pair must share a color by transitivity"
        )
    parts = []
    i = 0
    while i + 1 < g.n:
        c = min(g.col(i, i + 1))
        parts.append((c, g.component_of(i, c)))
        i += 2
    if g.n % 2 == 1:
        v = g.n - 1
        c = min(g.col(v - 1, v))
        parts.append((c, g.component_of(v, c)))
    cover = ComponentCover.build(parts)
    if cover.size > (g.r + 2) // 2:
        raise RyserError(f"internal invariant violated: pairing cover has {cover.size} parts > (r+2)/2={(g.r + 2) // 2}")
    return cover


def _take(budget: int, *pools: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Fill `budget` color slots from the pools in order, smallest colors first."""
    out = []
    for pool in pools:
        take = min(budget, len(pool))
        out.append(pool[:take])
        budget -= take
    if budget:
        raise RyserError(f"internal invariant violated: pools {pools} leave {budget} color slots unfilled")
    return out


def triangle_case_cover(
    g: ColoredCompleteGraph, t: int, k: int, tri: tuple[int, int, int]
) -> ComponentCover:
    """The r = 4t - 1 endgame, every pair carrying exactly t colors."""
    if g.r != 4 * t - 1:
        raise PreconditionError(f"triangle case needs r = 4t-1, got r={g.r}, t={t}")
    if k == 0:
        return _pairing_cover(g, t)
    part = triangle_partition(g, t, tri)
    if part.k != k:
        raise PreconditionError(f"triangle {tri} shares {part.k} colors, not k={k}")
    x, y, z = part.x, part.y, part.z
    if 3 * k <= t:
        yz_budget = t + k - 1
        Yp, Zp = _take(yz_budget, part.Y, part.Z)
        parts = list(components_of(g, x, part.K + part.Y + part.Z).parts)
        parts += list(components_of(g, y, Yp).parts)
        parts += list(components_of(g, z, Zp).parts)
    else:
        budget = min(2 * k - 1, 3 * (t - k))
        Xp, Yp, Zp = _take(budget, part.X, part.Y, part.Z)
        parts = list(components_of(g, x, part.K + Xp + part.Y + part.Z).parts)
        parts += list(components_of(g, y, Yp).parts)
        parts += list(components_of(g, z, part.X + Zp).parts)
    cover = ComponentCover.build(parts)
    missed = sorted(set(range(g.n)) - cover.union())
    if missed:
        w = missed[0]
        cyw, czw = g.col(y, w), g.col(z, w)
        # k was chosen maximal over all triangles, so any other pair of
        # edges at a common vertex shares at most k colors; check it while
        # we are diagnosing, it pins down how the input broke the hypotheses.
        overlap_ok = len(cyw & czw) <= k
        raise HypothesisViolation(
            f"triangle cover missed vertex {w}: col(x,w)={sorted(g.col(x, w))}, "
            f"col(y,w)={sorted(cyw)}, col(z,w)={sorted(czw)}, split={part}, "
            f"|col(y,w) & col(z,w)| <= k holds: {overlap_ok}"
        )
    if cover.size > 3 * t - 1:
        raise RyserError(f"internal invariant violated: triangle cover has {cover.size} parts > 3t-1={3 * t - 1}, split={part}")
    return cover


def cover_t(g: ColoredCompleteGraph, t: int, trace: Optional[list[str]] = None) -> ComponentCover:
    """At most r - t monochromatic components covering all of V.

    Preconditions (each checked, named on failure): transitive coloring,
    every pair with >= t colors, r - 1 >= t > r/4.
    """
    _check_common(g, t)
    cover = _dispatch(g, t, trace if trace is not None else [])
    if cover.covered_count != g.n:
        raise RyserError(f"internal invariant violated: cover reaches {cover.covered_count} of {g.n} vertices")
    if cover.size > g.r - t:
        raise RyserError(f"internal invariant violated: {cover.size} parts exceed r-t={g.r - t}")
    return cover


def _dispatch(g: ColoredCompleteGraph, t: int, trace: list[str]) -> ComponentCover:
    """Contract once, check the >= t hypothesis on the quotient, cover the
    quotient and lift the cover back."""
    quotient, mapping = contract_full_color_classes(g)
    # a pair inside a class carries all r > t colors, any other pair the
    # mask of its classes' smallest members: the quotient's distinct masks
    values = quotient.pair_masks()
    if any(x.bit_count() < t for x in values):
        u, v = next((u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.masks[u][v].bit_count() < t)
        raise PreconditionError(f"pair ({u},{v}) carries fewer than t={t} colors")
    if quotient is g:
        return _cover_quotient(g, t, values, trace)
    trace.append(f"contracted {g.n} -> {quotient.n} vertices")
    return lift_cover(_cover_quotient(quotient, t, values, trace), mapping)


def _cover_quotient(g: ColoredCompleteGraph, t: int, values: set[int], trace: list[str]) -> ComponentCover:
    """Cover a graph with no full-color pair; values are its pair masks."""
    if g.n <= 2:
        c = 1 if g.n == 1 else min(g.col(0, 1))
        trace.append(f"base case n={g.n}: single component of color {c}")
        return ComponentCover.build([(c, g.component_of(0, c))])
    full = (1 << g.r) - 1
    if full in values:
        u, v = next((u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.masks[u][v] == full)
        raise RyserError(f"internal invariant violated: pair ({u},{v}) of the quotient carries all {g.r} colors")
    if any(t < x.bit_count() for x in values):
        mixed = next((u, v) for u in range(g.n) for v in range(u + 1, g.n) if t < g.masks[u][v].bit_count())
        trace.append(f"pair {mixed} carries {g.masks[mixed[0]][mixed[1]].bit_count()} > t colors")
        return lemma_cover(g, t, *mixed)
    # every pair carries exactly t colors from here on
    if g.r <= 4 * t - 2:
        trace.append("all pairs exactly t, r <= 4t-2: cover from pair (0,1)")
        return lemma_cover(g, t, 0, 1)
    k, tri = max_common_triangle(g)
    trace.append(f"triangle case r=4t-1: k={k} at {tri}")
    return triangle_case_cover(g, t, k, tri)
