"""Output checks that share no code with the constructions.

Each checker takes the ground truth the benchmark generated (label arrays,
edge lists, known plane parameters) and plain Python values taken from the
program's answer, and raises CheckFailed with a witness on the first
violation.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional


class CheckFailed(Exception):
    pass


Parts = list[tuple[int, frozenset[int]]]


def parts_of(cover) -> Parts:
    """(colour, vertex set) pairs of a ComponentCover, as plain values."""
    return [(c, frozenset(s)) for c, s in cover.parts]


def blocks(labels: list[list[int]]) -> list[set[frozenset[int]]]:
    """Per colour (0-based): the set of its blocks."""
    out = []
    for lab in labels:
        groups: dict[int, set[int]] = {}
        for v, x in enumerate(lab):
            groups.setdefault(x, set()).add(v)
        out.append({frozenset(g) for g in groups.values()})
    return out


def _whole_blocks(labels: list[list[int]], parts: Parts) -> None:
    r = len(labels)
    per_color = blocks(labels)
    for c, s in parts:
        if not 1 <= c <= r:
            raise CheckFailed(f"part colour {c} outside 1..{r}")
        if s not in per_color[c - 1]:
            raise CheckFailed(f"part of colour {c} with {len(s)} vertices is not a whole colour-{c} block")


def check_cover_t(labels: list[list[int]], t: int, parts: Parts) -> int:
    """Every part is a whole colour block, the union is V, at most r-t parts.
    Returns the number of parts."""
    r, n = len(labels), len(labels[0])
    _whole_blocks(labels, parts)
    covered = set().union(*(s for _, s in parts)) if parts else set()
    if len(covered) != n:
        missing = min(set(range(n)) - covered)
        raise CheckFailed(f"cover misses vertex {missing}")
    if len(parts) > r - t:
        raise CheckFailed(f"{len(parts)} parts exceed the budget r-t={r - t}")
    return len(parts)


def coverage_need(n: int, r: int) -> int:
    """ceil((1 - (r-2)/(r-1)^2) * n) in integer arithmetic."""
    den = (r - 1) ** 2
    return -(-(den - (r - 2)) * n // den)


def check_partial(labels: list[list[int]], parts: Parts, common: Optional[int]) -> int:
    """r-1 whole blocks of pairwise distinct colours through one common
    vertex, covering at least the bound. Returns the number covered."""
    r, n = len(labels), len(labels[0])
    _whole_blocks(labels, parts)
    colors = [c for c, _ in parts]
    if len(colors) != r - 1 or len(set(colors)) != r - 1:
        raise CheckFailed(f"colours {sorted(colors)} are not r-1={r - 1} distinct colours")
    if common is None or any(common not in s for _, s in parts):
        raise CheckFailed(f"vertex {common} is not common to every part")
    covered = len(set().union(*(s for _, s in parts)))
    need = coverage_need(n, r)
    if covered < need:
        raise CheckFailed(f"covers {covered} < ceil bound {need}")
    return covered


def check_blowup(witness, q: int, b: int) -> None:
    if witness is None:
        raise CheckFailed(f"blowup of AG(2,{q}) with b={b} not recognized")
    got = (witness.plane.q, witness.map.b)
    if got != (q, b):
        raise CheckFailed(f"recognized (q, b)={got}, generated ({q}, {b})")


def check_hitting(edges: Iterable[frozenset[str]], cover: Iterable[str]) -> int:
    """Every edge meets the cover. Returns the cover size."""
    chosen = set(cover)
    for i, e in enumerate(edges):
        if not e & chosen:
            raise CheckFailed(f"edge {i} {sorted(e)} is not hit")
    return len(chosen)


def check_ryser_window(tau: int, size: int, nu: int, r: int) -> None:
    """tau <= |T| <= (r-1) nu."""
    if not tau <= size <= (r - 1) * nu:
        raise CheckFailed(f"need tau={tau} <= |T|={size} <= (r-1)nu={(r - 1) * nu}")


def median(values: list[float]) -> float:
    s = sorted(values)
    k = len(s)
    return s[k // 2] if k % 2 else (s[k // 2 - 1] + s[k // 2]) / 2


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: list[float]) -> tuple[float, float]:
    """(p, value): the highest percentile of TAIL_LADDER with at least ten
    samples above it (p50 when there are fewer than twenty samples).
    Nearest-rank percentile."""
    s = sorted(values)
    k = len(s)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * k))
        if k - rank >= 10 or p == 50.0:
            return p, s[rank - 1]
    raise AssertionError("unreachable")
