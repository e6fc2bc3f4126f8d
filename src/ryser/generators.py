"""Seeded instance generators. Identical arguments give identical output on
every platform: randomness comes from SplitMix64, not the stdlib.

SplitMix64 contract (any language reproduces the stream):
    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state;  z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output z xor (z >> 31)
randrange(n) draws 64-bit words, rejecting those >= floor(2^64 / n) * n,
and returns draw mod n (unbiased). Batches derive per-instance seeds as
seed + index; nothing is shared between instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .colored import MAX_COLORS, ColoredCompleteGraph, _blocks
from .errors import PreconditionError, RyserError
from .hypergraph import Hypergraph

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        bound = (_MASK + 1) // n * n
        while True:
            x = self.next_u64()
            if x < bound:
                return x % n

    def choice(self, seq: Sequence):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def gen_transitive_colored(n: int, r: int, min_colors: int, seed: int) -> ColoredCompleteGraph:
    """Random transitive coloring in which every pair has >= min_colors colors.

    Each color starts as a random partition of the vertices. While some pair
    is short (shares fewer than min_colors colors), the lexicographically
    first short pair u < v has its two blocks merged in the color where the
    merge fixes the most short pairs, ties to the lowest color.

    count[v] packs one byte field per vertex w, holding 128 - min_colors
    plus the number of colors v and w share, so a field's top bit is set iff
    the pair has enough colors (fields stay below 256 for r <= 30). A merge
    of blocks S and T in color c adds T's packed indicator to count[w] for
    each w in S, and S's for each w in T.
    - First short pair: counts only grow, so it only moves forward. A
      cursor over u reads the lowest clear top bit above u in count[u];
      the cursor passes each u once.
    - Score of color c: the number of short pairs between u's and v's
      blocks, one popcount per member of the smaller block against the
      larger block's top bits.
    Only the partition matters (blocks are relabeled by their smallest
    vertex at the end), so the smaller block takes the larger one's label.
    Each merge gives the chosen pair one more color, so the loop terminates;
    a 10*r*n + 10 iteration guard raises RyserError on a regression.
    """
    if n < 2:
        raise PreconditionError("need n >= 2")
    if not 1 <= r <= MAX_COLORS:
        raise PreconditionError(f"r must be in 1..{MAX_COLORS}, got {r}")
    if not 1 <= min_colors < r:
        raise PreconditionError(f"need 1 <= min_colors < r, got {min_colors}, r={r}")
    rng = SplitMix64(seed)
    labels = []
    for _ in range(r):
        nblocks = 1 + rng.randrange(n)
        labels.append([rng.randrange(nblocks) for _ in range(n)])
    members = [_blocks(row) for row in labels]
    # packed[c][x]: a 1 in the byte field of each member of color c's block x
    packed = [{x: sum(1 << 8 * v for v in vs) for x, vs in b.items()} for b in members]
    ones = int.from_bytes(b"\x01" * n, "little")
    top = ones << 7
    base = (128 - min_colors) * ones
    count = [base + sum(packed[c][labels[c][v]] for c in range(r)) for v in range(n)]

    guard = 10 * r * n + 10
    iters = 0
    u = 0
    while True:
        while u < n - 1:
            short = (top & ~count[u]) >> 8 * (u + 1)
            if short:
                break
            u += 1
        else:
            break
        iters += 1
        if iters > guard:
            raise RyserError("repair loop exceeded its iteration guard")
        v = u + (short & -short).bit_length() // 8
        # u, v share fewer than min_colors < r colors, so some color
        # separates them and scores at least 1 (the pair itself)
        best, best_c = 0, 0
        for c in range(r):
            xu, xv = labels[c][u], labels[c][v]
            if xu == xv:
                continue
            if len(members[c][xu]) > len(members[c][xv]):
                xu, xv = xv, xu
            other = packed[c][xv] << 7
            gain = sum((other & ~count[w]).bit_count() for w in members[c][xu])
            if gain > best:
                best, best_c = gain, c
        c = best_c
        keep, gone = labels[c][u], labels[c][v]
        if len(members[c][keep]) < len(members[c][gone]):
            keep, gone = gone, keep
        for w in members[c][keep]:
            count[w] += packed[c][gone]
        for w in members[c][gone]:
            count[w] += packed[c][keep]
            labels[c][w] = keep
        members[c][keep] += members[c].pop(gone)
        packed[c][keep] += packed[c].pop(gone)
    return ColoredCompleteGraph.from_labels(labels)


def gen_t_intersecting_hypergraph(
    r: int, t: int, m: int, class_size: int, seed: int, max_attempts_per_edge: int = 500
) -> tuple[Hypergraph, bool]:
    """Random r-partite t-intersecting hypergraph by rejection sampling.

    Classes are "c{i}_{j}" tokens, i in 1..r, j < class_size. Edges pick one
    vertex per class; a candidate is kept iff it shares >= t positions with
    every edge so far. Returns (hypergraph, reached) where reached is False
    when the attempt budget ran out before m edges (the result still has
    every accepted edge). Class vertices may remain unused by every edge.
    """
    if not 1 <= t < r:
        raise PreconditionError(f"need 1 <= t < r, got t={t}, r={r}")
    if class_size < 2:
        raise PreconditionError("need class_size >= 2")
    if m < 1:
        raise PreconditionError("need m >= 1")
    rng = SplitMix64(seed)
    classes = [[f"c{i}_{j}" for j in range(class_size)] for i in range(1, r + 1)]
    picked: list[tuple[int, ...]] = []
    budget = max_attempts_per_edge * m
    while len(picked) < m and budget > 0:
        budget -= 1
        cand = tuple(rng.randrange(class_size) for _ in range(r))
        if all(sum(1 for i in range(r) if cand[i] == e[i]) >= t for e in picked):
            picked.append(cand)
    edges = [[classes[i][e[i]] for i in range(r)] for e in picked]
    return Hypergraph(r, edges, classes=classes), len(picked) == m


def gen_delta2(r: int, m: int, seed: int, mode: str = "mixed") -> Hypergraph:
    """Random r-uniform hypergraph with every vertex in at most two edges.

    Modes: "disjoint" (m pairwise disjoint edges), "chain" (consecutive
    edges share one vertex), "cycle" (a chain closed up; its dual graph is
    the m-cycle), "mixed" (seed-driven blend: each new edge shares 0, 1 or 2
    once-used vertices with what exists). Vertices are "v0", "v1", ...
    """
    if r < 2:
        raise PreconditionError(f"need r >= 2, got r={r}")
    if m < 1:
        raise PreconditionError("need m >= 1")
    if mode not in ("mixed", "disjoint", "chain", "cycle"):
        raise PreconditionError(f"unknown mode {mode!r}")
    rng = SplitMix64(seed)
    counter = 0

    def fresh(k: int) -> list[str]:
        nonlocal counter
        out = [f"v{counter + i}" for i in range(k)]
        counter += k
        return out

    edges: list[list[str]] = []
    if mode == "disjoint" or m == 1:
        for _ in range(m):
            edges.append(fresh(r))
    elif mode == "chain":
        shared = fresh(m - 1)
        for i in range(m):
            e = ([shared[i - 1]] if i > 0 else []) + ([shared[i]] if i < m - 1 else [])
            edges.append(e + fresh(r - len(e)))
    elif mode == "cycle":
        # edge i holds shared[i-1 mod m] and shared[i]; for m == 2 the two
        # edges share both vertices, still degree 2 everywhere
        if r == 2 and m == 2:
            raise PreconditionError("2-uniform cycle needs m >= 3")
        shared = fresh(m)
        for i in range(m):
            e = list(dict.fromkeys([shared[(i - 1) % m], shared[i]]))
            edges.append(e + fresh(r - len(e)))
    else:
        open_vertices: list[str] = []  # used exactly once so far
        for _ in range(m):
            roll = rng.randrange(100)
            share = 0
            if roll >= 40 and open_vertices:
                share = 1
            if roll >= 80 and len(open_vertices) >= 2:
                share = 2
            chosen: list[str] = []
            pool = open_vertices[:]
            for _ in range(share):
                v = pool.pop(rng.randrange(len(pool)))
                chosen.append(v)
            e = chosen + fresh(r - len(chosen))
            for v in chosen:
                open_vertices.remove(v)
            open_vertices += e[len(chosen):]
            edges.append(e)
    h = Hypergraph(r, edges)
    for e in h.edges:
        if len(e) != r:
            raise RyserError(f"internal invariant violated: edge {sorted(e)} has {len(e)} vertices, not r={r}")
    for v, d in h.degrees().items():
        if d > 2:
            raise RyserError(f"internal invariant violated: vertex {v} lies in {d} edges")
    return h


_GEN_FIELDS = {
    "random-colored": ("n", "r", "min_colors"),
    "random-hyp": ("r", "t", "m", "class_size"),
    "random-delta2": ("r", "m", "mode"),
}


@dataclass(frozen=True)
class GenConfig:
    """Frozen argument record for one seeded generator call.

    kind picks the generator (keys of _GEN_FIELDS, same names the CLI
    uses); only the fields that generator reads may be set. Equal configs
    give identical output: each call drives a private SplitMix64 stream
    from seed alone.
    """

    kind: str
    seed: int
    n: Optional[int] = None
    r: Optional[int] = None
    t: Optional[int] = None
    m: Optional[int] = None
    class_size: Optional[int] = None
    min_colors: Optional[int] = None
    mode: Optional[str] = None


def generate(cfg: GenConfig):
    """Dispatch one GenConfig; the return type is the chosen generator's."""
    if cfg.kind not in _GEN_FIELDS:
        raise PreconditionError(f"unknown generator kind {cfg.kind!r}")
    needed = _GEN_FIELDS[cfg.kind]
    for f in needed:
        if getattr(cfg, f) is None:
            raise PreconditionError(f"{cfg.kind} needs {f}")
    for f in ("n", "r", "t", "m", "class_size", "min_colors", "mode"):
        if f not in needed and getattr(cfg, f) is not None:
            raise PreconditionError(f"{cfg.kind} does not take {f}")
    if cfg.kind == "random-colored":
        return gen_transitive_colored(cfg.n, cfg.r, cfg.min_colors, cfg.seed)
    if cfg.kind == "random-hyp":
        return gen_t_intersecting_hypergraph(cfg.r, cfg.t, cfg.m, cfg.class_size, cfg.seed)
    return gen_delta2(cfg.r, cfg.m, cfg.seed, mode=cfg.mode)
