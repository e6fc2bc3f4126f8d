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

from .colored import ColoredCompleteGraph
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

    Each color starts as a random partition of the vertices; while some pair
    is short of colors, the lexicographically first deficient pair has its
    two blocks merged in the color where the merge helps the most deficient
    pairs (ties to the lowest color). Each merge fixes the chosen pair in
    one color, so the loop terminates; a 10*r*n iteration guard catches
    regressions.
    """
    if n < 2:
        raise PreconditionError("need n >= 2")
    if not 1 <= min_colors < r:
        raise PreconditionError(f"need 1 <= min_colors < r, got {min_colors}, r={r}")
    rng = SplitMix64(seed)
    block = []
    for _ in range(r):
        nblocks = 1 + rng.randrange(n)
        block.append([rng.randrange(nblocks) for _ in range(n)])

    count = [[0] * n for _ in range(n)]  # shared colors per pair, u < v
    deficient: set[tuple[int, int]] = set()
    for u in range(n):
        for v in range(u + 1, n):
            c = sum(1 for cc in range(r) if block[cc][u] == block[cc][v])
            count[u][v] = c
            if c < min_colors:
                deficient.add((u, v))

    guard = 10 * r * n + 10
    iters = 0
    while deficient:
        iters += 1
        if iters > guard:
            raise RyserError("repair loop exceeded its iteration guard")
        u, v = min(deficient)
        best = None
        for c in range(r):
            bu, bv = block[c][u], block[c][v]
            if bu == bv:
                continue
            gain = 0
            for a, b in deficient:
                x, y = block[c][a], block[c][b]
                if (x == bu and y == bv) or (x == bv and y == bu):
                    gain += 1
            if best is None or gain > best[0]:
                best = (gain, c)
        assert best is not None
        _, c = best
        bu, bv = block[c][u], block[c][v]
        src = [w for w in range(n) if block[c][w] == bu]
        dst = [w for w in range(n) if block[c][w] == bv]
        for w in dst:
            block[c][w] = bu
        for a in src:
            for b in dst:
                x, y = (a, b) if a < b else (b, a)
                count[x][y] += 1
                if count[x][y] == min_colors:
                    deficient.discard((x, y))
    return ColoredCompleteGraph.from_labels(block)


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
    assert all(len(e) == r for e in h.edges)
    assert h.max_degree() <= 2
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
