"""Seeded instance ladders for the three workloads.

Everything here runs before timing starts. The same (workload, seed) gives
byte-identical instance text: randomness comes from ``random.Random`` seeded
with the string ``"perfbench/<workload>/<seed>"`` (string seeds hash through
SHA-512, so they do not depend on PYTHONHASHSEED), and per-instance seeds for
the program's own generators are drawn from that stream.

Colourings built here come with their ground truth: ``labels[c][v]`` is the
block of vertex v in colour c+1. A transitive colouring *is* that system of
r partitions, so the checkers in ``checks.py`` work from the labels alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("colored-large", "certify-small", "delta2-ladder")

# colored-large ladder: (n, copies) for every r, t the smallest integer
# above r/4. The n=200 copies make 40 instances, enough for a p75 tail
# (ten instances beyond it), and put both p50 and p75 inside classes of
# like instances rather than on a jump between size classes.
LARGE_N = ((200, 10), (400, 1), (800, 1))
LARGE_R = (5, 7, 9)
# Affine-plane blowups (q, b): n = b * q^2 in 147..400.
LARGE_BLOWUPS = ((5, 6), (7, 3), (5, 16), (7, 8))

# certify-small ladder.
SMALL_N = (5, 8, 10, 12, 16, 20, 24)
SMALL_BLOWUPS = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1))
SMALL_DELTA2 = 24  # criterion-7 style instances per round, m <= 12

# delta2-ladder rungs: (mode, r, m). The large rung never reaches the
# independent-set search. The hang rung straddles its cliff: chain m=40
# finishes in ~0.2 s, mixed m=40 in milliseconds, and two instances never
# finish: chain m=60 (chain mode draws no randomness) and the pinned mixed
# m=200 instance with generator seed 1. Seeded mixed instances near the
# cliff finish or not depending on the seed, so they would make the
# timeout count a property of the seed rather than of the code.
DELTA2_LARGE = (("cycle", 3, 1000), ("disjoint", 3, 1000), ("cycle", 3, 4000), ("disjoint", 3, 4000))
DELTA2_HANG = (("chain", 3, 40, None), ("mixed", 3, 40, None), ("mixed", 3, 40, None), ("chain", 3, 60, None), ("mixed", 3, 200, 1))
DELTA2_SMALL = 640
DELTA2_MODES = ("mixed", "cycle", "chain", "disjoint")

# Per-instance time limits, in reference seconds of CPU time (refclock.py),
# so a timeout costs the same on a slow and on a fast host. The hang rung's
# limit is what turns the known max_independent_set cliff into recorded
# timeouts; chain m=40, the slowest instance that finishes, takes 0.2-0.5 s.
# The small rung's limit applies to the program and, separately, to the
# certification: the exhaustive tau_exact runs past the limit (for more
# than 30 s on some) on a few seeded m=18, r=5 instances (delta2-ladder
# seed 3 has three among its 640), and such an instance is recorded as uncertified, not as a program
# failure. Other small instances take at most ~0.1 s. The default only
# guards the run against a new hang.
HANG_LIMIT_S = 1.5
SMALL_LIMIT_S = 0.5
DEFAULT_LIMIT_S = 30.0


@dataclass
class Instance:
    """One unit of work. ``kind`` selects the routine in workloads.py."""

    kind: str
    name: str
    text: str = ""
    fmt: str = ""  # "cgf" or "hgf" for text the program parses
    n: int = 0
    r: int = 0
    t: int = 0
    q: int = 0
    b: int = 0
    m: int = 0
    seed: int = 0
    mode: str = ""
    merge: Optional[tuple[int, int, int]] = None
    labels: Optional[list[list[int]]] = None
    edges: Optional[list[frozenset[str]]] = None
    limit_s: float = DEFAULT_LIMIT_S
    rung: str = ""


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def min_t(r: int) -> int:
    """Smallest t with t > r/4."""
    return r // 4 + 1


# -- colourings from label arrays ---------------------------------------------


def transitive_labels(rng: random.Random, n: int, r: int, t: int) -> list[list[int]]:
    """r label arrays in which every two vertices agree on >= t coordinates.

    Each vertex copies a centre tuple on ceil((r+t)/2) random coordinates,
    so two vertices share at least 2*ceil((r+t)/2) - r >= t of them. Colour
    c draws from a label count fixed by (n, r, c), spread from 2 to sqrt(n):
    block sizes drive the cost of the program's O(n^2) scans, so a random
    count would make run time a property of the seed. A label held by one
    vertex only is moved onto the centre, so every vertex sees every colour
    and no colour spans V.
    """
    keep = -(-(r + t) // 2)
    top = max(2, math.isqrt(n))
    sizes = [2 + c * (top - 2) // max(1, r - 1) for c in range(r)]
    centre = [rng.randrange(s) for s in sizes]
    labels = [[0] * n for _ in range(r)]
    for v in range(n):
        agree = set(rng.sample(range(r), keep))
        for c in range(r):
            labels[c][v] = centre[c] if c in agree else rng.randrange(sizes[c])
    for c in range(r):
        count: dict[int, int] = {}
        for x in labels[c]:
            count[x] = count.get(x, 0) + 1
        for v in range(n):
            if count[labels[c][v]] == 1:
                labels[c][v] = centre[c]
    return labels


def blowup_labels(q: int, b: int) -> list[list[int]]:
    """Labels of the b-fold blowup of AG(2, q), q prime.

    Vertex v lies over point (x, y) = divmod(v // b, q). Colour m+1 (m < q)
    is the parallel class of slope m, whose line through (x, y) is
    y - m*x mod q; colour q+1 is the vertical class, line x.
    """
    n = b * q * q
    labels = [[0] * n for _ in range(q + 1)]
    for v in range(n):
        x, y = divmod(v // b, q)
        for m in range(q):
            labels[m][v] = (y - m * x) % q
        labels[q][v] = x
    return labels


def labels_to_cgf(labels: list[list[int]]) -> str:
    r, n = len(labels), len(labels[0])
    lines = [f"colored n {n} r {r}"]
    for u in range(n):
        row = [lab[u] for lab in labels]
        for v in range(u + 1, n):
            cols = ",".join(str(c + 1) for c in range(r) if labels[c][v] == row[c])
            lines.append(f"e {u} {v} {cols}")
    return "\n".join(lines) + "\n"


def labels_to_hgf(labels: list[list[int]]) -> str:
    """One hyperedge per vertex, its class-c vertex named by its colour-c
    label; the Gyarfas graph of this hypergraph is the labelled colouring."""
    r, n = len(labels), len(labels[0])
    lines = [f"r {r}"]
    for c in range(r):
        names = " ".join(f"c{c + 1}_{x}" for x in sorted(set(labels[c])))
        lines.append(f"class {c + 1} {names}")
    for v in range(n):
        lines.append("edge " + " ".join(f"c{c + 1}_{labels[c][v]}" for c in range(r)))
    return "\n".join(lines) + "\n"


def cgf_labels(text: str) -> list[list[int]]:
    """Ground-truth labels read back from CGF text of a transitive colouring:
    vertex v's colour-c label is the smallest u joined to v in colour c (or
    v itself). Shares no code with the program's parser."""
    n = r = 0
    pairs: list[tuple[int, int, list[int]]] = []
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0] == "#":
            continue
        if toks[0] == "colored":
            n, r = int(toks[2]), int(toks[4])
        elif toks[0] == "e":
            pairs.append((int(toks[1]), int(toks[2]), [int(c) for c in toks[3].split(",")]))
    labels = [list(range(n)) for _ in range(r)]
    for u, v, cols in pairs:  # u < v, in increasing u order
        for c in cols:
            if labels[c - 1][u] < labels[c - 1][v]:
                labels[c - 1][v] = labels[c - 1][u]
    return labels


def hgf_edges(text: str) -> list[frozenset[str]]:
    """Edge list read back from HGF text, independent of the program's parser."""
    return [frozenset(line.split()[1:]) for line in text.splitlines() if line.startswith("edge ")]


# -- the three ladders ----------------------------------------------------------


def spread(heavy: list[Instance], light: list[Instance], copies: int) -> list[Instance]:
    """A round of attempts: `copies` passes over the light instances, with
    the heavy ones spaced evenly between them.

    Each light instance's time is the median of its attempts, made at
    different times in the round.
    """
    attempts = light * copies
    out: list[Instance] = []
    for k, inst in enumerate(heavy):
        out += attempts[k * len(attempts) // len(heavy) : (k + 1) * len(attempts) // len(heavy)]
        out.append(inst)
    return out


def colored_large(seed: int) -> list[Instance]:
    """The ladder's colourings, CGF and HGF alternating in build order (18 of
    each), plus four affine-plane blowups as CGF; the n=200 colourings are
    attempted three times per round."""
    from ryser.colored import to_cgf
    from ryser.planes import affine_plane, blowup_graph

    rng = workload_rng("colored-large", seed)
    out = []
    for n, copies in LARGE_N:
        for r in LARGE_R:
            for _ in range(copies):
                t = min_t(r)
                labels = transitive_labels(rng, n, r, t)
                fmt = "cgf" if len(out) % 2 == 0 else "hgf"
                text = labels_to_cgf(labels) if fmt == "cgf" else labels_to_hgf(labels)
                out.append(Instance("colored", f"n{n}-r{r}-{fmt}", text, fmt, n=n, r=r, t=t, labels=labels))
    for q, b in LARGE_BLOWUPS:
        labels = blowup_labels(q, b)
        text = labels_to_cgf(labels)
        if to_cgf(blowup_graph(affine_plane(q), b)) != text:
            raise RuntimeError(f"planes.blowup_graph(q={q}, b={b}) disagrees with its label arrays")
        out.append(Instance("blowup", f"blowup-q{q}-b{b}", text, "cgf", n=len(labels[0]), r=q + 1, q=q, b=b, labels=labels))
    return spread([i for i in out if i.n != 200], [i for i in out if i.n == 200], 3)


def certify_small(seed: int) -> list[Instance]:
    """Acceptance-style differential loop. The program's own generators build
    these inside the timed loop from the seeds drawn here."""
    rng = workload_rng("certify-small", seed)
    out = []
    for r in range(2, 8):
        for t in range(1, r):
            if 4 * t <= r:
                continue
            for n in SMALL_N:
                out.append(Instance("tcover", f"n{n}-r{r}-t{t}", n=n, r=r, t=t, seed=rng.getrandbits(32)))
    for q, b in SMALL_BLOWUPS:
        out.append(Instance("sharp", f"blowup-q{q}-b{b}", q=q, b=b))
        color = rng.randrange(q + 1) + 1
        a, bb = sorted(rng.sample(range(q), 2))
        out.append(Instance("sharp", f"coarsened-q{q}-b{b}", q=q, b=b, merge=(color, a, bb)))
    for i in range(SMALL_DELTA2):
        r = 3 + i % 3
        m = 1 + (i * 5) % 12
        out.append(Instance("ryser-bound", f"delta2-r{r}-m{m}", r=r, m=m, mode=DELTA2_MODES[i % 4], seed=rng.getrandbits(32)))
    return out


def delta2_ladder(seed: int) -> list[Instance]:
    from ryser.generators import gen_delta2
    from ryser.hypergraph import to_hgf

    rng = workload_rng("delta2-ladder", seed)
    out = []

    def add(rung: str, mode: str, r: int, m: int, limit: float, pinned: Optional[int] = None) -> None:
        s = rng.getrandbits(32) if pinned is None else pinned
        text = to_hgf(gen_delta2(r, m, s, mode=mode))
        out.append(
            Instance("delta2", f"{rung}-{mode}-r{r}-m{m}", text, "hgf", r=r, m=m, seed=s, mode=mode,
                     edges=hgf_edges(text), limit_s=limit, rung=rung)
        )

    for mode, r, m in DELTA2_LARGE:
        add("large", mode, r, m, DEFAULT_LIMIT_S)
    for mode, r, m, pinned in DELTA2_HANG:
        add("hang", mode, r, m, HANG_LIMIT_S, pinned)
    for i in range(DELTA2_SMALL):
        add("small", DELTA2_MODES[i % 4], 3 + i % 3, 4 + (i * 7) % 21, SMALL_LIMIT_S)
    return spread([i for i in out if i.rung != "small"], [i for i in out if i.rung == "small"], 1)


LADDERS = {"colored-large": colored_large, "certify-small": certify_small, "delta2-ladder": delta2_ladder}


def build(workload: str, seed: int) -> list[Instance]:
    return LADDERS[workload](seed)
