"""Stated guarantees still raise when Python runs with -O (asserts stripped)."""

import subprocess
import sys

_PLANTED = """
from dataclasses import replace

from ryser import ColoredCompleteGraph, Hypergraph, cover_t, gen_delta2, gen_transitive_colored, partial_cover_distinct
from ryser import delta2, partial, tcover, verify_counting_identities
from ryser.colored import ComponentCover, monochromatic_components
from ryser.errors import RyserError

if __debug__:
    raise SystemExit("asserts are on: not running under -O")
g = gen_transitive_colored(8, 5, 2, seed=1)
every = [(c, comp) for c in range(1, g.r + 1) for comp in monochromatic_components(g).of_color(c)]
dispatch, candidates, spans = tcover._dispatch, partial._partial_candidates, partial.components_of
tcover._dispatch = lambda g, t, trace: ComponentCover.build(every)  # spans V, far over r - t
short = ComponentCover.build([(c, g.component_of(0, c)) for c in (1, 2)], common_vertex=0)
partial._partial_candidates = lambda g: short  # 2 colors where r - 1 = 4 are due
stats = partial.color_stats
partial.color_stats = lambda g: replace(stats(g), multi_pairs=stats(g).multi_pairs + 1)
delta2.nu_exact = lambda h, **gates: 0  # no cover fits (r-1)*0
clones = ColoredCompleteGraph.from_labels([[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]])  # 0, 1 share all 3 colors
tcover.contract_full_color_classes = lambda g: (g, None)  # nothing contracts
lonely = ColoredCompleteGraph.from_labels([[0] * 8, [0] * 8, [0] * 7 + [7]])  # 7 is alone in color 3
partial.components_of = lambda g, x, cs: ComponentCover.build([(c, s - {0}) for c, s in spans(g, x, cs).parts], x)
degrees = Hypergraph.degrees


def overfull():
    Hypergraph.degrees = lambda h: {**degrees(h), "v0": 3}  # v0 claims a third edge
    try:
        gen_delta2(3, 4, seed=1, mode="chain")
    finally:
        Hypergraph.degrees = degrees


runs = (
    ("cover_t", lambda: cover_t(g, 2)),
    ("partial", lambda: partial_cover_distinct(g)),
    ("counting", lambda: verify_counting_identities(g)),
    ("delta2", lambda: delta2.ryser_delta2(Hypergraph(3, [["a", "b", "c"]]))),
    ("quotient", lambda: dispatch(clones, 1, [])),
    ("shortcut", lambda: candidates(lonely)),
    ("gen_delta2", overfull),
)
for name, run in runs:
    try:
        run()
    except RyserError as exc:
        print(name, "raised:", exc)
    else:
        print(name, "returned")
"""


def test_planted_guarantee_failures_raise_under_dash_o():
    p = subprocess.run([sys.executable, "-O", "-c", _PLANTED], capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    assert lines[0].startswith("cover_t raised:") and "exceed r-t=3" in lines[0], lines
    assert lines[1].startswith("partial raised:") and "r-1=4 distinct colors" in lines[1], lines
    assert lines[2] == "counting raised: single-color pair count fails", lines
    assert lines[3].startswith("delta2 raised:") and "exceeds (r-1)*nu=0" in lines[3], lines
    assert lines[4] == "quotient raised: internal invariant violated: pair (0,1) of the quotient carries all 3 colors", lines
    assert lines[5].startswith("shortcut raised:") and "color 3 is missing at vertex 7" in lines[5], lines
    assert lines[5].endswith("reaches 7 of 8 vertices"), lines
    assert lines[6] == "gen_delta2 raised: internal invariant violated: vertex v0 lies in 3 edges", lines


_CRITERION = """
from ryser import acceptance

if __debug__:
    raise SystemExit("asserts are on: not running under -O")
acceptance.isomorphic_colored = lambda g1, g2: False
result = acceptance.criterion_9()
print(result.ok, result.detail)
"""


def test_a_criterion_fails_under_dash_o():
    p = subprocess.run([sys.executable, "-O", "-c", _CRITERION], capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "False CriterionFailed: q=2: not isomorphic\n"
