"""Span recorder for the traced run, installed from outside the program.

``Tracer.install`` replaces each listed public function with a wrapper in
every ``ryser`` module namespace that holds it (the defining module and each
module that imported the name), so calls between modules are seen too. The
benchmark's own checks are wrapped the same way, under one span name. A
span is (id, parent id, instance id, name, start, end); spans stay in memory
until ``write``. Self time is a span's duration minus its children's. What
stays in the loop's own spans is time no wrapped function accounts for.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable

SPAN_COST_SAMPLES = 20000

# (module, attribute) of every wrapped public function, named in the
# per-layer metrics as "<module>.<attribute>".
TARGETS = (
    ("colored", "parse_cgf"),
    ("colored", "gyarfas_graph"),
    ("colored", "contract_full_color_classes"),
    ("colored", "is_valid_component_cover"),
    ("colored", "merge_color_components"),
    ("colored", "to_cgf"),
    ("hypergraph", "parse_hgf"),
    ("hypergraph", "validate"),
    ("hypergraph", "dual"),
    ("hypergraph", "to_hgf"),
    ("planes", "affine_plane"),
    ("planes", "blowup_graph"),
    ("tcover", "cover_t"),
    ("tcover", "lemma_cover"),
    ("partial", "partial_cover_distinct"),
    ("partial", "color_stats"),
    ("partial", "verify_counting_identities"),
    ("partial", "is_affine_blowup"),
    ("partial", "check_sharpness"),
    ("generators", "gen_transitive_colored"),
    ("generators", "gen_delta2"),
    ("oracles", "min_component_cover"),
    ("oracles", "max_partial_cover_distinct"),
    ("oracles", "tau_exact"),
    ("oracles", "nu_exact"),
    ("delta2", "reduce_dual"),
    ("delta2", "ryser_delta2"),
    ("delta2", "edge_cover_graph"),
    ("graphs", "max_independent_set"),
    ("graphs", "max_matching"),
)
# Constructor of the colouring class: the O(r n^2) component index build.
CLASS_TARGET = ("colored", "ColoredCompleteGraph")
# The benchmark's checks and ground-truth reads, all under CHECK_SPAN.
CHECK_TARGETS = (
    ("checks", "check_cover_t"),
    ("checks", "check_partial"),
    ("checks", "check_blowup"),
    ("checks", "check_hitting"),
    ("checks", "check_ryser_window"),
    ("checks", "parts_of"),
    ("instances", "cgf_labels"),
    ("instances", "hgf_edges"),
)
CHECK_SPAN = "bench.check"
BENCH_MODULES = ("checks", "instances", "workloads")
# Spans the timed loop opens itself; their self time is unattributed.
LOOP_SPANS = ("bench.run", "bench.instance")
# Unattributed time beyond the tracing overhead may be at most this share of
# the traced wall time: the loop's bookkeeping and the freeing of each
# instance's objects after its routine returns.
UNATTRIBUTED_SHARE = 0.02


class Tracer:
    def __init__(self):
        # [id, parent, instance, name, start, end]
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.pairs = 0
        self.instance = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self.instance, name, time.perf_counter(), 0.0])
        self._stack.append(sid)
        self.calls[name] = self.calls.get(name, 0) + 1
        return sid

    def close(self, sid: int) -> None:
        """End span sid and any span still open inside it (left open when a
        time limit interrupted the program between open and close)."""
        end = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            if not self.spans[top][5]:
                self.spans[top][5] = end
            if top == sid:
                break

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every ryser and benchmark module that refers to it."""
        mods = [m for k, m in sorted(sys.modules.items()) if m and (k.split(".")[0] == "ryser" or k in BENCH_MODULES)]
        named = [(f"ryser.{m}", a, f"{m}.{a}") for m, a in TARGETS] + [(m, a, CHECK_SPAN) for m, a in CHECK_TARGETS]
        for modname, attr, name in named:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, val))
                        setattr(mod, key, wrapped)
        cls = getattr(sys.modules[f"ryser.{CLASS_TARGET[0]}"], CLASS_TARGET[1])
        init = cls.__init__
        name = ".".join(CLASS_TARGET)
        tracer = self

        def traced_init(obj, *args, **kwargs):
            sid = tracer.open(name)
            try:
                init(obj, *args, **kwargs)
                tracer.pairs += obj.n * (obj.n - 1) // 2
            finally:
                tracer.close(sid)

        self._undo.append((cls, "__init__", init))
        cls.__init__ = traced_init

    def uninstall(self) -> None:
        while self._undo:
            obj, key, val = self._undo.pop()
            setattr(obj, key, val)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        dur = [max(0.0, s[5] - s[4]) for s in self.spans]
        own = dur[:]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= dur[s[0]]
        out: dict[str, float] = {}
        for s, x in zip(self.spans, own):
            out[s[3]] = out.get(s[3], 0.0) + x
        return out

    def attribution(self, wall_s: float, cost: float) -> tuple[float, float]:
        """(unattributed, allowed) seconds: the self time of the loop's own
        spans, which no wrapped function accounts for, and the most it may
        be, the tracing overhead (`cost` per span) plus UNATTRIBUTED_SHARE of
        the traced wall time `wall_s`."""
        own = self.self_times()
        loose = sum(own.get(name, 0.0) for name in LOOP_SPANS)
        return loose, cost * len(self.spans) + UNATTRIBUTED_SHARE * wall_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def span_cost() -> float:
    """Seconds one wrapped call adds over a direct call, measured here."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(SPAN_COST_SAMPLES):
        noop()
    t1 = time.perf_counter()
    for _ in range(SPAN_COST_SAMPLES):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / SPAN_COST_SAMPLES)

