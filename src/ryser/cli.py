"""Command-line front end.

Subcommands parse HGF/CGF from a file (or '-' for stdin), run the library,
and emit either human-readable text or a versioned JSON report. Reports are
deterministic for fixed input and flags, except for the "timings" block.

Exit codes: 0 success, 1 broken internal claim (assertion, incomplete
constructed cover, selftest failure), 2 input or usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from typing import Optional

from . import acceptance
from .colored import (
    ColoredCompleteGraph,
    gyarfas_graph,
    parse_cgf,
    to_cgf,
    transitive_closure,
)
from .delta2 import ryser_delta2
from .errors import FormatError, HypothesisViolation, PreconditionError, RyserError
from .generators import GenConfig, generate
from .hypergraph import Hypergraph, parse_hgf, to_hgf, validate
from .oracles import (
    alpha_exact,
    alpha_prime_exact,
    max_partial_cover_distinct,
    min_component_cover,
    nu_exact,
    parameters_exact,
    rho_exact,
    tau_exact,
)
from .partial import check_sharpness, coverage_bound, partial_cover_distinct
from .planes import affine_plane, blowup_graph, truncated_projective_plane
from .tcover import cover_t


def _read_text(path: str) -> tuple[str, str]:
    """Returns (content, sha256 hex digest)."""
    if path == "-":
        data = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = fh.read()
    return data, hashlib.sha256(data.encode("utf-8")).hexdigest()


def _write_text(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


def _report(command: str, input_sha: str, outputs: dict, checks: dict, started: float) -> dict:
    return {
        "schema": 1,
        "command": command,
        "input_sha256": input_sha,
        "outputs": outputs,
        "checks": checks,
        "timings": {"total_s": round(time.perf_counter() - started, 6)},
    }


def _emit(args, report: dict, text_lines: list[str]) -> int:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)
    return 0


def _parts_payload(cover) -> list[dict]:
    return [{"color": c, "vertices": sorted(s)} for c, s in cover.parts]


def _parts_lines(cover) -> list[str]:
    return [
        f"  color {c}: " + " ".join(str(v) for v in sorted(s))
        for c, s in cover.parts
    ]


# -- subcommand handlers -------------------------------------------------------


def _cmd_analyze(args) -> int:
    started = time.perf_counter()
    text, sha = _read_text(args.input)
    h = parse_hgf(text)
    violations = [str(v) for v in validate(h)]
    p = parameters_exact(h, max_vertices=args.max_vertices, max_edges=args.max_edges)
    outputs = {
        "n": h.n,
        "m": h.m,
        "r": h.r,
        "violations": violations,
        "parameters": {
            "tau": p.tau,
            "nu": p.nu,
            "rho": p.rho,
            "delta": p.delta,
            "alpha": p.alpha,
            "alpha_prime": p.alpha_prime,
            "t_level": p.t_level,
        },
    }
    checks = {"ryser_bound": p.tau <= (h.r - 1) * p.nu if h.r >= 2 else True}
    lines = [
        f"n={h.n} m={h.m} r={h.r}",
        f"tau={p.tau} nu={p.nu} rho={p.rho} delta={p.delta} alpha={p.alpha} alpha'={p.alpha_prime} t={p.t_level}",
        f"tau <= (r-1)nu: {'yes' if checks['ryser_bound'] else 'NO'}",
    ]
    if violations:
        lines.append("violations:")
        lines += [f"  {v}" for v in violations]
    return _emit(args, _report("analyze", sha, outputs, checks, started), lines)


def _cmd_gyarfas(args) -> int:
    started = time.perf_counter()
    text, sha = _read_text(args.input)
    h = parse_hgf(text)
    g = gyarfas_graph(h)
    if isinstance(g, ColoredCompleteGraph):
        artifact = to_cgf(g)
        outputs = {"complete": True, "n": g.n, "r": g.r, "disjoint_pair": None, "artifact": artifact}
        checks = {"transitive": g.transitive}
        lines: list[str] = []
        if not args.json:
            _write_text(args.output, artifact)
        return _emit(args, _report("gyarfas", sha, outputs, checks, started), lines)
    i, j = g.disjoint_witness
    outputs = {"complete": False, "n": g.n, "r": g.r, "disjoint_pair": [i, j], "artifact": None}
    lines = [f"not intersecting: edges {i} and {j} are disjoint; no complete coloring"]
    return _emit(args, _report("gyarfas", sha, outputs, {}, started), lines)


def _cmd_closure(args) -> int:
    started = time.perf_counter()
    text, sha = _read_text(args.input)
    g = parse_cgf(text)
    out = transitive_closure(g)
    changed = sum(
        1
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.masks[u][v] != out.masks[u][v]
    )
    artifact = to_cgf(out)
    outputs = {"n": out.n, "r": out.r, "changed_pairs": changed, "artifact": artifact}
    checks = {"transitive": out.transitive}
    if not args.json:
        _write_text(args.output, artifact)
    return _emit(args, _report("closure", sha, outputs, checks, started), [])


def _cmd_cover_t(args) -> int:
    started = time.perf_counter()
    text, sha = _read_text(args.input)
    g = parse_cgf(text)
    if args.closure:
        g = transitive_closure(g)
    trace: list[str] = []
    cover = cover_t(g, args.t, trace=trace)
    outputs = {
        "t": args.t,
        "size": cover.size,
        "budget": g.r - args.t,
        "covered": cover.covered_count,
        "n": g.n,
        "parts": _parts_payload(cover),
        "trace": trace,
    }
    checks = {"covers_all": cover.covered_count == g.n, "within_budget": cover.size <= g.r - args.t}
    lines = [f"cover with {cover.size} parts (budget r-t = {g.r - args.t}), covers {cover.covered_count}/{g.n}"]
    lines += _parts_lines(cover)
    return _emit(args, _report("cover-t", sha, outputs, checks, started), lines)


def _cmd_cover_partial(args) -> int:
    started = time.perf_counter()
    text, sha = _read_text(args.input)
    g = parse_cgf(text)
    cover = partial_cover_distinct(g)
    bound = coverage_bound(g.n, g.r)
    need = -(-bound.numerator // bound.denominator)
    outputs = {
        "size": cover.size,
        "covered": cover.covered_count,
        "n": g.n,
        "bound": str(bound),
        "bound_ceil": need,
        "common_vertex": cover.common_vertex,
        "parts": _parts_payload(cover),
    }
    checks = {
        "distinct_colors": len({c for c, _ in cover.parts}) == g.r - 1,
        "meets_bound": cover.covered_count >= need,
    }
    lines = [
        f"{cover.size} components of pairwise distinct colors through vertex {cover.common_vertex}",
        f"covered {cover.covered_count}/{g.n}, guaranteed bound ceil({bound}) = {need}",
    ]
    lines += _parts_lines(cover)
    return _emit(args, _report("cover-partial", sha, outputs, checks, started), lines)


def _cmd_sharp(args) -> int:
    started = time.perf_counter()
    text, sha = _read_text(args.input)
    g = parse_cgf(text)
    rep = check_sharpness(g, max_tuples=args.max_tuples)
    blowup = None
    if rep.blowup is not None:
        blowup = {"q": rep.blowup.plane.q, "b": rep.blowup.map.b}
    outputs = {
        "is_sharp": rep.is_sharp,
        "bound": str(rep.bound),
        "bound_integral": rep.bound_integral,
        "oracle_max": rep.oracle_max,
        "blowup": blowup,
    }
    checks = {"sharp_implies_blowup": (not rep.is_sharp) or blowup is not None}
    lines = [
        f"isSharp {'true' if rep.is_sharp else 'false'}, bound {rep.bound}, best partial cover {rep.oracle_max}",
    ]
    if blowup is not None:
        lines.append(f"affine blowup recognized: order q={blowup['q']}, multiplicity b={blowup['b']}")
    return _emit(args, _report("sharp", sha, outputs, checks, started), lines)


def _cmd_delta2(args) -> int:
    started = time.perf_counter()
    text, sha = _read_text(args.input)
    h = parse_hgf(text)
    cover = ryser_delta2(h, verify=not args.no_verify)
    outputs = {"size": len(cover), "cover": list(cover), "n": h.n, "m": h.m, "r": h.r}
    chosen = set(cover)
    checks = {"covers_all_edges": not any(chosen.isdisjoint(e) for e in h.edges)}
    lines = [f"cover of size {len(cover)}: " + " ".join(cover)]
    return _emit(args, _report("delta2", sha, outputs, checks, started), lines)


_HYP_ORACLES = {"tau", "nu", "rho", "alpha", "alphaprime"}


def _cmd_oracle(args) -> int:
    started = time.perf_counter()
    text, sha = _read_text(args.input)
    kind = args.kind
    if kind in _HYP_ORACLES:
        h = parse_hgf(text)
        fn = {
            "tau": tau_exact,
            "nu": nu_exact,
            "rho": rho_exact,
            "alpha": alpha_exact,
            "alphaprime": alpha_prime_exact,
        }[kind]
        value = fn(h, max_vertices=args.max_vertices, max_edges=args.max_edges)
        outputs = {"kind": kind, "value": value}
        lines = [f"{kind} = {value}"]
    elif kind == "mincover":
        g = parse_cgf(text)
        cover = min_component_cover(g, max_total_components=args.max_components)
        outputs = {"kind": kind, "value": cover.size, "parts": _parts_payload(cover)}
        lines = [f"mincover = {cover.size}"] + _parts_lines(cover)
    else:  # maxpartial
        g = parse_cgf(text)
        cover = max_partial_cover_distinct(g, max_tuples=args.max_tuples)
        outputs = {"kind": kind, "value": cover.covered_count, "parts": _parts_payload(cover)}
        lines = [f"maxpartial = {cover.covered_count}"] + _parts_lines(cover)
    return _emit(args, _report("oracle", sha, outputs, {}, started), lines)


def _param_sha(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cfg_params(cfg: GenConfig) -> dict:
    return {k: v for k, v in dataclasses.asdict(cfg).items() if v is not None}


def _cmd_gen(args) -> int:
    started = time.perf_counter()
    kind = args.kind
    checks: dict = {}
    if kind == "plane":
        params = {"kind": kind, "q": args.q, "affine": args.affine}
        if args.affine:
            plane = affine_plane(args.q)
            h = Hypergraph(plane.q, [sorted(l) for l in plane.lines])
            artifact = to_hgf(h, comment=f"affine plane of order {args.q}: lines as edges")
        else:
            artifact = to_hgf(
                truncated_projective_plane(args.q),
                comment=f"truncated projective plane, q={args.q}",
            )
    elif kind == "blowup":
        params = {"kind": kind, "q": args.q, "b": args.b}
        g = blowup_graph(affine_plane(args.q), args.b)
        artifact = to_cgf(g, comment=f"blowup of the affine plane of order {args.q}, b={args.b}")
    elif kind == "random-colored":
        cfg = GenConfig(kind, args.seed, n=args.n, r=args.r, min_colors=args.min_colors)
        params = _cfg_params(cfg)
        g = generate(cfg)
        artifact = to_cgf(g, comment=f"seeded transitive coloring, every pair >= {args.min_colors} colors")
    elif kind == "random-hyp":
        cfg = GenConfig(kind, args.seed, r=args.r, t=args.t, m=args.m, class_size=args.class_size)
        params = _cfg_params(cfg)
        h, reached = generate(cfg)
        checks["reached_m"] = reached
        artifact = to_hgf(h, comment=f"seeded {args.t}-intersecting r-partite instance")
    else:  # random-delta2
        cfg = GenConfig(kind, args.seed, r=args.r, m=args.m, mode=args.mode)
        params = _cfg_params(cfg)
        h = generate(cfg)
        artifact = to_hgf(h, comment=f"seeded max-degree-2 instance, mode {args.mode}")
    outputs = {"params": params, "artifact": artifact}
    if not args.json:
        _write_text(args.output, artifact)
    return _emit(args, _report("gen", _param_sha(params), outputs, checks, started), [])


def _cmd_selftest(args) -> int:
    started = time.perf_counter()
    results = acceptance.run_all(verbose=not args.json)
    ok = all(r.ok for r in results)
    if args.json:
        outputs = {
            "results": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "detail": r.detail,
                    "seconds": round(r.seconds, 3),
                    "budget": r.budget,
                }
                for r in results
            ]
        }
        print(json.dumps(_report("selftest", _param_sha({}), outputs, {"all_ok": ok}, started), indent=2))
    else:
        print(f"{sum(r.ok for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


# -- argument parsing ----------------------------------------------------------


def _add_io(p: argparse.ArgumentParser, output: bool = False) -> None:
    p.add_argument("input", help="input file, or '-' for stdin")
    if output:
        p.add_argument("-o", "--output", default="-", help="artifact destination, '-' for stdout")
    p.add_argument("--json", action="store_true", help="machine-readable report on stdout")


def _add_hyp_limits(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-vertices", type=int, default=40, help="exact-solver vertex limit")
    p.add_argument("--max-edges", type=int, default=64, help="exact-solver edge limit")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ryser",
        description="Constructive covers for intersecting colorings, sharp partial covers, "
        "bounded-degree hypergraph covers, and the exact oracles checking them.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="validate an HGF instance and compute exact parameters")
    _add_io(p)
    _add_hyp_limits(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gyarfas", help="HGF -> CGF: color edge pairs by shared class vertices")
    _add_io(p, output=True)
    p.set_defaults(func=_cmd_gyarfas)

    p = sub.add_parser("closure", help="CGF -> CGF: close each color's components into cliques")
    _add_io(p, output=True)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("cover-t", help="cover all vertices with <= r-t monochromatic components")
    _add_io(p)
    p.add_argument("--t", type=int, required=True, help="guaranteed common colors per pair (t > r/4)")
    p.add_argument("--closure", action="store_true", help="apply the transitive closure first")
    p.set_defaults(func=_cmd_cover_t)

    p = sub.add_parser("cover-partial", help="r-1 distinct-color components through one vertex")
    _add_io(p)
    p.set_defaults(func=_cmd_cover_partial)

    p = sub.add_parser("sharp", help="compare the best partial cover against the coverage bound")
    _add_io(p)
    p.add_argument("--max-tuples", type=int, default=10_000_000, help="oracle enumeration cap")
    p.set_defaults(func=_cmd_sharp)

    p = sub.add_parser("delta2", help="vertex cover of size <= (r-1)*nu when every degree is <= 2")
    _add_io(p)
    p.add_argument("--no-verify", action="store_true", help="skip the (r-1)*nu certification")
    p.set_defaults(func=_cmd_delta2)

    p = sub.add_parser("oracle", help="exact parameters by exhaustive search")
    p.add_argument("kind", choices=sorted(_HYP_ORACLES) + ["mincover", "maxpartial"])
    _add_io(p)
    _add_hyp_limits(p)
    p.add_argument("--max-components", type=int, default=64, help="mincover candidate limit")
    p.add_argument("--max-tuples", type=int, default=10_000_000, help="maxpartial enumeration cap")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="write a seeded or structured instance")
    gsub = p.add_subparsers(dest="kind", required=True)

    g = gsub.add_parser("plane", help="truncated projective plane (HGF); --affine for the plane itself")
    g.add_argument("--q", type=int, required=True, help="plane order (2,3,4,5,7,8,9)")
    g.add_argument("--affine", action="store_true", help="emit the affine plane's lines instead")
    g.add_argument("-o", "--output", default="-")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("blowup", help="blowup coloring of the affine plane (CGF)")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--b", type=int, required=True, help="clones per point")
    g.add_argument("-o", "--output", default="-")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("random-colored", help="seeded transitive coloring (CGF)")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--min-colors", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default="-")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("random-hyp", help="seeded t-intersecting r-partite hypergraph (HGF)")
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--class-size", type=int, default=3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default="-")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("random-delta2", help="seeded hypergraph with max degree 2 (HGF)")
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--mode", choices=["mixed", "cycle", "chain", "disjoint"], default="mixed")
    g.add_argument("-o", "--output", default="-")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_selftest)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FormatError, PreconditionError, FileNotFoundError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HypothesisViolation, AssertionError, RyserError) as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
