"""Command-line front door: generators, solvers, verifiers, converters.

All file formats are line-oriented text.  Exit codes: 0 verified success,
2 verified-invalid, 3 fallback or incomplete result, 4 rejected input (a
malformed or unreadable file, or a value a command cannot use, reported
as one line `monocover: error: <message>` on stderr).  Flags only; no
configuration files or environment variables.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .covers import format_cover, parse_cover, verify_cover
from .generators import GeneratorSpec, generate
from .graphs import DISCONNECTED, format_colouring, parse_colouring
from .grid import (GridPointSet, bounded_degree_search, classify_independent4,
                   classify_independent5, colouring_from_points, cover_G3,
                   format_points, parse_points, points_from_colouring)
from .layers import build_layer_mapping
from .oracle import exhaustive_colouring_scan
from .solver import BRANCH_FALLBACK, solve4
from .twocolour import (MonoSpanning, bipartite_two_colour, erdos_rado_cover,
                        multipartite_two_colour)

OK, INVALID, INCOMPLETE, REJECTED = 0, 2, 3, 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    params = {}
    if args.kind == "random-uniform":
        params = {"n": args.n, "k": args.k, "seed": args.seed}
    elif args.kind == "layered-adversarial":
        params = {"seed": args.seed, "variant": args.variant}
    elif args.kind == "section5-example":
        params = {"n": args.n, "seed": args.seed}
    elif args.kind == "from-points":
        params = {"points": parse_points(_read(args.points))}
    colouring = generate(GeneratorSpec(args.kind, params))
    _write(args.output, format_colouring(colouring))
    return OK


def _cmd_solve(args) -> int:
    colouring = parse_colouring(_read(args.colouring))
    if args.lemma:
        return _solve_lemma(args, colouring)
    cover, trace = solve4(colouring)
    bound = math.inf if trace.branch == BRANCH_FALLBACK else 160
    report = verify_cover(colouring, cover, bound=bound, max_parts=3)
    _write(args.output, format_cover(cover))
    if args.trace:
        payload = trace.to_json()
        payload["parts"] = [
            {"colour": p.colour, "size": len(p.vertices),
             "diameter": repr(r.diameter)}
            for p, r in zip(cover.parts, report.parts)]
        payload["valid"] = report.valid
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"branch {trace.branch} parts {len(cover.parts)} valid {report.valid}")
    if trace.branch == BRANCH_FALLBACK:
        return INCOMPLETE
    return OK if report.valid else INVALID


def _solve_lemma(args, colouring) -> int:
    if args.lemma == "2cols":
        c = erdos_rado_cover(colouring)
        from .graphs import set_diameter
        print(f"colour {c} diameter {set_diameter(colouring, c, range(colouring.n))}")
        return OK
    if args.lemma == "2colsbip":
        out = bipartite_two_colour(colouring)
        if isinstance(out, MonoSpanning):
            print(f"mono-spanning colour {out.colour} diameter {out.diameter}")
        else:
            print("split colour_aa", out.colour_aa)
            for name, part in (("A1", out.a1), ("B1", out.b1),
                               ("A2", out.a2), ("B2", out.b2)):
                print(f"  {name}: {' '.join(map(str, sorted(part)))}")
        return OK
    if args.lemma == "mult2col":
        res = multipartite_two_colour(colouring)
        print(f"colour {res.colour} bound {res.bound} diameter {res.diameter}")
        return OK
    raise ValueError(f"unknown lemma {args.lemma!r}")


def _cmd_verify(args) -> int:
    colouring = parse_colouring(_read(args.colouring))
    cover = parse_cover(_read(args.cover))
    bound = cover.claimed_bound if args.bound is None else args.bound
    report = verify_cover(colouring, cover, bound=bound,
                          max_parts=args.max_parts)
    for i, part in enumerate(report.parts):
        diam = "disconnected" if part.diameter is DISCONNECTED else part.diameter
        print(f"part {i}: connected {part.connected} diameter {diam}")
    print(f"uncovered {sorted(report.uncovered)}")
    print(f"valid {report.valid}")
    return OK if report.valid else INVALID


def _cmd_layers(args) -> int:
    colouring = parse_colouring(_read(args.colouring))
    seeds = [int(tok) for tok in args.seed.split(",")] if args.seed else []
    lm = build_layer_mapping(colouring, args.c1, args.c2, seeds=seeds,
                             value_policy=args.policy)
    print("D1 D2 size")
    for point in lm.points:
        print(f"{point[0]} {point[1]} {len(lm.layer(point))}")
    return OK


def _cmd_grid(args) -> int:
    if args.grid_cmd == "cover":
        ps = parse_points(_read(args.points))
        parts = cover_G3(ps)
        for part in parts:
            members = " ".join(",".join(map(str, p)) for p in sorted(part.members))
            if part.kind == "hyperplane":
                print(f"hyperplane axis {part.axis} value {part.value}: {members}")
            else:
                print(f"connected: {members}")
        return OK
    if args.grid_cmd == "classify":
        ps = parse_points(_read(args.points))
        pts = sorted(ps.points)
        if len(pts) == 4:
            print(classify_independent4(pts))
        elif len(pts) == 5:
            print(classify_independent5(pts))
        else:
            raise ValueError("classification needs 4 or 5 points")
        return OK
    if args.grid_cmd == "search":
        res = bounded_degree_search(args.l, args.d, args.m, mode=args.mode,
                                    budget=args.budget)
        print(f"size {res.size} complete {res.complete} explored {res.explored}")
        print("witness " + " ".join(",".join(map(str, p)) for p in res.witness))
        return OK if res.complete else INCOMPLETE
    raise ValueError(f"unknown grid command {args.grid_cmd!r}")


def _cmd_convert(args) -> int:
    if args.direction == "points2col":
        ps = parse_points(_read(args.source))
        colouring, _ = colouring_from_points(ps)
        _write(args.dest, format_colouring(colouring))
        return OK
    if args.direction == "col2points":
        colouring = parse_colouring(_read(args.source))
        ps, _ = points_from_colouring(colouring)
        _write(args.dest, format_points(ps))
        return OK
    raise ValueError(f"unknown conversion {args.direction!r}")


def _cmd_oracle(args) -> int:
    sampler = "random" if args.random else "exhaustive"
    report = exhaustive_colouring_scan(
        args.n, args.k, args.bound, args.parts, sampler=sampler,
        seed=args.seed, count=args.random or 0, limit=args.limit)
    print(report.summary())
    if not report.complete:
        return INCOMPLETE
    return OK if not report.witnesses else INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocover",
        description="covers of edge-coloured complete graphs by few "
                    "monochromatic bounded-diameter sets")
    sub = parser.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a colouring file")
    gen.add_argument("kind", choices=["random-uniform", "layered-adversarial",
                                      "sharpness-x", "section5-example",
                                      "from-points"])
    gen.add_argument("--n", type=int, default=10)
    gen.add_argument("--k", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--variant", default="mixed")
    gen.add_argument("--points", help="points file for from-points")
    gen.add_argument("-o", "--output")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run a solver on a colouring file")
    group = solve.add_mutually_exclusive_group()
    group.add_argument("--k4", action="store_true",
                       help="full 4-colour solver (default)")
    group.add_argument("--lemma", choices=["2cols", "2colsbip", "mult2col"])
    solve.add_argument("colouring")
    solve.add_argument("-o", "--output")
    solve.add_argument("--trace")
    solve.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="verify a cover file")
    ver.add_argument("colouring")
    ver.add_argument("cover")
    ver.add_argument("--bound", type=int)
    ver.add_argument("--max-parts", type=int)
    ver.set_defaults(func=_cmd_verify)

    lay = sub.add_parser("layers", help="layer mapping tools")
    lay_sub = lay.add_subparsers(dest="layers_cmd", required=True)
    build = lay_sub.add_parser("build")
    build.add_argument("colouring")
    build.add_argument("--c1", type=int, required=True)
    build.add_argument("--c2", type=int, required=True)
    build.add_argument("--seed", help="comma-separated seed vertices")
    build.add_argument("--policy", choices=["zero", "spread"], default="zero")
    build.set_defaults(func=_cmd_layers)

    grid = sub.add_parser("grid", help="grid graph tools")
    grid_sub = grid.add_subparsers(dest="grid_cmd", required=True)
    gcover = grid_sub.add_parser("cover")
    gcover.add_argument("points")
    gcover.set_defaults(func=_cmd_grid)
    gclass = grid_sub.add_parser("classify")
    gclass.add_argument("points")
    gclass.set_defaults(func=_cmd_grid)
    gsearch = grid_sub.add_parser("search")
    gsearch.add_argument("--l", type=int, required=True)
    gsearch.add_argument("--d", type=int, default=2)
    gsearch.add_argument("--m", type=int, required=True)
    gsearch.add_argument("--mode", choices=["path", "any-connected"],
                         default="path")
    gsearch.add_argument("--budget", type=int)
    gsearch.set_defaults(func=_cmd_grid)

    conv = sub.add_parser("convert", help="convert between file formats")
    conv.add_argument("direction", choices=["points2col", "col2points"])
    conv.add_argument("source")
    conv.add_argument("dest", nargs="?")
    conv.set_defaults(func=_cmd_convert)

    orc = sub.add_parser("oracle", help="brute-force scans")
    orc_sub = orc.add_subparsers(dest="oracle_cmd", required=True)
    scan = orc_sub.add_parser("scan")
    scan.add_argument("--n", type=int, required=True)
    scan.add_argument("--k", type=int, required=True)
    scan.add_argument("--bound", type=int)
    scan.add_argument("--parts", type=int, required=True)
    scan.add_argument("--random", type=int, help="sample count")
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--limit", type=int)
    scan.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"monocover: error: {exc}", file=sys.stderr)
        return REJECTED


if __name__ == "__main__":
    sys.exit(main())
