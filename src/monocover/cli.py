"""Command-line front door: generators, solvers, verifiers, converters.

All file formats are line-oriented text.  Exit codes: 0 verified success,
2 verified-invalid, 3 fallback or incomplete result, or no result (a
``solve --lemma`` instance on which the lemma has no outcome, reported as
one line `monocover: no outcome: <message>` on stderr), 4 rejected input
(a usage error, or a malformed or unreadable file or a value a command
cannot use, reported as one line `monocover: error: <message>` on
stderr).  Flags only; no configuration files or environment variables.
Each command imports the modules it uses when it runs, so a command
pays only for its own start-up.  Colouring files are streamed: a command
that reads one hands the parser the file opened as bytes, read a block
at a time, and one that writes one writes a row of pairs at a time, so
no command holds a colouring file's whole text.  The colouring is built
before its output file is opened, so a rejected one leaves no file.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

from .errors import ImpossibleByLemmaError

OK, INVALID, INCOMPLETE, REJECTED = 0, 2, 3, 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_colouring(path: str):
    """The colouring in the file at ``path``, parsed a block at a time."""
    from .graphs import parse_colouring
    with open(path, "rb") as fh:
        return parse_colouring(fh)


def _write(path: str | None, pieces: Iterable[str]) -> None:
    """Write ``pieces`` in turn to the file at ``path``, or to stdout."""
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _cmd_gen(args) -> int:
    from .generators import (layered_adversarial, random_uniform,
                             section5_example, sharpness_x)
    from .graphs import colouring_lines
    from .grid import colouring_from_points, parse_points
    if args.kind == "random-uniform":
        colouring = random_uniform(args.n, args.k, args.seed)
    elif args.kind == "layered-adversarial":
        colouring = layered_adversarial(args.seed, args.variant)
    elif args.kind == "sharpness-x":
        colouring = sharpness_x()
    elif args.kind == "section5-example":
        colouring = section5_example(args.n, args.seed)
    else:
        if args.points is None:
            raise ValueError("gen from-points needs --points FILE")
        colouring, _ = colouring_from_points(parse_points(_read(args.points)))
    _write(args.output, colouring_lines(colouring))
    return OK


def _cmd_solve(args) -> int:
    import json
    import math

    from .covers import format_cover, verify_cover
    from .solver import BRANCH_FALLBACK, COVER_BOUND, solve4
    colouring = _read_colouring(args.colouring)
    if args.lemma:
        return _solve_lemma(args, colouring)
    cover, trace = solve4(colouring)
    bound = math.inf if trace.branch == BRANCH_FALLBACK else COVER_BOUND
    report = verify_cover(colouring, cover, bound=bound, max_parts=3)
    _write(args.output, [format_cover(cover)])
    if args.trace:
        payload = trace.to_json()
        payload["parts"] = [
            {"colour": p.colour, "size": len(p.vertices),
             "diameter": repr(r.diameter)}
            for p, r in zip(cover.parts, report.parts)]
        payload["valid"] = report.valid
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=repr)
            fh.write("\n")
    print(f"branch {trace.branch} parts {len(cover.parts)} valid {report.valid}")
    if trace.branch == BRANCH_FALLBACK:
        return INCOMPLETE
    return OK if report.valid else INVALID


def _solve_lemma(args, colouring) -> int:
    from .graphs import set_diameter
    from .twocolour import (MonoSpanning, bipartite_two_colour,
                            erdos_rado_cover, multipartite_two_colour)
    if args.lemma == "2cols":
        c = erdos_rado_cover(colouring)
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
    # argparse's choices leave only "mult2col"
    res = multipartite_two_colour(colouring)
    print(f"colour {res.colour} bound {res.bound} diameter {res.diameter}")
    return OK


def _cmd_verify(args) -> int:
    from .covers import parse_cover, verify_cover
    from .graphs import DISCONNECTED
    colouring = _read_colouring(args.colouring)
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
    from .graphs import parse_decimal
    from .layers import build_layer_mapping
    colouring = _read_colouring(args.colouring)
    seeds = [parse_decimal(tok) for tok in args.seed.split(",")] if args.seed else []
    lm = build_layer_mapping(colouring, args.c1, args.c2, seeds=seeds,
                             value_policy=args.policy)
    print("D1 D2 size")
    for point in lm.points:
        print(f"{point[0]} {point[1]} {lm.layer_mask(point).bit_count()}")
    return OK


def _cmd_grid(args) -> int:
    from .grid import (bounded_degree_search, classify_independent4,
                       classify_independent5, cover_G3, parse_points)
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
    # argparse's required subcommands leave only "search"
    res = bounded_degree_search(args.l, args.d, args.m, mode=args.mode,
                                budget=args.budget)
    print(f"size {res.size} complete {res.complete} explored {res.explored}")
    print("witness " + " ".join(",".join(map(str, p)) for p in res.witness))
    return OK if res.complete else INCOMPLETE


def _cmd_convert(args) -> int:
    from .graphs import colouring_lines
    from .grid import (colouring_from_points, format_points, parse_points,
                       points_from_colouring)
    if args.direction == "points2col":
        ps = parse_points(_read(args.source))
        colouring, _ = colouring_from_points(ps)
        _write(args.dest, colouring_lines(colouring))
        return OK
    # argparse's choices leave only "col2points"
    colouring = _read_colouring(args.source)
    ps, _ = points_from_colouring(colouring)
    _write(args.dest, [format_points(ps)])
    return OK


def _cmd_oracle(args) -> int:
    from .oracle import exhaustive_colouring_scan
    sampler = "random" if args.random else "exhaustive"
    report = exhaustive_colouring_scan(
        args.n, args.k, args.bound, args.parts, sampler=sampler,
        seed=args.seed, count=args.random or 0, limit=args.limit)
    print(report.summary())
    if not report.complete:
        return INCOMPLETE
    return OK if not report.witnesses else INVALID


class _Parser(argparse.ArgumentParser):
    """Exits 4 on a usage error: argparse's 2 means verified-invalid here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(REJECTED, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    except ImpossibleByLemmaError as exc:
        print(f"monocover: no outcome: {exc}", file=sys.stderr)
        return INCOMPLETE


if __name__ == "__main__":
    sys.exit(main())
