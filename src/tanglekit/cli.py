"""Command-line interface.

Results go to stdout, diagnostics to stderr. Exit codes: 0 for success
or a true answer, 1 for a false answer or a failed verification, 2 for
usage and input errors, 3 for a blown size, time, memory or recursion
budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from .antichain import ChainCheck, PatternCheck, pi_seq, rho, verify_antichain, verify_chain
from .errors import BudgetExceededError, InvalidLayoutError
from .layout import DEFAULT_SIZE_CAP, _check_cap, crossing_number, is_planar, min_crossing_layout
from .perm import contains_pattern, standardize
from .render import to_svg, to_text, to_tikz
from .tanglegram import (
    Tanglegram,
    _check_size,
    enumerate_tanglegrams,
    is_induced_sub,
    parse_tanglegram,
)

CENSUS_SIZE_CAP = 5


Route = tuple[argparse.ArgumentParser, dict[str, str]]


def build_parser() -> tuple[argparse.ArgumentParser, dict[tuple[str, ...], Route]]:
    """The top-level parser, and the routes past it by argv prefix.

    ``(command,)`` and each two-word ``(command, target)`` map to the
    parser that reads the rest of argv and to the values the prefix
    gives the namespace.
    """
    p = argparse.ArgumentParser(
        prog="tanglekit",
        description="Tanglegram toolkit: generate families, verify order relations, "
        "test planarity, and draw layouts.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="print a member of a built-in permutation family")
    gsub = gen.add_subparsers(dest="family", required=True)
    for fam, blurb in (("rho", "the pairwise incomparable family"),
                       ("pi", "the nested family")):
        gp = gsub.add_parser(fam, help=blurb)
        gp.add_argument("index", type=int)

    ver = sub.add_parser("verify", help="run one of the family verifiers")
    vsub = ver.add_subparsers(dest="target", required=True)
    va = vsub.add_parser("antichain", help="pairwise incomparability on a prefix")
    va.add_argument("--max", dest="max_index", type=int, required=True)
    va.add_argument("--adjacent-only", action="store_true")
    va.add_argument("--timeout", type=float, default=None,
                    help="per-pair budget in seconds")
    va.add_argument("--format", choices=("text", "jsonl"), default="text")
    vc = vsub.add_parser("chain", help="nesting of consecutive members")
    vc.add_argument("--max", dest="max_index", type=int, required=True)
    vc.add_argument("--format", choices=("text", "jsonl"), default="text")

    pl = sub.add_parser("planar", help="decide planarity of a tanglegram file")
    pl.add_argument("file")
    pl.add_argument("--method", choices=("kuratowski", "oracle"), default="oracle")

    cn = sub.add_parser("crossing-number", help="minimum crossings over all layouts")
    cn.add_argument("file")
    cn.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP)

    ly = sub.add_parser("layout", help="draw a best layout of a tanglegram file")
    ly.add_argument("file")
    ly.add_argument("--emit", choices=("svg", "tikz", "text"), default="text")
    ly.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP)

    pt = sub.add_parser("pattern", help="search a permutation pattern in a permutation")
    pt.add_argument("--pi", required=True, metavar="PERM", help="text permutation, e.g. (2,3,5,1)")
    pt.add_argument("--rho", required=True, metavar="PERM", help="pattern to look for")

    ind = sub.add_parser("induced", help="is the first tanglegram an induced subtanglegram of the second")
    ind.add_argument("sub_file")
    ind.add_argument("super_file")

    cs = sub.add_parser("census", help="count tanglegrams of one size, by crossing number")
    cs.add_argument("--size", type=int, required=True)
    cs.add_argument("--cap", type=int, default=CENSUS_SIZE_CAP)

    routes: dict[tuple[str, ...], Route] = {}
    for name, parser in sub.choices.items():
        routes[(name,)] = parser, {"command": name}
    for name, dest, targets in (("gen", "family", gsub), ("verify", "target", vsub)):
        for target, parser in targets.choices.items():
            routes[(name, target)] = parser, {"command": name, dest: target}
    return p, routes


# Built once per process: parsing leaves the parsers as they were, and
# usage errors and --help still write to the sys.stderr / sys.stdout
# current at call time.
_PARSER, _ROUTES = build_parser()


def _read_tanglegram(path: str) -> Tanglegram:
    # input files are UTF-8 whatever the locale; a leading byte-order mark is dropped
    with open(path, "rb") as f:
        text = f.read().decode("utf-8-sig")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 1:
        raise ValueError(f"{path}: expected exactly one tanglegram line, got {len(lines)}")
    return parse_tanglegram(lines[0])


# One line per verifier record, byte for byte what
# json.dumps({"kind": ..., **rec._asdict(), "elapsed": round(rec.elapsed, 6)})
# prints: ints and floats as repr, bools as true/false, the bar-set tag
# (a plain identifier) quoted, and no dict or encoder call per record.
def _pattern_json(rec: PatternCheck) -> str:
    witness = "null" if rec.witness is None else f"[{', '.join(map(str, rec.witness))}]"
    return (f'{{"kind": "antichain-check", "i": {rec.i}, "j": {rec.j}, "sigma": "{rec.sigma}", '
            f'"witness": {witness}, "elapsed": {round(rec.elapsed, 6)!r}}}')


def _chain_json(rec: ChainCheck) -> str:
    r = "true" if rec.restriction_ok else "false"
    s = "true" if rec.induced_ok else "false"
    return (f'{{"kind": "chain-check", "i": {rec.i}, "restriction_ok": {r}, "induced_ok": {s}, '
            f'"elapsed": {round(rec.elapsed, 6)!r}}}')


def _pattern_line(rec: PatternCheck) -> str:
    verdict = "ok" if rec.witness is None else f"witness={{{','.join(map(str, rec.witness))}}}"
    return f"antichain pair ({rec.i},{rec.j}) sigma={rec.sigma}: {verdict} {rec.elapsed:.3f}s"


def _chain_line(rec: ChainCheck) -> str:
    r = "ok" if rec.restriction_ok else "MISMATCH"
    s = "ok" if rec.induced_ok else "MISSING"
    return f"chain step {rec.i}->{rec.i + 1}: restriction {r}, induced {s} {rec.elapsed:.3f}s"


def _answer(ok: bool) -> int:
    print("true" if ok else "false")
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    family = rho if args.family == "rho" else pi_seq
    print(family(args.index))
    return 0


def _cmd_verify(args) -> int:
    jsonl = args.format == "jsonl"
    if args.target == "antichain":
        line = _pattern_json if jsonl else _pattern_line
        report = verify_antichain(
            args.max_index,
            adjacent_only=args.adjacent_only,
            pair_timeout=args.timeout,
            on_check=lambda rec: print(line(rec)),
        )
        extra = {"adjacent_only": report.adjacent_only}
    else:
        line = _chain_json if jsonl else _chain_line
        report = verify_chain(args.max_index, on_check=lambda rec: print(line(rec)))
        extra = {}
    summary = {"kind": "summary", "result": "PASS" if report.passed else "FAIL",
               "max": report.max_index, **extra, "checks": len(report.checks)}
    if jsonl:
        print(json.dumps(summary))
    else:
        print(f"{summary['result']} {args.target} max={args.max_index} checks={summary['checks']}")
    return 0 if report.passed else 1


def _cmd_planar(args) -> int:
    t = _read_tanglegram(args.file)
    return _answer(is_planar(t, args.method))


def _cmd_crossing_number(args) -> int:
    t = _read_tanglegram(args.file)
    print(crossing_number(t, cap=args.cap))
    return 0


def _cmd_layout(args) -> int:
    t = _read_tanglegram(args.file)
    lay, _ = min_crossing_layout(t, cap=args.cap)
    if args.emit == "svg":
        sys.stdout.write(to_svg(lay))
    elif args.emit == "tikz":
        sys.stdout.write(to_tikz(lay))
    else:
        sys.stdout.write(to_text(lay))
    return 0


def _cmd_pattern(args) -> int:
    # any distinct-integer sequence works; containment only sees ranks
    pi = standardize(args.pi)
    pat = standardize(args.rho)
    witness = contains_pattern(pi, pat)
    if witness is None:
        print("none")
        return 1
    print("{" + ",".join(str(p) for p in witness) + "}")
    return 0


def _cmd_induced(args) -> int:
    sub = _read_tanglegram(args.sub_file)
    sup = _read_tanglegram(args.super_file)
    return _answer(is_induced_sub(sub, sup))


def _cmd_census(args) -> int:
    _check_size(args.size)  # a usage error goes before a budget one
    _check_cap(args.size, args.cap, "census enumerates every tanglegram")
    reps = enumerate_tanglegrams(args.size)
    print(f"size {args.size}: {len(reps)} tanglegrams")
    hist: dict[int, int] = {}
    for t in reps:
        c = crossing_number(t, cap=args.size)
        hist[c] = hist.get(c, 0) + 1
    for c in sorted(hist):
        print(f"crossings {c}: {hist[c]}")
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "planar": _cmd_planar,
    "crossing-number": _cmd_crossing_number,
    "layout": _cmd_layout,
    "pattern": _cmd_pattern,
    "induced": _cmd_induced,
    "census": _cmd_census,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # run as a program: its output is UTF-8 whatever the locale
        argv = sys.argv[1:]
        if hasattr(sys.stdout, "reconfigure"):
            sys.stdout.reconfigure(encoding="utf-8")
    # The longest known argv prefix, a command or a two-word command
    # such as `verify chain`, picks the parser that reads the rest of
    # argv, as the parsers above it would have it do. Any other argv,
    # and leftover arguments, go through the top-level parser, which
    # answers or reports them as it always has.
    route = _ROUTES.get(tuple(argv[:2])) or _ROUTES.get(tuple(argv[:1]))
    try:
        if route is None:
            args = _PARSER.parse_args(argv)
        else:
            parser, given = route  # one given value per prefix word
            args, rest = parser.parse_known_args(argv[len(given):], argparse.Namespace(**given))
            if rest:
                _PARSER.parse_args(argv)  # exits: unrecognized arguments
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except RecursionError:  # last resort: tanglegram._shapes (census) still recurses
        print(f"budget exceeded: {args.command} ran past the recursion depth", file=sys.stderr)
        return 3
    except (OverflowError, MemoryError):  # last resort: e.g. gen of an index too large to build
        print(f"budget exceeded: {args.command} needs more memory than there is", file=sys.stderr)
        return 3
    except (ValueError, InvalidLayoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
