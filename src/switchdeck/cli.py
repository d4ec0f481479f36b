"""Command-line front-end.

Subcommands map library operations onto reproducible shell invocations:
graph streams are newline-delimited digraph6, census reports print as a
plain summary or JSON, and identical invocations produce identical bytes.

Exit codes: 0 success, 1 verification mismatch, 2 bad arguments or input,
3 heavy range without --heavy, 4 missing deck card at t = -1, 5 structural
invariant violated by a discovered family.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import catalog, census, decks, generate
from .census import CENSUS_UNITS, run_census
from .cycles import CycleOrientation, Rotation, dist_set, find_W, verify_w_size_reconstruction
from .digraph import Digraph, apply_perm, format_digraph6, parse_digraph6
from .errors import CardAbsent, DichotomyViolated, HeavyFlagRequired, OutOfRange
from .generate import MAXDEG2_SHAPE_MAX_N, check_orders
from .report import SearchReport, merge_reports
from .stability import classify_stable_connected, gamma_group

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_HEAVY = 3
EXIT_CARD = 4
EXIT_DICHOTOMY = 5
# the exit code of each error main reports, most specific first
_EXIT_CODES = ((HeavyFlagRequired, EXIT_HEAVY), (CardAbsent, EXIT_CARD),
               (DichotomyViolated, EXIT_DICHOTOMY), ((ValueError, OSError), EXIT_USAGE))


def _match(pattern: str, what: str, form: str, text: str) -> tuple:
    m = re.fullmatch(pattern, text.strip())
    if m is None:
        raise OutOfRange(f"{what} {text.strip()!r} is not of the form {form}")
    return m.groups()


def _parse_n_range(text: str) -> tuple[int, int]:
    lo, hi = _match(r"(-?\d+)(?:\.\.(-?\d+))?", "orders", "N or LO..HI", text)
    return int(lo), int(hi or lo)


def _parse_t_range(text: str) -> tuple[int, int | None]:
    lo, hi = _match(r"(-?\d+)(?:\.\.(-?\d+|n))?", "t range", "T, LO..HI or LO..n", text)
    return int(lo), (None if hi == "n" else int(hi or lo))


def _parse_shard(text: str) -> tuple[int, int]:
    i, k = _match(r"(-?\d+)/(-?\d+)", "shard", "I/K", text)
    return int(i), int(k)


# class -> n -> its classes; underlying graphs stream as their symmetric
# digraphs (all edges digons)
_GEN = {
    "paths": generate.gen_oriented_paths,
    "cycles": generate.gen_oriented_cycles,
    "digon-cycles": lambda n: generate.gen_oriented_cycles(n, digons=True),
    "maxdeg2": generate.gen_oriented_maxdeg2,
    "tournaments": generate.gen_tournaments,
    "all-oriented": generate.gen_all_oriented,
    "underlying": lambda n: (Digraph(u.n, u.adj) for u in generate.gen_underlying_graphs(n)),
}

# class -> n -> its class count, for the classes counted without enumerating
_COUNT = {
    **{label: lambda n, space=census._SPACES[label]: space(n).count()
       for label in ("paths", "cycles", "digon-cycles")},
    "maxdeg2": census._maxdeg2_class_count,
}

# gen streams maxdeg2 one component shape at a time, up to the shape ceiling
_GEN_MAX_N = {"maxdeg2": MAXDEG2_SHAPE_MAX_N}


def _cmd_gen(args) -> int:
    label, n = args.graph_class, args.n
    check_orders(label, n, n, args.heavy, n_max=_GEN_MAX_N.get(label))
    if args.count:
        count = _COUNT.get(label)
        print(count(n) if count else sum(1 for _ in _GEN[label](n)))
        return EXIT_OK
    for g in _GEN[label](n):
        print(format_digraph6(g))
    return EXIT_OK


def _cmd_deck(args) -> int:
    g = parse_digraph6(args.digraph6)
    d = decks.t_deck(g, args.t)
    out = decks.format_deck(d)
    if out:
        print(out)
    return EXIT_OK


def _cmd_families(args) -> int:
    report = run_census(
        args.graph_class,
        _parse_n_range(args.n_range),
        _parse_t_range(args.t_range),
        heavy=args.heavy,
        shard=_parse_shard(args.shard) if args.shard else None,
    )
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    return EXIT_OK


def _cmd_stable(args) -> int:
    lo, hi = _parse_n_range(args.n_range)
    check_orders("stable", lo, hi, args.heavy)
    total = 0
    for n in range(lo, hi + 1):
        for g in classify_stable_connected(n):
            print(format_digraph6(g))
            total += 1
    print(f"stable connected: {total}", file=sys.stderr)
    return EXIT_OK


def _cmd_gamma(args) -> int:
    g = parse_digraph6(args.digraph6)
    gam = gamma_group(g)
    aut = [p for p in gam if apply_perm(g, p) == g]
    print(f"aut={len(aut)} gamma={gam.order} w-pairs={gam.order // len(aut)}")
    for p in gam:
        tag = "aut+switch" if apply_perm(g, p) == g else "switch"
        print(" ".join(str(v) for v in p.image) + f"  [{tag}]")
    return EXIT_OK


def _cmd_cycles(args) -> int:
    co = CycleOrientation.from_letters(args.letters)
    rs = [args.rotation] if args.rotation is not None else list(range(1, co.n))
    for r in rs:
        rot = Rotation(co.n, r)
        w = find_W(co, rot)
        if w is None:
            print(f"r={r} W=none")
            continue
        members = ",".join(str(v) for v in w.members())
        dists = ",".join(str(d) for d in sorted(dist_set(co, rot)))
        print(f"r={r} W={{{members}}} dist={{{dists}}}")
        if args.size_check:
            res = verify_w_size_reconstruction(co, rot)
            print(f"r={r} size-check |W|={res['w_size']} "
                  f"reconstructed={res['reconstructed']} holds={res['holds']}")
    return EXIT_OK


def _cmd_verify_figures(args) -> int:
    rows = catalog.verify_corpus()
    width = max(len(name) for name, _, _ in rows)
    failed = 0
    for name, ok, detail in rows:
        status = "ok " if ok else "FAIL"
        print(f"{status} {name.ljust(width)}  {detail}")
        failed += 0 if ok else 1
    print(f"{len(rows) - failed}/{len(rows)} figure groups verified")
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


def _cmd_merge(args) -> int:
    reports = []
    for path in args.files:
        with open(path, "r", encoding="utf-8") as fh:
            reports.append(SearchReport.from_json(fh.read()))
    print(merge_reports(reports).to_json())
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchdeck",
        description="Digraph switching decks: enumeration, censuses, reconstruction checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="stream one graph class as digraph6 lines")
    p.add_argument("graph_class", choices=sorted(_GEN))
    p.add_argument("n", type=int)
    p.add_argument("--count", action="store_true", help="print only the class count")
    p.add_argument("--heavy", action="store_true",
                   help="allow orders above the default ceiling")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("deck", help="print the t-deck of a digraph6 graph")
    p.add_argument("digraph6")
    p.add_argument("-t", type=int, default=0)
    p.set_defaults(func=_cmd_deck)

    p = sub.add_parser("families", help="exhaustive t-deck family census")
    p.add_argument("graph_class", choices=sorted(CENSUS_UNITS))
    p.add_argument("n_range", help="orders, e.g. 3..8 or 8")
    p.add_argument("t_range", nargs="?", default="0",
                   help="deck variants, e.g. -1..n or 0 (default 0)")
    p.add_argument("--heavy", action="store_true",
                   help="allow orders above the default ceiling")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of a summary")
    p.add_argument("--shard", help="i/k: run only every k-th work unit")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("stable", help="connected switching-stable oriented graphs")
    p.add_argument("n_range", help="orders, e.g. 1..7")
    p.add_argument("--heavy", action="store_true",
                   help="allow orders above the default ceiling")
    p.set_defaults(func=_cmd_stable)

    p = sub.add_parser("gamma", help="switch-isomorphism group of a connected digraph")
    p.add_argument("digraph6")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("cycles", help="switching sets realizing cycle rotations")
    p.add_argument("letters", help="cycle orientation, e.g. FFBFB (D = digon)")
    p.add_argument("--rotation", type=int,
                   help="single rotation r (default: every nontrivial r)")
    p.add_argument("--size-check", action="store_true",
                   help="also reconstruct |W| from the cards")
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("verify-figures", help="re-check the reference corpus")
    p.set_defaults(func=_cmd_verify_figures)

    p = sub.add_parser("merge", help="combine shard reports (JSON files)")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_merge)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # keep argparse from reading "-1..n" style range values as option flags
    argv = [" " + a if len(a) > 1 and a[0] == "-" and a[1].isdigit() else a
            for a in argv]
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
