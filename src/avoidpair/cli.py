"""Command-line surface: enumeration, statistics, tables, maps, verification.

Exit codes: 0 on success, 1 on data or verification failure, 2 on usage
errors.  All output is deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import catalog, verify
from .bijections import NotInClassError, complement_map, transfer_map
from .catalog import FiniteClassError
from .perms import enumerate_class, format_perm, parse_pair, parse_perm
from .polys import expand
from .stats import stat_vector

FORMATS = ("json", "csv", "plain")

_MAPS = {"f": complement_map, "g": transfer_map}


def _pair_arg(text: str):
    try:
        return parse_pair(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _perm_arg(text: str):
    try:
        return parse_perm(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avoidpair",
        description="Statistics over permutations avoiding a pair of length-3 patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="plain")

    p = sub.add_parser("count", help="closed-form size of an avoidance class")
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="A,B")
    p.add_argument("--n", type=_nonnegative, required=True)

    p = sub.add_parser("enumerate", help="list the class members in lexicographic order")
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="A,B")
    p.add_argument("--n", type=_nonnegative, required=True)
    add_format(p)

    p = sub.add_parser("stats", help="the eight statistics of one permutation")
    p.add_argument("--perm", type=_perm_arg, required=True, metavar='"a b c"')
    add_format(p)

    p = sub.add_parser("table", help="joint distribution polynomial at one length")
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="A,B")
    p.add_argument("--family", choices=catalog.FAMILIES, required=True)
    p.add_argument("--n", type=_nonnegative, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="sum over the enumerated class instead of expanding the closed "
                        "form; defined for every pair, so it also answers for the finite "
                        "class 123,321, which has no closed form (0 for n >= 5)")
    add_format(p)

    p = sub.add_parser("map", help="apply one of the statistic-exchanging maps")
    p.add_argument("--which", choices=sorted(_MAPS), required=True)
    p.add_argument("--perm", type=_perm_arg, required=True, metavar='"a b c"')

    p = sub.add_parser("verify", help="run the brute-force verification suite")
    p.add_argument("scope", nargs="?", choices=("all", "counts", "gf", "maps"), default="all")
    p.add_argument("--n-max", type=_nonnegative, default=None)

    p = sub.add_parser("catalog-dump", help="emit every stored formula for audit")
    add_format(p)

    return parser


def _csv_rows(rows, header) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _cmd_count(args) -> int:
    print(catalog.class_count(args.pair, args.n))
    return 0


def _cmd_enumerate(args) -> int:
    members = enumerate_class(args.pair, args.n)
    if args.format == "json":
        print(json.dumps([list(perm) for perm in members]))
    elif args.format == "csv":
        print(_csv_rows(([format_perm(perm)] for perm in members), ["perm"]))
    else:
        for perm in members:
            print(format_perm(perm))
    return 0


def _cmd_stats(args) -> int:
    vec = stat_vector(args.perm)
    if args.format == "json":
        print(json.dumps(vec.to_json_obj()))
    elif args.format == "csv":
        items = vec.to_json_obj().items()
        print(_csv_rows(((name, value) for name, value in items), ["stat", "value"]))
    else:
        for name, value in vec.to_json_obj().items():
            print(f"{name} {value}")
    return 0


def _cmd_table(args) -> int:
    if args.oracle:
        poly = verify.brute_distribution(args.pair, args.n, args.family)
    else:
        poly = expand(catalog.gf_for(args.pair, args.family), args.n).coeffs[args.n]
    if args.format == "json":
        print(json.dumps(poly.to_json_terms()))
    elif args.format == "csv":
        rows = []
        for exps, coeff in poly.terms():
            monomial = str(type(poly)({exps: 1}))
            rows.append((args.n, monomial, coeff))
        print(_csv_rows(rows, ["n", "monomial", "coefficient"]))
    else:
        print(poly)
    return 0


def _cmd_map(args) -> int:
    if not args.perm:
        print("error: map is defined for n >= 1 only", file=sys.stderr)
        return 2
    print(format_perm(_MAPS[args.which](args.perm)))
    return 0


def _cmd_verify(args) -> int:
    reports = verify.suite(args.scope, args.n_max)
    for report in reports:
        print(report.to_json_line())
    return 0 if verify.all_passed(reports) else 1


def _cmd_catalog_dump(args) -> int:
    data = catalog.dump()
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    elif args.format == "csv":
        rows = []
        for family, pairs in sorted(data["joint"].items()):
            for pair_text, entry in sorted(pairs.items()):
                for part in ("num", "den"):
                    for term in entry[part]:
                        exps = " ".join(f"{k}^{v}" for k, v in sorted(term["exponents"].items()))
                        rows.append((family, pair_text, part, exps, term["coeff"]))
        print(_csv_rows(rows, ["family", "pair", "part", "monomial", "coefficient"]))
    else:
        for family, pairs in sorted(data["joint"].items()):
            for pair_text in sorted(pairs):
                entry = catalog.canonical_entry(parse_pair(pair_text), family)
                corrected = " (oracle-corrected)" if entry.oracle_corrected else ""
                print(f"{family} {pair_text}{corrected}")
                print(f"  num: {entry.gf.num}")
                print(f"  den: {entry.gf.den}")
        for pair_text, stats_entries in sorted(data["single"].items()):
            for stat in catalog.STAT_NAMES:
                if stat not in stats_entries:
                    continue
                entry = catalog.single_stat_entry(parse_pair(pair_text), stat)
                corrected = " (oracle-corrected)" if entry.oracle_corrected else ""
                print(f"{pair_text} {stat}{corrected}")
                print(f"  num: {entry.gf.num}")
                print(f"  den: {entry.gf.den}")
    return 0


_HANDLERS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "stats": _cmd_stats,
    "table": _cmd_table,
    "map": _cmd_map,
    "verify": _cmd_verify,
    "catalog-dump": _cmd_catalog_dump,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (NotInClassError, FiniteClassError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
