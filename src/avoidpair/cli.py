"""Command-line surface: enumeration, statistics, tables, maps, verification.

Exit codes: 0 on success, 1 on data or verification failure or when the
reader closes the output pipe early, 2 on usage errors (including a
``count`` too long to print and a ``table --n`` whose closed-form expansion
cannot be packed).  All output is deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

# Only what building the parser and the cheap commands need is imported
# here; each handler imports the rest of what it runs, so a command's cold
# start loads no module that the command does not use.
from . import SCOPES
from .bijections import NotInClassError, complement_map, transfer_map
from .perms import (
    FiniteClassError,
    class_count,
    enumerate_class,
    format_perm,
    parse_pair,
    parse_perm,
)
from .stats import FAMILIES, stat_vector

FORMATS = ("json", "csv", "plain")

_MAPS = {"f": complement_map, "g": transfer_map}


def _usage(parse):
    """Argument type reporting ``parse``'s ValueError as a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


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
    p.add_argument("--pair", type=_usage(parse_pair), required=True, metavar="A,B")
    p.add_argument("--n", type=_nonnegative, required=True)

    p = sub.add_parser("enumerate", help="list the class members in lexicographic order")
    p.add_argument("--pair", type=_usage(parse_pair), required=True, metavar="A,B")
    p.add_argument("--n", type=_nonnegative, required=True)
    add_format(p)

    p = sub.add_parser("stats", help="the eight statistics of one permutation")
    p.add_argument("--perm", type=_usage(parse_perm), required=True, metavar='"a b c"')
    add_format(p)

    p = sub.add_parser("table", help="joint distribution polynomial at one length")
    p.add_argument("--pair", type=_usage(parse_pair), required=True, metavar="A,B")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=_nonnegative, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="sum over the enumerated class instead of expanding the closed "
                        "form; defined for every pair, so it also answers for the finite "
                        "class 123,321, which has no closed form (0 for n >= 5)")
    add_format(p)

    p = sub.add_parser("map", help="apply one of the statistic-exchanging maps")
    p.add_argument("--which", choices=sorted(_MAPS), required=True)
    p.add_argument("--perm", type=_usage(parse_perm), required=True, metavar='"a b c"')

    p = sub.add_parser("verify", help="run the brute-force verification suite")
    p.add_argument("scope", nargs="?", choices=SCOPES, default="all")
    p.add_argument("--n-max", type=_nonnegative, default=None)

    p = sub.add_parser("catalog-dump", help="emit every stored formula for audit")
    add_format(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs about 15 parses, and parsing leaves it as it
    # was, so main builds it once per process.
    return build_parser()


def _print_json_list(items) -> None:
    """``print(json.dumps(list(items)))``, one item at a time, so no more
    than one item's text is held at once."""
    import json

    write = sys.stdout.write
    write("[")
    for i, item in enumerate(items):
        if i:
            write(", ")
        write(json.dumps(item))
    write("]\n")


def _csv_rows(rows, header) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _cmd_count(args) -> int:
    # Python prints ints below 10 ** digits.  2 ** (n - 1), the largest count,
    # reaches that bound exactly when n - 1 reaches the bound's bit length,
    # which exceeds 3 * digits, and counts above 4 only grow with n.  So one
    # probe at that length decides every larger n without computing its power.
    # Below that length, and for the classes that pass the probe (counts at
    # most 1 + C(n, 2)), the count itself is cheap to compute and compare.
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if args.n > 3 * digits:
        limit = 10 ** digits
        bits = limit.bit_length()
        if ((args.n - 1 >= bits and class_count(args.pair, bits + 1) >= limit)
                or class_count(args.pair, args.n) >= limit):
            print(f"error: the count at n = {args.n} has more than {digits} digits",
                  file=sys.stderr)
            return 2
    print(class_count(args.pair, args.n))
    return 0


def _cmd_enumerate(args) -> int:
    members = enumerate_class(args.pair, args.n)
    if args.format == "json":
        _print_json_list(map(list, members))
    elif args.format == "csv":
        print(_csv_rows(([format_perm(perm)] for perm in members), ["perm"]))
    else:
        for perm in members:
            print(format_perm(perm))
    return 0


def _cmd_stats(args) -> int:
    values = stat_vector(args.perm).to_json_obj()
    if args.format == "json":
        import json

        print(json.dumps(values))
    elif args.format == "csv":
        print(_csv_rows(values.items(), ["stat", "value"]))
    else:
        for name, value in values.items():
            print(f"{name} {value}")
    return 0


def _cmd_table(args) -> int:
    if args.oracle:
        from .oracle import brute_distribution

        poly = brute_distribution(args.pair, args.n, args.family)
    else:
        from . import catalog
        from .polys import ExponentOverflowError, coefficient

        gf = catalog.gf_for(args.pair, args.family)
        try:
            # coefficient sizes its packed fields first and raises before any
            # work, then unpacks only the printed coefficient.
            poly = coefficient(gf, args.n)
        except ExponentOverflowError as exc:
            print(f"error: table --n {args.n} is too large: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        from .polys import json_term

        _print_json_list(json_term(exps, coeff) for exps, coeff in poly.terms())
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
    from . import verify

    reports = verify.suite(args.scope, args.n_max)
    for report in reports:
        print(report.to_json_line())
    return 0 if verify.all_passed(reports) else 1


def _cmd_catalog_dump(args) -> int:
    from . import catalog
    from .polys import MultiPoly

    data = catalog.dump()
    if args.format == "json":
        import json

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
        labelled = [
            (f"{family} {pair_text}", entry)
            for family, pairs in sorted(data["joint"].items())
            for pair_text, entry in sorted(pairs.items())
        ] + [
            (f"{pair_text} {stat}", entry)
            for pair_text, entries in sorted(data["single"].items())
            for stat, entry in entries.items()
        ]
        for label, entry in labelled:
            corrected = " (oracle-corrected)" if entry["oracle_corrected"] else ""
            print(f"{label}{corrected}")
            print(f"  num: {MultiPoly.from_json_terms(entry['num'])}")
            print(f"  den: {MultiPoly.from_json_terms(entry['den'])}")
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
    args = _parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except (NotInClassError, FiniteClassError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe.  Python flushes stdout again at exit,
        # so point it at devnull to keep that flush from raising too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
