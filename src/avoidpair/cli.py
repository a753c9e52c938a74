"""Command-line surface: enumeration, statistics, tables, maps, verification.

Exit codes: 0 on success, 1 on data or verification failure or when the
reader closes the output pipe early, 2 on usage errors (including a
``count`` too long to print, a ``table --n`` whose closed-form expansion
cannot be packed, and an ``enumerate``, ``table --oracle`` or ``verify
--n-max`` past the length a class is enumerated to).  A handler only
computes and prints; a request it rejects leaves it as a ``ValueError``, and
:func:`main` alone maps that to its exit code (1 for ``NotInClassError`` and
``FiniteClassError``, 2 for any other) and one ``error:`` line on stderr.
All output is deterministic for fixed arguments.

:func:`main` gets each request's namespace in one of two ways: it reads a
canonically spelled request off its command parser's own actions, with no
argparse parse (see :func:`_read_canonical`), or it parses any other argv
once with the top-level parser, so argparse writes every usage, help and
error byte.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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
    format_pair,
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
    # ASCII digits only, as in parse_perm: int() alone would also take a
    # plus sign, underscores and non-ASCII digits.
    digits = text.strip().removeprefix("-")
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        value = int(digits)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if digits != text.strip():
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


@functools.cache
def _commands() -> dict[str, argparse.ArgumentParser]:
    """Each command's own parser, by name, from the one parser ``_parser`` built."""
    (sub,) = (action for action in _parser()._actions
              if isinstance(action, argparse._SubParsersAction))
    return sub.choices


def _read_canonical(argv: list[str]) -> argparse.Namespace | None:
    """The namespace one argparse parse gives ``argv`` when it is a
    canonically spelled request, read off its command parser's own actions;
    None for any other argv.

    Canonical means: the first word names a command; every other word is one
    of that command's full option strings, other than ``-h`` and ``--help``,
    or that option's value (a ``store_true`` option takes none); no option
    appears twice; no value starts with ``-``; every required option is
    present.  Only then is each value converted, by its action's ``type`` and
    then checked against its ``choices``, and each absent action gets its
    default.  A value either step rejects is left for argparse to report.
    """
    parser = _commands().get(argv[0]) if argv else None
    if parser is None:
        return None
    # argparse adds the help action first; it is the only action with a
    # SUPPRESS default, and no action has both a string default and a type,
    # so every other absent action's default is its value as it stands.
    help_action, *actions = parser._actions
    given = {}
    words = iter(argv[1:])
    for word in words:
        action = parser._option_string_actions.get(word)
        if action is None or action is help_action or action in given:
            return None
        if action.nargs == 0:
            given[action] = action.const
        else:
            value = next(words, "-")
            if value.startswith("-"):
                return None
            given[action] = value
    args = argparse.Namespace()
    try:
        for action in actions:
            if action in given:
                value = given[action]
                if action.nargs != 0:
                    if action.type is not None:
                        value = action.type(value)
                    if action.choices is not None and value not in action.choices:
                        return None
            elif action.required:
                return None
            else:
                value = action.default
            setattr(args, action.dest, value)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    args.command = argv[0]
    return args


def _print_json_list(texts) -> None:
    """Print the JSON list of the items rendered as ``texts``, one item at a
    time, so no more than one item's text is held at once."""
    write = sys.stdout.write
    write("[")
    for i, text in enumerate(texts):
        if i:
            write(", ")
        write(text)
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
                or (count := class_count(args.pair, args.n)) >= limit):
            raise ValueError(f"the count at n = {args.n} has more than {digits} digits")
    else:
        count = class_count(args.pair, args.n)
    print(count)
    return 0


def _cmd_enumerate(args) -> int:
    members = enumerate_class(args.pair, args.n)
    if args.format == "json":
        _print_json_list(f"[{', '.join(map(str, perm))}]" for perm in members)
    elif args.format == "csv":
        print(_csv_rows(([format_perm(perm)] for perm in members), ["perm"]))
    else:
        sys.stdout.writelines(f"{format_perm(perm)}\n" for perm in members)
    return 0


def _cmd_stats(args) -> int:
    values = stat_vector(args.perm).to_json_obj()
    if args.format == "json":
        fields = ", ".join(f'"{name}": {value}' for name, value in values.items())
        print(f"{{{fields}}}")
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
            raise ExponentOverflowError(f"table --n {args.n} is too large: {exc}") from None
    if args.format == "json":
        from .polys import json_term_text

        _print_json_list(itertools.starmap(json_term_text, poly.terms()))
    elif args.format == "csv":
        from .polys import _monomial

        rows = [(args.n, _monomial(exps), coeff) for exps, coeff in poly.terms()]
        print(_csv_rows(rows, ["n", "monomial", "coefficient"]))
    else:
        print(poly)
    return 0


def _cmd_map(args) -> int:
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

    if args.format == "json":
        import json

        print(json.dumps(catalog.dump(), indent=2, sort_keys=True))
        return 0
    joint, single = catalog.audit_order()
    if args.format == "csv":
        from .polys import VARS

        rows = [
            (family, format_pair(pair), part,
             " ".join(f"{name}^{e}" for name, e in sorted(zip(VARS, exps)) if e), coeff)
            for (pair, family), entry in joint
            for part, poly in (("num", entry.gf.num), ("den", entry.gf.den))
            for exps, coeff in poly.terms()
        ]
        print(_csv_rows(rows, ["family", "pair", "part", "monomial", "coefficient"]))
    else:
        labelled = [(f"{family} {format_pair(pair)}", entry) for (pair, family), entry in joint]
        labelled += [(f"{format_pair(pair)} {stat}", entry) for (pair, stat), entry in single]
        for label, entry in labelled:
            corrected = " (oracle-corrected)" if entry.oracle_corrected else ""
            print(f"{label}{corrected}")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # A canonically spelled request is read off its command's actions with
    # no parse.  Any other is parsed once, by the top-level parser, which
    # writes every usage error and help text itself.
    args = _read_canonical(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (NotInClassError, FiniteClassError)) else 2
    except BrokenPipeError:
        # The reader closed the pipe.  Python flushes stdout again at exit,
        # so point it at devnull to keep that flush from raising too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
