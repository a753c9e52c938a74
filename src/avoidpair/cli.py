"""Command-line surface: enumeration, statistics, tables, maps, verification.

Exit codes: 0 on success, 1 on data or verification failure or when the
reader closes the output pipe early, 2 on usage errors (including a
``count`` too long to print, a ``table --n`` whose closed-form expansion
cannot be packed, and an ``enumerate``, ``table --oracle`` or ``verify
--n-max`` past the length a class is enumerated to).  A handler only
computes and prints; a request it rejects leaves it as a ``ValueError``, and
:func:`main` alone maps that to its exit code (1 for a
:class:`~avoidpair.perms.DataError`, 2 for any other) and one ``error:`` line
on stderr.  All output is deterministic for fixed arguments.

Every command's options are declared once, in :data:`COMMANDS`.
:func:`main` gets each request's namespace in one of two ways: it reads a
canonically spelled request off that table, with no parse and without
importing argparse (see :func:`_read_canonical`), or it parses any other argv
once with the parser that :func:`build_parser` builds from the same table, so
argparse writes every usage, help and error byte.  Each handler imports what
it runs beyond :mod:`avoidpair.perms`, so a command's cold start loads no
module that the command does not use.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import FAMILIES, SCOPES
from .perms import (
    DataError,
    class_count,
    enumerate_class,
    format_pair,
    format_perm,
    parse_pair,
    parse_perm,
)

FORMATS = ("json", "csv", "plain")

# Each map's function in :mod:`avoidpair.bijections`, looked up when the map
# runs, so that no other command loads that module.
_MAPS = {"f": "complement_map", "g": "transfer_map"}


def _nonnegative(text: str) -> int:
    # ASCII digits only, as in parse_perm: int() alone would also take a
    # plus sign, underscores and non-ASCII digits.
    digits = text.strip().removeprefix("-")
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        value = int(digits)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if digits != text.strip():
        raise ValueError("must be non-negative")
    return value


class Option(NamedTuple):
    """One option of one command, as the canonical reader reads it and as
    :func:`build_parser` declares it to argparse.

    ``flag`` is the option string, or, for ``verify``'s optional scope, the
    positional's name.  ``parse`` converts a value and raises ``ValueError``
    on a bad one.  An option that takes no value sets ``True`` when given.
    """

    flag: str
    dest: str
    parse: Callable[[str], object] | None = None
    choices: tuple | None = None
    required: bool = False
    default: object = None
    takes_value: bool = True
    metavar: str | None = None
    help: str | None = None


_PAIR = Option("--pair", "pair", parse_pair, required=True, metavar="A,B")
_N = Option("--n", "n", _nonnegative, required=True)
_PERM = Option("--perm", "perm", parse_perm, required=True, metavar='"a b c"')
_FORMAT = Option("--format", "format", choices=FORMATS, default="plain")

# Each command's help line and options, in the order that help lists them.
COMMANDS: dict[str, tuple[str, tuple[Option, ...]]] = {
    "count": ("closed-form size of an avoidance class", (_PAIR, _N)),
    "enumerate": ("list the class members in lexicographic order", (_PAIR, _N, _FORMAT)),
    "stats": ("the eight statistics of one permutation", (_PERM, _FORMAT)),
    "table": ("joint distribution polynomial at one length", (
        _PAIR,
        Option("--family", "family", choices=FAMILIES, required=True),
        _N,
        Option("--oracle", "oracle", default=False, takes_value=False,
               help="sum over the enumerated class instead of expanding the closed "
                    "form; defined for every pair, so it also answers for the finite "
                    "class 123,321, which has no closed form (0 for n >= 5)"),
        _FORMAT,
    )),
    "map": ("apply one of the statistic-exchanging maps", (
        Option("--which", "which", choices=tuple(_MAPS), required=True),
        _PERM,
    )),
    "verify": ("run the brute-force verification suite", (
        Option("scope", "scope", choices=SCOPES, default="all"),
        Option("--n-max", "n_max", _nonnegative),
    )),
    "catalog-dump": ("emit every stored formula for audit", (_FORMAT,)),
}

# Each command's options by option string: what the canonical reader matches.
_FLAGS = {command: {option.flag: option for option in options if option.flag.startswith("-")}
          for command, (_, options) in COMMANDS.items()}


def _usage(parse):
    """Argument type reporting ``parse``'s ValueError as a usage error."""
    import argparse

    @functools.wraps(parse)
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def build_parser():
    """A new argparse parser for the commands and options of :data:`COMMANDS`."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="avoidpair",
        description="Statistics over permutations avoiding a pair of length-3 patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option in options:
            if not option.takes_value:
                command.add_argument(option.flag, action="store_true",
                                     default=option.default, help=option.help)
            elif option.flag.startswith("-"):
                command.add_argument(
                    option.flag, type=option.parse and _usage(option.parse),
                    choices=option.choices, required=option.required,
                    default=option.default, metavar=option.metavar, help=option.help)
            else:
                command.add_argument(option.flag, nargs="?", choices=option.choices,
                                     default=option.default, help=option.help)
    return parser


@functools.cache
def _parser():
    # Building the parser costs about 15 parses, and parsing leaves it as it
    # was, so main builds it once per process, and only for a request that
    # the canonical reader leaves to argparse.
    return build_parser()


def _read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace one argparse parse gives ``argv`` when it is a
    canonically spelled request, read off :data:`COMMANDS`; None for any
    other argv.

    Canonical means: the first word names a command; every other word is one
    of that command's full option strings (so not ``-h``, ``--help`` or a
    positional) or that option's value (an option that takes no value has
    none); no option appears twice; no value starts with ``-``; every
    required option is present.  Only then is each value converted by its
    option's ``parse`` and then checked against its ``choices``, and each
    absent option gets its default.  A value either step rejects is left for
    argparse to report.
    """
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    given = {}
    words = iter(argv[1:])
    for word in words:
        option = flags.get(word)
        if option is None or option.dest in given:
            return None
        if option.takes_value:
            value = next(words, "-")
            if value.startswith("-"):
                return None
            given[option.dest] = value
        else:
            given[option.dest] = True
    args = SimpleNamespace(command=argv[0])
    for option in COMMANDS[argv[0]][1]:
        if option.dest in given:
            value = given[option.dest]
            if option.parse is not None:
                try:
                    value = option.parse(value)
                except ValueError:
                    return None
            if option.choices is not None and value not in option.choices:
                return None
        elif option.required:
            return None
        else:
            value = option.default
        setattr(args, option.dest, value)
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
    from . import stats

    values = stats.stat_vector(args.perm).to_json_obj()
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
    # Both sources import polys, so importing it here loads nothing more.
    from .polys import ExponentOverflowError, coefficient, json_term_text, monomial

    if args.oracle:
        from .oracle import brute_distribution

        poly = brute_distribution(args.pair, args.n, args.family)
    else:
        from . import catalog

        gf = catalog.gf_for(args.pair, args.family)
        try:
            # coefficient sizes its packed fields first and raises before any
            # work, then unpacks only the printed coefficient.
            poly = coefficient(gf, args.n)
        except ExponentOverflowError as exc:
            raise ExponentOverflowError(f"table --n {args.n} is too large: {exc}") from None
    if args.format == "json":
        _print_json_list(itertools.starmap(json_term_text, poly.terms()))
    elif args.format == "csv":
        rows = [(args.n, monomial(exps), coeff) for exps, coeff in poly.terms()]
        print(_csv_rows(rows, ["n", "monomial", "coefficient"]))
    else:
        print(poly)
    return 0


def _cmd_map(args) -> int:
    from . import bijections

    print(format_perm(getattr(bijections, _MAPS[args.which])(args.perm)))
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
    joint = catalog.joint_audit_order()
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
        labelled += [(f"{format_pair(pair)} {stat}", entry)
                     for (pair, stat), entry in catalog.single_audit_order()]
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
    # A canonically spelled request is read off COMMANDS with no parse.  Any
    # other is parsed once, by the top-level parser, which writes every usage
    # error and help text itself.
    args = _read_canonical(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DataError) else 2
    except BrokenPipeError:
        # The reader closed the pipe.  Python flushes stdout again at exit,
        # so point it at devnull to keep that flush from raising too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
