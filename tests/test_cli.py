"""CLI behaviour: output bytes in-process, exit codes end-to-end."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avoidpair import catalog, cli, perms, verify
from avoidpair.bijections import LAYERED_PAIR, NotInClassError, layered_compose
from avoidpair.cli import main
from avoidpair.oracle import brute_distribution
from avoidpair.perms import (
    CANONICAL_PAIRS,
    FINITE_PAIR,
    FiniteClassError,
    all_pairs,
    all_perms,
    avoids_pair,
    enumerate_class,
    format_pair,
    format_perm,
    parse_pair,
)
from avoidpair.polys import MultiPoly, coefficient, expand


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "avoidpair", *argv],
        capture_output=True,
        text=True,
    )


class TestCount:
    def test_doubling_class(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pair", "123,132", "--n", "10")
        assert code == 0 and out == "512\n"

    def test_finite_class(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pair", "123,321", "--n", "7")
        assert code == 0 and out == "0\n"

    def test_longest_printable_count(self, capsys):
        # 2 ** 14284 has 4,300 digits, Python's default int-to-str limit
        code, out, _ = run_cli(capsys, "count", "--pair", "123,132", "--n", "14285")
        assert code == 0 and out == f"{2 ** 14284}\n" and len(out) == 4301

    def test_count_too_long_to_print_is_a_usage_error(self, capsys):
        for n in ("14286", str(10**12)):
            code, out, err = run_cli(capsys, "count", "--pair", "213,231", "--n", n)
            assert code == 2 and out == ""
            assert err == f"error: the count at n = {n} has more than 4300 digits\n"

    def test_quadratic_class_too_long_to_print_is_a_usage_error(self, capsys):
        # 1 + C(n, 2) has about 4,400 digits at n = 10**2200
        n = str(10**2200)
        code, out, err = run_cli(capsys, "count", "--pair", "132,321", "--n", n)
        assert code == 2 and out == ""
        assert err == f"error: the count at n = {n} has more than 4300 digits\n"

    def test_quadratic_class_at_the_digit_limit(self, capsys):
        limit = 10**4300
        last = math.isqrt(2 * limit) + 1  # C(n, 2) >= (n - 1)^2 / 2: no later n prints
        while 1 + math.comb(last, 2) >= limit:
            last -= 1
        assert 1 + math.comb(last + 1, 2) >= limit
        code, out, _ = run_cli(capsys, "count", "--pair", "132,321", "--n", str(last))
        assert code == 0 and out == f"{1 + math.comb(last, 2)}\n" and len(out) == 4301
        code, out, err = run_cli(capsys, "count", "--pair", "132,321", "--n", str(last + 1))
        assert code == 2 and out == ""
        assert err == f"error: the count at n = {last + 1} has more than 4300 digits\n"

    def test_slow_classes_still_print_at_large_n(self, capsys):
        n = 10**12
        code, out, _ = run_cli(capsys, "count", "--pair", "132,321", "--n", str(n))
        assert code == 0 and out == f"{1 + n * (n - 1) // 2}\n"
        code, out, _ = run_cli(capsys, "count", "--pair", "123,321", "--n", str(n))
        assert code == 0 and out == "0\n"

    @pytest.mark.parametrize("n, lengths", [
        (13000, [13000]),  # past 3 * 4300 digits, below the probe length
        (20000, [14286, 20000]),  # the probe at 2 ** 14285's length, then n
    ])
    def test_large_count_is_computed_once(self, capsys, monkeypatch, n, lengths):
        calls = []

        def counting(pair, length):
            calls.append(length)
            return perms.class_count(pair, length)

        monkeypatch.setattr(cli, "class_count", counting)
        code, out, _ = run_cli(capsys, "count", "--pair", "132,321", "--n", str(n))
        assert code == 0 and out == f"{1 + math.comb(n, 2)}\n"
        assert calls == lengths


class TestLengthArguments:
    """--n and --n-max take ASCII digits only, as --perm does."""

    COMMANDS = {
        "count": ("count", "--pair", "123,132", "--n"),
        "table": ("table", "--pair", "231,312", "--family", "G", "--n"),
        "verify": ("verify", "counts", "--n-max"),
    }

    def usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        return err.splitlines()[-1]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("text", ["\u0665", "\uff15", "1_0", "+3", "3.0", "- 3", ""])
    def test_anything_but_ascii_digits_is_not_an_integer(self, capsys, command, text):
        argv = self.COMMANDS[command]
        assert self.usage_error(capsys, (*argv, text)) == (
            f"avoidpair {command}: error: argument {argv[-1]}: not an integer: {text!r}")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("text", ["-3", " -3", "-0"])
    def test_a_minus_sign_is_negative(self, capsys, command, text):
        argv = self.COMMANDS[command]
        assert self.usage_error(capsys, (*argv, text)) == (
            f"avoidpair {command}: error: argument {argv[-1]}: must be non-negative")

    def test_surrounding_whitespace_is_allowed(self, capsys):
        assert run_cli(capsys, "count", "--pair", "123,132", "--n", " 3\n") == (0, "4\n", "")


class TestEnumerate:
    def test_plain_lines(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--pair", "231,312", "--n", "3")
        assert code == 0
        assert out == "1 2 3\n1 3 2\n2 1 3\n3 2 1\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--pair", "231,312", "--n", "3", "--format", "json"
        )
        assert json.loads(out) == [[1, 2, 3], [1, 3, 2], [2, 1, 3], [3, 2, 1]]

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--pair", "231,312", "--n", "2", "--format", "csv"
        )
        assert out == "perm\n1 2\n2 1\n"

    @pytest.mark.parametrize("pair", ["213,231", "132,312", "213,312", "132,231"])
    def test_n12_matches_its_pinned_digest(self, capsys, pair):
        # the file is in `sha256sum -c` format: a digest and a file name a line
        text = (Path(__file__).parent / "data" / "enumerate_n12.sha256").read_text()
        pinned = {name: digest for digest, name in (line.split("  ") for line in text.splitlines())}
        code, out, err = run_cli(capsys, "enumerate", "--pair", pair, "--n", "12")
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == pinned[f"enumerate_{pair}_n12.txt"]


class TestStats:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--perm", "3 4 1 5 2")
        assert code == 0
        assert out == (
            "asc 2\ndes 2\nlrmax 3\nlrmin 2\nrlmax 2\nrlmin 2\nmna 2\nmnd 2\n"
        )

    def test_json_and_csv_bytes(self, capsys):
        expected = {
            "json": '{"asc": 2, "des": 2, "lrmax": 3, "lrmin": 2, '
                    '"rlmax": 2, "rlmin": 2, "mna": 2, "mnd": 2}\n',
            "csv": "stat,value\nasc,2\ndes,2\nlrmax,3\nlrmin,2\n"
                   "rlmax,2\nrlmin,2\nmna,2\nmnd,2\n",
        }
        for fmt, text in expected.items():
            assert run_cli(capsys, "stats", "--perm", "3 4 1 5 2", "--format", fmt) == (
                0, text, "",
            )

    def test_json_flat_object(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--perm", "1 2", "--format", "json")
        assert json.loads(out) == {
            "asc": 1, "des": 0, "lrmax": 2, "lrmin": 1,
            "rlmax": 1, "rlmin": 2, "mna": 1, "mnd": 0,
        }

    # int() reads each of these as 2 1 or 2 10 3 ... 1: a sign, Arabic-Indic
    # digits, an underscore between digits
    @pytest.mark.parametrize("perm", ["+2 1", "٢ ١", "2 1_0 3 4 5 6 7 8 9 1"])
    def test_words_other_than_ascii_digits_are_malformed(self, capsys, perm):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--perm", perm])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(
            f"error: argument --perm: malformed permutation {perm!r}\n"
        )

    @pytest.mark.parametrize("perm, message", [
        ("2 0", "value 0 out of range for length 2"),
        ("1 3", "value 3 out of range for length 2"),
        ("2 x", "malformed permutation '2 x'"),
    ])
    def test_out_of_range_and_non_numeric_messages(self, capsys, perm, message):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--perm", perm])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --perm: {message}\n")


class TestTable:
    def test_plain_layered_at_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--pair", "231,312", "--family", "G", "--n", "3",
            "--format", "plain",
        )
        assert code == 0 and out == "p^2 y + 2 p q y z + q^2 z\n"

    def test_csv_long_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--pair", "231,312", "--family", "G", "--n", "3",
            "--format", "csv",
        )
        assert out == (
            "n,monomial,coefficient\n"
            "3,p^2 y,1\n"
            "3,p q y z,2\n"
            "3,q^2 z,1\n"
        )

    def test_oracle_and_closed_form_agree_for_all_pairs(self, capsys):
        for pair in all_pairs():
            if pair == FINITE_PAIR:
                continue
            pair_text = f"{''.join(map(str, pair[0]))},{''.join(map(str, pair[1]))}"
            for family in ("F", "G"):
                for n in range(9):
                    _, from_gf, _ = run_cli(
                        capsys, "table", "--pair", pair_text, "--family", family,
                        "--n", str(n),
                    )
                    _, from_oracle, _ = run_cli(
                        capsys, "table", "--pair", pair_text, "--family", family,
                        "--n", str(n), "--oracle",
                    )
                    assert from_gf == from_oracle, (pair_text, family, n)

    def test_plain_bytes_at_ten_for_every_infinite_pair(self, capsys):
        # table_n10.txt holds F then G for each pair in all_pairs() order
        out = []
        for pair in all_pairs():
            if pair == FINITE_PAIR:
                continue
            for family in ("F", "G"):
                code, text, err = run_cli(
                    capsys, "table", "--pair", format_pair(pair), "--family", family,
                    "--n", "10",
                )
                assert code == 0 and err == ""
                out.append(text)
        expected = (Path(__file__).parent / "data" / "table_n10.txt").read_bytes()
        assert "".join(out).encode() == expected

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_format_bytes_at_ten_for_every_infinite_pair(self, capsys, fmt):
        # the same cases in the same order as table_n10.txt, in JSON and CSV
        out = []
        for pair in all_pairs():
            if pair == FINITE_PAIR:
                continue
            for family in ("F", "G"):
                code, text, err = run_cli(
                    capsys, "table", "--pair", format_pair(pair), "--family", family,
                    "--n", "10", "--format", fmt,
                )
                assert code == 0 and err == ""
                out.append(text)
        expected = (Path(__file__).parent / "data" / f"table_n10_{fmt}.txt").read_bytes()
        assert "".join(out).encode() == expected

    @pytest.mark.parametrize("pair, family, n", [("231,312", "G", "60"), ("132,213", "F", "30")])
    def test_benchmark_size_json_matches_its_pinned_digest(self, capsys, pair, family, n):
        # the file is in `sha256sum -c` format: a digest and a file name a line
        text = (Path(__file__).parent / "data" / "table_benchmark_sizes.sha256").read_text()
        pinned = {name: digest for digest, name in (line.split("  ") for line in text.splitlines())}
        code, out, err = run_cli(
            capsys, "table", "--pair", pair, "--family", family, "--n", n, "--format", "json"
        )
        assert code == 0 and err == ""
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == pinned[f"table_{pair}_{family}_n{n}.json"]

    @pytest.mark.parametrize("pair, family", [("123,132", "F"), ("231,312", "G")])
    def test_too_large_n_is_a_usage_error(self, capsys, pair, family):
        # the packed exponents of the expansion would need more than 64 bits
        n = str(10**19)
        code, out, err = run_cli(
            capsys, "table", "--pair", pair, "--family", family, "--n", n
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: table --n {n} is too large: "
            "marker exponents up to 20000000000000000002 do not fit a 64-bit field\n"
        )

    def test_large_representable_n_still_prints(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--pair", "123,132", "--family", "F", "--n", "60"
        )
        poly = expand(catalog.gf_for(parse_pair("123,132"), "F"), 60).coeffs[60]
        assert code == 0 and err == "" and out == f"{poly}\n"
        for name in "pquvst":
            poly = poly.substitute_one(name)
        assert poly == MultiPoly.const(2**59)

    def test_finite_pair_is_a_data_error(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--pair", "123,321", "--family", "G", "--n", "3"
        )
        assert code == 1 and "finite class" in err

    def test_finite_pair_with_oracle_still_works(self, capsys):
        # S_3(123, 321) = {132, 213, 231, 312}; each contributes p q y z
        code, out, _ = run_cli(
            capsys, "table", "--pair", "123,321", "--family", "G", "--n", "3",
            "--oracle",
        )
        assert code == 0
        assert out == "4 p q y z\n"


def map_rejection_perms():
    """Map arguments outside the layered class that both maps decode."""
    perms = [perm for perm in all_perms(4) if not avoids_pair(perm, LAYERED_PAIR)]
    # 60 long: a 312 planted after a layered prefix, a 231 before one
    prefix = layered_compose((3, 1, 4, 2, 5, 1, 6, 3, 7, 2, 8, 3, 9, 3))
    perms.append(prefix + (60, 58, 59))
    perms.append((2, 3, 1) + tuple(v + 3 for v in prefix))
    for seed in range(3):
        values = list(range(1, 51))
        random.Random(seed).shuffle(values)
        perms.append(tuple(values))
    return perms


def map_rejections_transcript():
    """Each rejected ``map`` call, its exit code and its stderr, in turn."""
    blocks = []
    for perm, which in itertools.product(map_rejection_perms(), ("f", "g")):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["map", "--which", which, "--perm", format_perm(perm)])
        assert stdout.getvalue() == ""
        blocks.append(f'$ avoidpair map --which {which} --perm "{format_perm(perm)}"\n'
                      f"exit {code}\n{stderr.getvalue()}")
    return "".join(blocks)


def map_images_transcript():
    """Both maps' ``map`` output on every layered member of length 8, in turn."""
    blocks = []
    for perm, which in itertools.product(enumerate_class(LAYERED_PAIR, 8), ("f", "g")):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["map", "--which", which, "--perm", format_perm(perm)])
        assert stderr.getvalue() == ""
        blocks.append(f'$ avoidpair map --which {which} --perm "{format_perm(perm)}"\n'
                      f"exit {code}\n{stdout.getvalue()}")
    return "".join(blocks)


class TestMap:
    def test_transfer_of_12(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--which", "g", "--perm", "1 2")
        assert code == 0 and out == "2 1\n"

    def test_complement_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "--which", "f",
            "--perm", "1 2 4 3 5 8 7 6 9 14 13 12 11 10",
        )
        assert code == 0
        assert out == "3 2 1 6 5 4 7 10 9 8 11 12 13 14\n"

    def test_non_member_is_a_data_error_with_the_occurrence(self, capsys):
        assert run_cli(capsys, "map", "--which", "f", "--perm", "2 3 1") == (
            1, "", "error: 2 3 1 contains 231 at positions (1, 2, 3) (values 2 3 1)\n")

    def test_empty_perm_is_a_usage_error(self, capsys):
        for which in ("f", "g"):
            code, out, err = run_cli(capsys, "map", "--which", which, "--perm", "")
            assert code == 2 and out == ""
            assert err == "error: map is defined for n >= 1 only\n"

    def test_rejections_match_the_recorded_transcript(self):
        expected = (Path(__file__).parent / "data" / "map_rejections.txt").read_text()
        assert map_rejections_transcript() == expected

    def test_images_match_the_recorded_transcript(self):
        expected = (Path(__file__).parent / "data" / "map_images_n8.txt").read_text()
        assert map_images_transcript() == expected


class TestVerify:
    def test_default_run_prints_the_recorded_reports(self, capsys):
        expected = (Path(__file__).parent / "data" / "verify_default.jsonl").read_text()
        assert run_cli(capsys, "verify") == (0, expected, "")

    @pytest.mark.parametrize("seed", ["0", "4242"])
    def test_default_run_does_not_depend_on_the_hash_seed(self, seed):
        # The oracle counts members in generation order, not sorted order:
        # its output must not depend on set or dict iteration either.
        result = subprocess.run([sys.executable, "-m", "avoidpair", "verify"],
                                capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
        expected = (Path(__file__).parent / "data" / "verify_default.jsonl").read_bytes()
        assert (result.returncode, result.stdout, result.stderr) == (0, expected, b"")

    def test_small_full_run_emits_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 34
        for line in lines:
            payload = json.loads(line)
            assert payload["status"] == "pass"

    def test_scoped_runs(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "counts", "--n-max", "6")
        assert code == 0 and len(out.strip().split("\n")) == 1
        code, out, _ = run_cli(capsys, "verify", "maps", "--n-max", "5")
        assert code == 0 and len(out.strip().split("\n")) == 5

    @pytest.mark.parametrize("scope", [[], ["all"], ["maps"]])
    def test_an_empty_map_range_is_a_usage_error_before_any_check(self, capsys, monkeypatch,
                                                                  scope):
        def no_check(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in ("check_counts", "check_gf", "check_equidistribution_maps"):
            monkeypatch.setattr(verify, name, no_check)
        code, out, err = run_cli(capsys, "verify", *scope, "--n-max", "0")
        assert (code, out) == (2, "")
        assert err == "error: the map checks start at n = 1, so n_max must be at least 1, got 0\n"

    @pytest.mark.parametrize("scope, lines", [("counts", 1), ("gf", 28)])
    def test_scopes_without_maps_check_length_zero(self, capsys, scope, lines):
        code, out, err = run_cli(capsys, "verify", scope, "--n-max", "0")
        reports = [json.loads(line) for line in out.splitlines()]
        assert (code, err, len(reports)) == (0, "", lines)
        assert all(r["n_range"] == [0, 0] and r["status"] == "pass" for r in reports)


class TestOneErrorPath:
    """main alone turns a request a handler rejects into its exit code and
    one stderr line: 1 for a data error, 2 for any other ValueError."""

    @pytest.mark.parametrize("command, name", [
        (("count", "--pair", "123,132", "--n", "5"), "class_count"),
        (("enumerate", "--pair", "231,312", "--n", "3"), "enumerate_class"),
    ])
    @pytest.mark.parametrize("error, code", [
        (ValueError("boom"), 2),
        (NotInClassError((2, 3, 1), (2, 3, 1), (1, 2, 3)), 1),
        (FiniteClassError("boom"), 1),
        (perms.DataError("boom"), 1),
    ], ids=["ValueError", "NotInClassError", "FiniteClassError", "DataError"])
    def test_a_rejected_request_exits_with_its_code_and_one_line(
            self, capsys, monkeypatch, command, name, error, code):
        def reject(*args):
            raise error

        monkeypatch.setattr(cli, name, reject)
        assert run_cli(capsys, *command) == (code, "", f"error: {error}\n")

    def test_every_data_error_is_one_class(self):
        assert issubclass(NotInClassError, perms.DataError)
        assert issubclass(FiniteClassError, perms.DataError)
        assert issubclass(perms.DataError, ValueError)

    def test_only_main_writes_an_error_line(self):
        source = Path(cli.__file__).read_text()
        assert source.count('print(f"error: ') == 1
        assert "return 2" not in source


class TestCatalogDump:
    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "catalog-dump", "--format", "json")
        data = json.loads(out)
        assert sorted(data) == ["joint", "single"]
        assert data["joint"]["G"]["213,312"]["oracle_corrected"] is True

    def test_plain_mentions_corrections(self, capsys):
        code, out, _ = run_cli(capsys, "catalog-dump")
        assert "G 213,312 (oracle-corrected)" in out
        assert "213,312 mna (oracle-corrected)" in out

    def test_plain_renders_every_stored_entry(self, capsys):
        # Rendered from the catalog's entry lookups, independently of dump()
        lines = []

        def render(label, entry):
            corrected = " (oracle-corrected)" if entry.oracle_corrected else ""
            lines.extend([f"{label}{corrected}", f"  num: {entry.gf.num}",
                          f"  den: {entry.gf.den}"])

        pairs = sorted(format_pair(pair) for pair in CANONICAL_PAIRS if pair != FINITE_PAIR)
        for family in sorted(catalog.FAMILIES):
            for text in pairs:
                render(f"{family} {text}", catalog.canonical_entry(parse_pair(text), family))
        for text in pairs:
            for stat in catalog.STAT_NAMES:
                render(f"{text} {stat}", catalog.single_stat_entry(parse_pair(text), stat))
        code, out, _ = run_cli(capsys, "catalog-dump", "--format", "plain")
        assert code == 0 and out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fmt, name", [("csv", "catalog_dump.csv"),
                                           ("plain", "catalog_dump.txt")])
    def test_plain_and_csv_print_the_stored_entries_without_the_wire_format(
            self, capsys, monkeypatch, fmt, name):
        def no_round_trip(*args, **kwargs):
            raise AssertionError("the wire format was parsed back")

        monkeypatch.setattr(MultiPoly, "from_json_terms", no_round_trip)
        monkeypatch.setattr(catalog, "_entry_json", no_round_trip)
        expected = (Path(__file__).parent / "data" / name).read_bytes()
        code, out, err = run_cli(capsys, "catalog-dump", "--format", fmt)
        assert (code, out.encode(), err) == (0, expected, "")

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "catalog-dump", "--format", "csv")
        assert out.startswith("family,pair,part,monomial,coefficient\n")

    @pytest.mark.parametrize("fmt, name", [("json", "catalog_dump.json"),
                                           ("csv", "catalog_dump.csv"),
                                           ("plain", "catalog_dump.txt")])
    def test_bytes_match_the_recorded_dump(self, capsys, fmt, name):
        expected = (Path(__file__).parent / "data" / name).read_bytes()
        code, out, err = run_cli(capsys, "catalog-dump", "--format", fmt)
        assert (code, out.encode(), err) == (0, expected, "")


class TestSharedParser:
    """main builds its parser once per process; reusing it changes no byte."""

    # usage errors and help first, so the valid requests after them run on a
    # parser that has already exited through argparse
    ARGVS = [
        ("stats", "--perm", "1 x"),
        ("count", "--help"),
        ("verify", "bogus"),
        ("count", "--pair", "123,132", "--n", "10"),
        ("table", "--pair", "231,312", "--family", "G", "--n", "4", "--format", "json"),
        ("map", "--which", "f", "--perm", "1 3 2"),
        ("count", "--pair", "123,132", "--n", "3", "extra"),
    ]

    def test_each_call_matches_a_fresh_process(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the width help is wrapped to
        for argv in self.ARGVS:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = run_process(*argv)
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        # abbreviated, so that argparse parses it
        assert run_cli(capsys, "count", "--pa", "123,132", "--n", "3") == (0, "4\n", "")
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert run_cli(capsys, "count", "--pa", "123,132", "--n", "4") == (0, "8\n", "")


class TestOneParse:
    """main reads a canonically spelled request off the option table, with
    no argparse parse, and parses any other once, with the top-level parser;
    either way it gets what one parse by the top-level parser gets: a
    namespace with the same attributes, or the same exit code, stdout and
    stderr.

    Namespaces are compared by ``vars()``: the reader's SimpleNamespace and
    argparse's Namespace never compare equal to each other, and
    ``Namespace.__eq__`` itself compares exactly ``vars()``."""

    ARGVS = [
        (),
        ("--help",),
        ("-h", "count"),
        ("tabel",),
        ("--pair", "123,132"),
        ("count",),
        ("count", "--pair", "123,132", "--n", "3"),
        ("count", "--n", "3", "--pair", "123,132"),
        ("count", "--pair=123,132", "--n=3"),
        ("count", "--pa", "123,132", "--n", "3"),
        ("count", "--pair", "123,132", "--n", "3", "extra"),
        ("count", "--pair", "123,132", "--n", "3", "--bogus"),
        ("count", "--pair", "123,132", "--n", "3", "--"),
        ("count", "--", "--pair", "123,132", "--n", "3"),
        ("count", "--pair", "123,132", "--n"),
        ("count", "--pair", "1x3,132", "--n", "3"),
        ("count", "--pair", "123,132", "--n", "+3"),
        ("count", "-h"),
        ("enumerate",),
        ("enumerate", "--format", "csv", "--n", "4", "--pair", "132,213"),
        ("enumerate", "--pair", "132,213", "--n", "4", "--form=json"),
        ("enumerate", "--pair", "132,213", "--n", "4", "--format", "xml"),
        ("enumerate", "--pair", "132,213", "--n", "4", "4"),
        ("enumerate", "--help"),
        ("stats",),
        ("stats", "--perm", "2 1 3"),
        ("stats", "--format", "json", "--perm=2 1 3"),
        ("stats", "--perm", "1 1"),
        ("stats", "--perm", "2 1 3", "2"),
        ("stats", "--perm", "2 1 3", "-h"),
        ("table",),
        ("table", "--pair", "231,312", "--family", "G", "--n", "4"),
        ("table", "--fam", "G", "--n", "4", "--pair", "231,312", "--oracle"),
        ("table", "--pair=231,312", "--family=F", "--n=4", "--format=csv"),
        ("table", "--pair", "231,312", "--family", "H", "--n", "4"),
        ("table", "--pair", "231,312", "--family", "G", "--n", "-1"),
        ("table", "--pair", "231,312", "--family", "G", "--n", "4", "--oracle", "yes"),
        ("table", "--pair", "231,312", "--family", "G", "--n", "4", "-x"),
        ("table", "--pair", "231,312", "--family", "G", "--n", "4", "--", "--oracle"),
        ("table", "-h"),
        ("map",),
        ("map", "--perm", "1 3 2", "--which", "g"),
        ("map", "--which=f", "--perm=1 3 2"),
        ("map", "--which", "h", "--perm", "1"),
        ("map", "--which", "f"),
        ("map", "--which", "f", "--perm", "1 3 2", "--which"),
        ("map", "--help"),
        ("verify",),
        ("verify", "--n-max", "3"),
        ("verify", "--n-max", "3", "--n-max", "4"),
        ("verify", "--n-max", "x", "--n-max", "3"),
        ("verify", "--n-max", "-1"),
        ("verify", "--n-max", "3", "-h"),
        ("verify", "counts", "--n-max", "3"),
        ("verify", "--n-max=3", "gf"),
        ("verify", "--", "maps"),
        ("verify", "bogus"),
        ("verify", "counts", "gf"),
        ("verify", "counts", "--n-max", "x"),
        ("verify", "-h"),
        ("catalog-dump",),
        ("catalog-dump", "--format", "csv"),
        ("catalog-dump", "--format"),
        ("catalog-dump", "extra"),
        ("catalog-dump", "-h"),
    ]

    @staticmethod
    def outcome(capsys, parse):
        """What ``parse`` returned, or how it exited and what it wrote."""
        try:
            args = parse()
        except SystemExit as exc:
            return exc.code, *capsys.readouterr()
        assert capsys.readouterr() == ("", "")
        return args

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_matches_one_top_level_parse(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the width help is wrapped to
        expected = self.outcome(capsys, lambda: cli._parser().parse_args(argv))
        seen = []
        monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, seen.append))
        got = self.outcome(capsys, lambda: main(list(argv)))
        if seen:
            assert isinstance(expected, argparse.Namespace) and vars(seen[0]) == vars(expected)
        else:
            assert got == expected

    def test_the_table_and_the_built_parser_agree_on_every_option(self):
        (sub,) = (action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction))
        assert list(sub.choices) == list(cli.COMMANDS)
        for name, (_, options) in cli.COMMANDS.items():
            help_action, *actions = sub.choices[name]._actions
            assert isinstance(help_action, argparse._HelpAction)
            assert len(actions) == len(options)
            for option, action in zip(options, actions):
                positional = not option.flag.startswith("-")
                assert action.option_strings == ([] if positional else [option.flag])
                assert action.dest == option.dest
                # each value parser, wrapped so argparse reports its ValueError
                assert getattr(action.type, "__wrapped__", None) is option.parse
                assert action.choices == option.choices
                assert action.required == option.required
                # no default is a string that argparse would convert
                assert action.default == option.default
                assert not (isinstance(action.default, str) and action.type is not None)
                assert action.nargs == ("?" if positional else None if option.takes_value
                                        else 0)

    def test_a_well_formed_request_is_parsed_once(self, capsys, monkeypatch):
        parses = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(parser, *args, **kwargs):
            parses.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        assert run_cli(capsys, "count", "--pair", "123,132", "--n", "3") == (0, "4\n", "")
        assert run_cli(capsys, "stats", "--perm", "2 1 3", "--format", "json")[0] == 0
        assert run_cli(capsys, "verify")[0] == 0
        assert run_cli(capsys, "verify", "--n-max", "3")[0] == 0
        assert parses == []
        assert run_cli(capsys, "count", "--pa", "123,132", "--n", "3") == (0, "4\n", "")
        assert parses == ["avoidpair", "avoidpair count"]

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["avoidpair", "count", "--pair", "123,132", "--n", "3"])
        assert main() == 0 and capsys.readouterr() == ("4\n", "")
        monkeypatch.setattr(sys, "argv", [*sys.argv, "extra"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: avoidpair [-h]")
        assert err.endswith("\navoidpair: error: unrecognized arguments: extra\n")


# Help for the program and each command, then usage errors that argparse
# reports and a few that a handler reports, recorded in cli_usage.txt.
USAGE_ARGVS = [
    ("--help",),
    *((command, "--help") for command in (
        "count", "enumerate", "stats", "table", "map", "verify", "catalog-dump")),
    (),
    ("tabel",),
    ("count", "--pair", "123,132"),
    ("count", "--pair", "123,132", "--n", "x"),
    ("count", "--pair", "123,132", "--n", "-3"),
    ("count", "--pair", "1x3,132", "--n", "3"),
    ("count", "--pair", "123,123", "--n", "3"),
    ("count", "--pair", "123,132", "--n", "3", "--bogus"),
    ("count", "--pair", "123,132", "--n", "3", "extra"),
    ("count", "--pair", "213,231", "--n", "14286"),
    ("enumerate", "--pair", "132,213", "--n", "4", "--format", "xml"),
    ("stats", "--perm", "1 1"),
    ("table", "--pair", "231,312", "--family", "H", "--n", "3"),
    ("table", "--pair", "123,321", "--family", "G", "--n", "3"),
    ("map", "--which", "h", "--perm", "1"),
    ("map", "--which", "f", "--perm", "2 3 1"),
    ("verify", "bogus"),
    ("verify", "--n-max", "x"),
    ("verify", "maps", "--n-max", "0"),
    ("catalog-dump", "--format"),
]


def usage_transcript():
    """Each ``USAGE_ARGVS`` request's exit code, stdout and stderr, in turn."""
    blocks = []
    for argv in USAGE_ARGVS:
        result, out, err = captured(lambda: main(list(argv)))
        code = result.code if isinstance(result, SystemExit) else result
        blocks.append(f"$ {shlex.join(['avoidpair', *argv])}\nexit {code}\n"
                      f"--- stdout\n{out}--- stderr\n{err}")
    return "".join(blocks)


class TestGoldenUsage:
    """Help and usage texts, byte for byte as recorded, at 80 columns."""

    def test_help_and_usage_errors_match_the_recorded_transcript(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the width help is wrapped to
        expected = (Path(__file__).parent / "data" / "cli_usage.txt").read_bytes()
        assert usage_transcript().encode() == expected


# --n and --n-max values: every short length, each class's first length past
# its enumeration limit, and lengths far past every limit.
LENGTHS = [str(n) for n in range(9)] + sorted(
    {str(limit + 1) for limit in perms.length_limits().values() if limit != math.inf},
    key=int) + ["1500", str(10 ** 19)]
# Closed-form table expands every length up to n, so it keeps to short ones
# and to one too large to pack, which is refused before any work.
TABLE_LENGTHS = LENGTHS[:9] + [str(10 ** 19)]
MALFORMED_LENGTHS = ["+3", "-1", "x", " 3 ", "\u0665"]
# Each option's well-formed values, then its malformed ones.
VALUES = {
    "--pair": (["231,312", "132,213", "132,321", "123,321", "213,231", "123,132"],
               ["1x3,132", "123,123", "", "-123,132"]),
    "--n": (LENGTHS, MALFORMED_LENGTHS),
    "--n-max": (LENGTHS, MALFORMED_LENGTHS),
    "--format": (cli.FORMATS, ["xml"]),
    "--family": (["F", "G"], ["H"]),
    "--perm": (["2 1 3", "1 3 2", "3 2 1 4", "2 3 1", ""], ["1 1", "x", "-1 2"]),
    "--which": (["f", "g"], ["h"]),
}


@st.composite
def requests(draw):
    """An argv for any command: each option spelled in full, as
    ``--opt=value`` or abbreviated, sometimes with a required option left
    out, ``--``, ``-h``, a duplicate or a leftover word added."""
    command = draw(st.sampled_from([*cli.COMMANDS, "tabel", None]))
    if command is None:
        return []
    if command not in cli.COMMANDS:
        return [command]
    options = [option for option in cli.COMMANDS[command][1] if option.flag.startswith("-")]
    # verify without --n-max runs the whole default suite
    chosen = [option for option in options if option.required or option.dest == "n_max"
              or draw(st.booleans())]
    if chosen and draw(st.integers(0, 9)) == 0:
        chosen.remove(draw(st.sampled_from(chosen)))
    oracle = any(option.dest == "oracle" for option in chosen)

    def spell(option, odds=7):
        name = option.flag
        good, bad = VALUES.get(name, ((), ()))
        if name == "--n" and command == "table" and not oracle:
            good = TABLE_LENGTHS
        value = None if not option.takes_value else draw(
            st.sampled_from(good if draw(st.integers(0, odds)) else bad))
        spelling = draw(st.sampled_from(["full"] * 10 + ["equals", "abbreviated"]))
        if spelling == "equals":
            return [f"{name}={'yes' if value is None else value}"]
        if spelling == "abbreviated":
            name = name[:draw(st.integers(3, max(3, len(name) - 1)))]
        return [name] if value is None else [name, value]

    groups = [spell(action) for action in chosen]
    if command == "verify" and draw(st.booleans()):
        groups.append([draw(st.sampled_from(["all", "counts", "gf", "maps", "bogus"]))])
    groups = draw(st.permutations(groups))
    extra = draw(st.sampled_from([None] * 12 + ["--", "-h", "extra"] + ["duplicate"] * 3))
    if extra == "duplicate" and chosen:
        # malformed as often as not: argparse converts every copy
        groups.insert(draw(st.integers(0, len(groups))),
                      spell(draw(st.sampled_from(chosen)), odds=1))
    elif extra in ("--", "-h", "extra"):
        groups.insert(draw(st.integers(0, len(groups))), [extra])
    return [command, *itertools.chain.from_iterable(groups)]


def captured(call):
    """What ``call`` returned, or how it exited, with what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc
    return result, out.getvalue(), err.getvalue()


class TestRequestContract:
    """Over argv drawn from every command and flag, main parses as argparse
    does and every request ends with exit 0, 1 or 2, never a traceback, and
    a rejected one with exactly one ``error:`` line."""

    @settings(max_examples=150, deadline=None)
    @given(requests())
    def test_parse_and_exit_code(self, argv):
        parsed, *written = captured(lambda: cli._parser().parse_args(argv))
        seen = []
        with mock.patch.object(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, seen.append)):
            got, *got_written = captured(lambda: main(argv))
        if isinstance(parsed, SystemExit):
            assert (got.code, got_written) == (parsed.code, written)
        else:
            assert [vars(args) for args in seen] == [vars(parsed)] and written == ["", ""]

        result, out, err = captured(lambda: main(argv))
        code = result.code if isinstance(result, SystemExit) else result
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 0:
            assert err == ""
        else:
            assert [line for line in err.splitlines() if "error: " in line] == [
                err.splitlines()[-1]]
            if not isinstance(result, SystemExit):
                assert err.startswith("error: ") and err.count("\n") == 1


class TestBoundedEndToEnd:
    """A length past the enumeration limit exits 2 with one stderr line,
    before any work, even in a child whose address space is capped."""

    @staticmethod
    def cap_address_space():
        limit = 512 * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--pair", "231,312", "--n", "1500"),
        ("table", "--pair", "231,312", "--family", "G", "--n", "1500", "--oracle"),
        ("verify", "maps", "--n-max", "40"),
        ("verify", "counts", "--n-max", "19"),
        ("verify", "gf", "--n-max", "19"),
        ("enumerate", "--pair", "132,321", "--n", "10000"),
    ], ids=" ".join)
    def test_exits_2_with_one_line(self, argv):
        result = subprocess.run([sys.executable, "-m", "avoidpair", *argv],
                                capture_output=True, text=True, timeout=30,
                                preexec_fn=self.cap_address_space)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr


class TestJsonItemByItem:
    """The JSON lists are written one item at a time, with the bytes of one
    json.dumps of the whole list."""

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_enumerate(self, capsys, n):
        members = enumerate_class(parse_pair("132,213"), n)
        expected = json.dumps([list(perm) for perm in members]) + "\n"
        assert run_cli(capsys, "enumerate", "--pair", "132,213", "--n", str(n),
                       "--format", "json") == (0, expected, "")
        if n == 0:
            assert expected == "[[]]\n"

    @pytest.mark.parametrize("family", ["F", "G"])
    def test_empty_oracle_table(self, capsys, family):
        for n in (5, 6):
            poly = brute_distribution(parse_pair("123,321"), n, family)
            expected = json.dumps(poly.to_json_terms()) + "\n"
            assert expected == "[]\n"
            assert run_cli(capsys, "table", "--pair", "123,321", "--family", family,
                           "--n", str(n), "--oracle", "--format", "json") == (0, expected, "")

    def test_largest_benchmark_table(self, capsys):
        gf = catalog.gf_for(parse_pair("132,213"), "F")
        expected = json.dumps(coefficient(gf, 20).to_json_terms()) + "\n"
        assert run_cli(capsys, "table", "--pair", "132,213", "--family", "F", "--n", "20",
                       "--format", "json") == (0, expected, "")


class _Length:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)

    def flush(self):
        pass


def test_json_table_memory_stays_within_a_few_times_its_output(monkeypatch):
    # Writing the whole document with one json.dumps peaked at about 24 times
    # the output; one item at a time it is below 4 times.
    argv = ["table", "--pair", "132,213", "--family", "F", "--n", "20", "--format", "json"]
    monkeypatch.setattr(sys, "stdout", _Length())
    assert main(argv) == 0  # the parser, the catalogue and json are built here
    sink = _Length()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.length == 94_733
    assert peak < 8 * sink.length


class TestExitCodesEndToEnd:
    """Real subprocess runs: 0 success, 1 data failure, 2 usage error."""

    def test_success(self):
        result = run_process("count", "--pair", "123,132", "--n", "5")
        assert result.returncode == 0 and result.stdout == "16\n"

    def test_usage_error_on_malformed_pair(self):
        result = run_process("count", "--pair", "2x1,312", "--n", "5")
        assert result.returncode == 2

    def test_usage_error_on_non_ascii_digits(self):
        # str.isdigit accepts both; int() rejects superscripts and reads
        # Arabic-Indic digits as 132
        for pattern in ("¹²³", "١٣٢"):
            result = run_process("count", "--pair", f"{pattern},123", "--n", "3")
            assert result.returncode == 2 and result.stdout == ""
            assert result.stderr.endswith(
                f"error: argument --pair: malformed pattern '{pattern}'\n"
            )

    def test_usage_error_on_malformed_perm(self):
        result = run_process("stats", "--perm", "1 1")
        assert result.returncode == 2

    def test_usage_error_on_unknown_flag_value(self):
        result = run_process("table", "--pair", "231,312", "--family", "H", "--n", "2")
        assert result.returncode == 2

    def test_data_error_on_class_violation(self):
        result = run_process("map", "--which", "g", "--perm", "3 1 2")
        assert result.returncode == 1
        assert "312" in result.stderr

    def test_verify_scoped_success(self):
        result = run_process("verify", "counts", "--n-max", "5")
        assert result.returncode == 0

    def test_verify_empty_map_range_is_a_usage_error(self):
        result = run_process("verify", "maps", "--n-max", "0")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_finite_pair_table_closed_form_fails_and_oracle_answers(self):
        # 123,321 has no rational form, so the closed-form path is a data
        # error; the oracle is defined for every pair and sums the class
        closed = run_process("table", "--pair", "123,321", "--family", "G", "--n", "3")
        assert closed.returncode == 1 and closed.stdout == ""
        assert closed.stderr == (
            "error: 123,321 is a finite class with no generating function; "
            "use class_count\n"
        )
        oracle = run_process(
            "table", "--pair", "123,321", "--family", "G", "--n", "3", "--oracle"
        )
        assert oracle.returncode == 0 and oracle.stderr == ""
        assert oracle.stdout == "4 p q y z\n"
        empty = run_process(
            "table", "--pair", "123,321", "--family", "F", "--n", "5", "--oracle"
        )
        assert empty.returncode == 0 and empty.stdout == "0\n" and empty.stderr == ""

    def test_closed_pipe_exits_1_without_a_traceback(self):
        # About 1.3 MB of output: the reader closes the pipe after one line
        proc = subprocess.Popen(
            [sys.executable, "-m", "avoidpair", "enumerate", "--pair", "123,132", "--n", "16"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"15 14 13 12 11 10 9 8 7 6 5 4 3 2 1 16\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1 and err == b""

    def test_determinism_byte_for_byte(self):
        first = run_process("table", "--pair", "132,213", "--family", "F", "--n", "4")
        second = run_process("table", "--pair", "132,213", "--family", "F", "--n", "4")
        assert first.stdout == second.stdout and first.returncode == 0


# Runs one command through cli.main in a fresh interpreter and prints, after
# its own output, the modules that importing cli and running it loaded.
_LOADED_BY = """
import sys
before = set(sys.modules)
from avoidpair import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before))
"""


class TestColdStartImports:
    """Each command loads only the modules it runs."""

    def loaded_by(self, *argv):
        result = subprocess.run([sys.executable, "-c", _LOADED_BY, *argv],
                                capture_output=True, text=True)
        assert result.stderr == ""
        *output, loaded = result.stdout.splitlines()
        code, *modules = loaded.split()
        return int(code), output, set(modules)

    def test_count_loads_no_closed_form_verify_or_format_module(self):
        code, output, loaded = self.loaded_by("count", "--pair", "123,132", "--n", "10")
        assert (code, output) == (0, ["512"])
        assert not loaded & {"avoidpair.polys", "avoidpair.catalog", "avoidpair.verify",
                             "dataclasses", "json", "csv", "argparse", "avoidpair.stats",
                             "avoidpair.bijections"}

    @pytest.mark.parametrize("argv, unused", [
        (("stats", "--perm", "3 4 1 5 2"), "avoidpair.bijections"),
        (("map", "--which", "g", "--perm", "1 3 2"), "avoidpair.stats"),
    ], ids=lambda value: value if isinstance(value, str) else " ".join(value))
    def test_stats_and_map_load_only_their_own_module(self, argv, unused):
        code, output, loaded = self.loaded_by(*argv)
        assert code == 0 and output and unused not in loaded

    @pytest.mark.parametrize("argv", [
        ("count", "--pair", "123,132", "--n", "3"),
        ("enumerate", "--n", "3", "--pair", "231,312", "--format", "csv"),
        ("stats", "--perm", "2 1 3"),
        ("table", "--pair", "231,312", "--family", "G", "--n", "3", "--oracle"),
        ("map", "--which", "f", "--perm", "1 3 2"),
        ("verify", "--n-max", "2"),
        ("catalog-dump", "--format", "csv"),
    ], ids=" ".join)
    def test_a_canonical_request_builds_no_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built"))
        monkeypatch.setattr(cli, "_parser", lambda: pytest.fail("parser used"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("argv", [
        ("stats", "--perm", "3 4 1 5 2"),
        ("map", "--which", "g", "--perm", "1 3 2"),
        ("enumerate", "--pair", "231,312", "--n", "3"),
    ])
    def test_brute_force_commands_load_no_closed_form_or_verify_module(self, argv):
        code, output, loaded = self.loaded_by(*argv)
        assert code == 0 and output
        assert not loaded & {"avoidpair.polys", "avoidpair.catalog", "avoidpair.verify",
                             "argparse"}

    @pytest.mark.parametrize("argv", [
        ("table", "--pair", "231,312", "--family", "G", "--n", "3"),
        ("table", "--pair", "132,213", "--family", "F", "--n", "20", "--format", "json"),
    ], ids=" ".join)
    def test_closed_form_table_loads_no_dataclasses_or_verify_module(self, capsys, argv):
        code, output, loaded = self.loaded_by(*argv)
        # the fresh process prints what main prints in process
        assert code == 0
        assert run_cli(capsys, *argv) == (0, "".join(f"{line}\n" for line in output), "")
        assert "avoidpair.catalog" in loaded
        assert not loaded & {"dataclasses", "inspect", "json", "avoidpair.verify"}

    @pytest.mark.parametrize("argv", [
        ("table", "--pair", "231,312", "--family", "G", "--n", "3"),
        ("table", "--pair", "231,312", "--family", "G", "--n", "3", "--oracle"),
        ("enumerate", "--pair", "231,312", "--n", "3"),
        ("stats", "--perm", "3 4 1 5 2"),
    ])
    def test_json_output_loads_no_json_module(self, argv):
        code, output, loaded = self.loaded_by(*argv, "--format", "json")
        assert code == 0 and output and output[0].startswith(("[", "{"))
        assert "json" not in loaded

    def test_oracle_table_loads_no_verify_or_catalog_module(self):
        code, output, loaded = self.loaded_by(
            "table", "--pair", "231,312", "--family", "G", "--n", "3", "--oracle")
        assert (code, output) == (0, ["p^2 y + 2 p q y z + q^2 z"])
        assert "avoidpair.oracle" in loaded
        assert not loaded & {"avoidpair.verify", "avoidpair.catalog", "dataclasses", "inspect"}
