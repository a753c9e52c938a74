"""Acceptance suite: the eight exit criteria, one test and one printed line each.

Every comparison is exact (integer or polynomial equality); there are no
tolerances anywhere.  Ranges: counts to n = 12, family G to n = 10, family F
to n = 9, corollaries to n = 12, maps to n = 12, greedy optimality to n = 8.
"""

import itertools
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager

from avoidpair import catalog
from avoidpair.bijections import LAYERED_PAIR, RUN_PAIR, complement_map, transfer_map
from avoidpair.perms import (
    CANONICAL_PAIRS,
    FINITE_PAIR,
    SYMMETRY_OPS,
    all_pairs,
    all_perms,
    enumerate_class,
    pattern_pair,
    reduce_to_canonical,
)
from avoidpair.polys import expand
from avoidpair.stats import FAMILY_MARKERS, mna, mnd, stat_vector
from avoidpair.verify import brute_distribution

INFINITE_PAIRS = [pair for pair in all_pairs() if pair != FINITE_PAIR]


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description}")


def quadruple(perm):
    vec = stat_vector(perm)
    return (vec.asc, vec.des, vec.mna, vec.mnd)


def swapped(quad):
    return (quad[1], quad[0], quad[3], quad[2])


def test_criterion_1_counting():
    with criterion(1, "class sizes match the closed-form counts, 15 pairs, n <= 12"):
        for pair in all_pairs():
            for n in range(13):
                assert len(enumerate_class(pair, n)) == catalog.class_count(pair, n), (
                    pair,
                    n,
                )


def test_criterion_2_four_stat_family_replication():
    with criterion(2, "G coefficients equal brute-force (p,q,y,z) joint polynomials, n <= 10"):
        for pair in INFINITE_PAIRS:
            table = expand(catalog.gf_for(pair, "G"), 10)
            for n in range(11):
                assert table.coeffs[n] == brute_distribution(pair, n, "G"), (pair, n)
        # the two run-structured classes share one closed form verbatim
        assert catalog.canonical_gf(
            pattern_pair((2, 3, 1), (3, 1, 2)), "G"
        ) == catalog.canonical_gf(pattern_pair((2, 1, 3), (2, 3, 1)), "G")


def test_criterion_3_six_stat_family_replication():
    with criterion(3, "F coefficients equal brute-force six-statistic polynomials, n <= 9"):
        for pair in INFINITE_PAIRS:
            table = expand(catalog.gf_for(pair, "F"), 9)
            for n in range(10):
                assert table.coeffs[n] == brute_distribution(pair, n, "F"), (pair, n)


def test_criterion_4_corollary_specialization():
    with criterion(4, "all 40 single-statistic forms equal their joint-form specializations, n <= 12"):
        for pair in CANONICAL_PAIRS:
            if pair == FINITE_PAIR:
                continue
            for stat in catalog.STAT_NAMES:
                family = "G" if stat in FAMILY_MARKERS["G"] else "F"
                markers = FAMILY_MARKERS[family].values()
                keep = FAMILY_MARKERS[family][stat]
                drop = [m for m in markers if m != keep]
                specialized = expand(catalog.gf_for(pair, family).substitute_one(*drop), 12)
                entry = catalog.single_stat_entry(pair, stat)
                direct = expand(entry.gf, 12)
                assert specialized.coeffs == direct.coeffs, (pair, stat)
                if entry.oracle_corrected:
                    # documented anomaly: the raw transcription misses the
                    # empty permutation, so raw + 1 is the recorded fix
                    assert entry.gf.num == entry.raw.num + entry.raw.den
                    assert entry.raw.num.constant_term() == 0
        corrected = {
            (pair, stat)
            for pair in CANONICAL_PAIRS
            if pair != FINITE_PAIR
            for stat in catalog.STAT_NAMES
            if catalog.single_stat_entry(pair, stat).oracle_corrected
        }
        prefix_pair = pattern_pair((2, 1, 3), (3, 1, 2))
        assert corrected == {(prefix_pair, "mna"), (prefix_pair, "mnd")}


def test_criterion_5_symmetry_identities():
    with criterion(5, "each op's variable recipe reproduces the image class, F n <= 9 / G n <= 10"):
        for canonical in CANONICAL_PAIRS:
            if canonical == FINITE_PAIR:
                continue
            for op in ("r", "c", "rc"):
                image_pair = pattern_pair(
                    SYMMETRY_OPS[op](canonical[0]), SYMMETRY_OPS[op](canonical[1])
                )
                assert reduce_to_canonical(image_pair)[0] == canonical
                for family, n_max in (("F", 9), ("G", 10)):
                    transformed = catalog.canonical_gf(canonical, family).rename(
                        catalog.RECIPES[family][op]
                    )
                    table = expand(transformed, n_max)
                    for n in range(n_max + 1):
                        assert table.coeffs[n] == brute_distribution(
                            image_pair, n, family
                        ), (canonical, op, family, n)


def test_criterion_6_bijection_suite():
    with criterion(6, "involution and transfer map exchange (asc,des,mna,mnd) with the stated fixed points, n <= 12"):
        for n in range(1, 13):
            layered = enumerate_class(LAYERED_PAIR, n)
            run_class = set(enumerate_class(RUN_PAIR, n))
            transfer_images = set()
            transfer_fixed = 0
            for member in layered:
                # the maps take and return tuples; the members are bytes
                perm = tuple(member)
                quad = quadruple(perm)
                image = complement_map(perm)
                assert complement_map(image) == perm
                if n >= 2:
                    assert image != perm
                assert quadruple(image) == swapped(quad)

                moved = transfer_map(perm)
                assert bytes(moved) in run_class and bytes(moved) not in transfer_images
                transfer_images.add(bytes(moved))
                assert quadruple(moved) == swapped(quad)
                if moved == perm:
                    transfer_fixed += 1
            assert transfer_images == run_class
            assert transfer_fixed == (1 if n % 2 else 0)
            # composing the two maps carries the multiset across classes
            via_both = Counter(
                quadruple(transfer_map(complement_map(perm))) for perm in layered
            )
            assert via_both == Counter(quadruple(perm) for perm in run_class)


def _run(*argv):
    return subprocess.run(
        [sys.executable, "-m", "avoidpair", *argv], capture_output=True, text=True
    )


def test_criterion_7_micro_examples_through_the_cli():
    with criterion(7, "documented micro-examples reproduce byte-exactly through the CLI"):
        result = _run("stats", "--perm", "3 4 1 5 2")
        assert result.returncode == 0
        assert result.stdout == (
            "asc 2\ndes 2\nlrmax 3\nlrmin 2\nrlmax 2\nrlmin 2\nmna 2\nmnd 2\n"
        )

        result = _run("stats", "--perm", "1 3 2 5 4")
        assert "mnd 2\n" in result.stdout and "des 2\n" in result.stdout

        result = _run("stats", "--perm", "3 2 1 5 4")
        assert "mnd 2\n" in result.stdout and "des 3\n" in result.stdout

        result = _run("map", "--which", "f", "--perm", "1 2 4 3 5 8 7 6 9 14 13 12 11 10")
        assert result.stdout == "3 2 1 6 5 4 7 10 9 8 11 12 13 14\n"

        result = _run("map", "--which", "g", "--perm", "1 2 4 3 5 8 7 6 9 14 13 12 11 10")
        assert result.stdout == "1 2 3 4 14 13 5 6 12 11 7 10 9 8\n"

        result = _run("map", "--which", "g", "--perm", "1 2")
        assert result.stdout == "2 1\n"

        result = _run("count", "--pair", "123,132", "--n", "10")
        assert result.stdout == "512\n"

        result = _run("table", "--pair", "231,312", "--family", "G", "--n", "3", "--format", "plain")
        assert result.stdout == "p^2 y + 2 p q y z + q^2 z\n"


def _max_disjoint(positions):
    best = 0
    for size in range(len(positions), 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(positions, size):
            if all(b - a >= 2 for a, b in zip(subset, subset[1:])):
                best = size
                break
    return best


def test_criterion_8_greedy_optimality():
    with criterion(8, "greedy mna/mnd equal the exhaustive disjoint-subset maximum, all permutations n <= 8"):
        cache = {}
        for n in range(9):
            for perm in all_perms(n):
                ascents = tuple(
                    i for i in range(n - 1) if perm[i] < perm[i + 1]
                )
                descents = tuple(
                    i for i in range(n - 1) if perm[i] > perm[i + 1]
                )
                for positions, greedy_value in ((ascents, mna(perm)), (descents, mnd(perm))):
                    if positions not in cache:
                        cache[positions] = _max_disjoint(positions)
                    assert greedy_value == cache[positions], perm
