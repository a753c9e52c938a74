import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avoidpair.perms import SYMMETRY_OPS, all_perms, complement, decreasing, enumerate_class, identity, pattern_pair, reverse
from avoidpair.stats import STAT_SWAPS, StatVector, adjacency_quadruple, asc, des, lrmax, lrmin, mna, mnd, rlmax, rlmin, stat_vector

perms_up_to_64 = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)

# the lengths of the permutations the CLI benchmark sends to `stats`
perms_9_to_200 = st.integers(min_value=9, max_value=200).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def max_disjoint(positions):
    """Exhaustive search for the largest pairwise index-disjoint subset.

    Positions are the left indices of adjacent pairs; two pairs are disjoint
    when their indices differ by at least 2.  This is the oracle the greedy
    scan must match.
    """
    positions = sorted(positions)
    best = 0
    for size in range(len(positions), best, -1):
        for subset in itertools.combinations(positions, size):
            if all(b - a >= 2 for a, b in zip(subset, subset[1:])):
                return size
    return 0


def by_definition(perm):
    """The statistic vector assembled from the eight one-statistic definitions."""
    return StatVector(
        asc(perm), des(perm), lrmax(perm), lrmin(perm),
        rlmax(perm), rlmin(perm), mna(perm), mnd(perm),
    )


def ascent_positions(perm):
    return [i for i in range(len(perm) - 1) if perm[i] < perm[i + 1]]


def descent_positions(perm):
    return [i for i in range(len(perm) - 1) if perm[i] > perm[i + 1]]


class TestAdjacency:
    def test_worked_values(self):
        assert asc((3, 4, 1, 5, 2)) == 2
        assert des((3, 4, 1, 5, 2)) == 2
        assert des((3, 2, 1, 5, 4)) == 3

    def test_identity_permutation(self):
        for n in range(1, 8):
            assert asc(identity(n)) == n - 1
            assert des(identity(n)) == 0

    @given(perms_up_to_64)
    def test_ascents_and_descents_partition_positions(self, perm):
        assert asc(perm) + des(perm) == len(perm) - 1


class TestExtremes:
    def test_worked_values(self):
        perm = (3, 4, 1, 5, 2)
        assert lrmax(perm) == 3
        assert lrmin(perm) == 2
        assert rlmax(perm) == 2
        assert rlmin(perm) == 2

    def test_identity_permutation(self):
        for n in range(1, 8):
            assert lrmax(identity(n)) == n
            assert lrmin(identity(n)) == 1
            assert rlmax(identity(n)) == 1
            assert rlmin(identity(n)) == n

    def test_singleton(self):
        assert (lrmax((1,)), lrmin((1,)), rlmax((1,)), rlmin((1,))) == (1, 1, 1, 1)

    def test_last_element_is_always_both_right_to_left_extremes(self):
        for perm in all_perms(5):
            last = perm[-1]
            assert last <= max(perm) and rlmax(perm) >= 1 and rlmin(perm) >= 1


class TestNonOverlapping:
    def test_worked_values(self):
        assert mnd((1, 3, 2, 5, 4)) == 2 == des((1, 3, 2, 5, 4))
        assert mnd((3, 2, 1, 5, 4)) == 2
        assert des((3, 2, 1, 5, 4)) == 3

    def test_decreasing_permutation(self):
        for n in range(9):
            assert mnd(decreasing(n)) == n // 2
            assert mna(decreasing(n)) == 0

    def test_greedy_matches_exhaustive_search(self):
        oracle = {}
        for n in range(8):
            for perm in all_perms(n):
                for stat, positions in (
                    (mna, ascent_positions(perm)),
                    (mnd, descent_positions(perm)),
                ):
                    key = (n, tuple(positions))
                    if key not in oracle:
                        oracle[key] = max_disjoint(positions)
                    assert stat(perm) == oracle[key], perm


class TestSymmetryIdentities:
    def test_reverse_and_complement_exchange_statistics(self):
        for n in range(9):
            for perm in all_perms(n):
                rev, comp = reverse(perm), complement(perm)
                assert des(perm) == asc(rev) == asc(comp)
                assert lrmax(perm) == rlmax(rev) == lrmin(comp)
                assert mnd(perm) == mna(rev) == mna(comp)

    def test_each_op_exchanges_the_statistics_by_its_swap_table(self):
        assert list(STAT_SWAPS) == list(SYMMETRY_OPS)
        for n in range(9):
            for perm in all_perms(n):
                vec = stat_vector(perm)
                for op, transform in SYMMETRY_OPS.items():
                    values = vec._asdict()
                    for a, b in STAT_SWAPS[op]:
                        values[a], values[b] = values[b], values[a]
                    assert stat_vector(transform(perm)) == StatVector(**values), (op, perm)

    def test_class_level_lrmax_rlmin_equidistribution(self):
        # over each length of the {123, 132}-avoiding class the two
        # statistics have the same multiset (both patterns are fixed by
        # the group inverse, which exchanges the underlying sets)
        pair = pattern_pair((1, 2, 3), (1, 3, 2))
        for n in range(11):
            members = enumerate_class(pair, n)
            assert Counter(lrmax(p) for p in members) == Counter(
                rlmin(p) for p in members
            )


class TestStatVector:
    def test_worked_example(self):
        assert stat_vector((3, 4, 1, 5, 2)) == StatVector(2, 2, 3, 2, 2, 2, 2, 2)

    def test_empty_permutation_is_all_zero(self):
        assert stat_vector(()) == StatVector(0, 0, 0, 0, 0, 0, 0, 0)

    def test_length_two(self):
        assert stat_vector((1, 2)) == StatVector(
            asc=1, des=0, lrmax=2, lrmin=1, rlmax=1, rlmin=2, mna=1, mnd=0
        )

    def test_json_field_names(self):
        assert stat_vector((1, 2)).to_json_obj() == {
            "asc": 1,
            "des": 0,
            "lrmax": 2,
            "lrmin": 1,
            "rlmax": 1,
            "rlmin": 2,
            "mna": 1,
            "mnd": 0,
        }

    def test_repr_and_json_key_order(self):
        vec = stat_vector((3, 4, 1, 5, 2))
        assert repr(vec) == (
            "StatVector(asc=2, des=2, lrmax=3, lrmin=2, rlmax=2, rlmin=2, mna=2, mnd=2)"
        )
        assert list(vec.to_json_obj()) == [
            "asc", "des", "lrmax", "lrmin", "rlmax", "rlmin", "mna", "mnd",
        ]

    def test_fields_cannot_be_assigned(self):
        vec = stat_vector((1, 2))
        with pytest.raises(AttributeError):
            vec.asc = 5
        assert vec.asc == 1

    def test_bounds(self):
        for n in range(7):
            for perm in all_perms(n):
                vec = stat_vector(perm)
                if n == 0:
                    assert vec == StatVector(0, 0, 0, 0, 0, 0, 0, 0)
                    continue
                assert vec.asc + vec.des == n - 1
                for field in ("lrmax", "lrmin", "rlmax", "rlmin"):
                    assert 1 <= getattr(vec, field) <= n
                assert vec.mna <= vec.asc and vec.mna <= n // 2
                assert vec.mnd <= vec.des and vec.mnd <= n // 2

    def test_one_pass_matches_the_definitions_exhaustively(self):
        for n in range(9):
            for perm in all_perms(n):
                assert stat_vector(perm) == by_definition(perm), perm

    @given(perms_9_to_200)
    def test_one_pass_matches_the_definitions_on_long_permutations(self, perm):
        assert stat_vector(perm) == by_definition(perm)

    def test_the_result_is_exactly_a_stat_vector(self):
        # built by tuple.__new__, it must be the named tuple the constructor makes
        for n in range(7):
            for perm in all_perms(n):
                vec = stat_vector(perm)
                built = StatVector(**vec._asdict())
                assert type(vec) is StatVector
                assert vec == built and hash(vec) == hash(built)
                assert list(vec._asdict()) == list(built._asdict())


def definitional_quadruple(perm):
    return (asc(perm), des(perm), mna(perm), mnd(perm))


class TestAdjacencyQuadruple:
    def test_worked_values(self):
        assert adjacency_quadruple((3, 4, 1, 5, 2)) == (2, 2, 2, 2)
        assert adjacency_quadruple(()) == (0, 0, 0, 0)
        assert adjacency_quadruple((1,)) == (0, 0, 0, 0)
        assert adjacency_quadruple(identity(7)) == (6, 0, 3, 0)
        assert adjacency_quadruple(decreasing(6)) == (0, 5, 0, 3)

    def test_matches_the_definitions_exhaustively(self):
        for n in range(9):
            for perm in all_perms(n):
                assert adjacency_quadruple(perm) == definitional_quadruple(perm), perm

    @given(perms_9_to_200)
    def test_matches_the_definitions_on_long_permutations(self, perm):
        assert adjacency_quadruple(perm) == definitional_quadruple(perm)
