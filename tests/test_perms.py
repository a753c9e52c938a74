import itertools
import math
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avoidpair import perms
from avoidpair.perms import (
    CANONICAL_PAIRS,
    FINITE_PAIR,
    SYMMETRY_OPS,
    _scan_occurrence,
    all_pairs,
    all_perms,
    avoids_pair,
    class_count,
    class_members,
    class_size,
    complement,
    contains,
    decreasing,
    direct_sum,
    enumerate_class,
    filter_class,
    find_occurrence,
    format_pair,
    format_perm,
    identity,
    inverse,
    make_permutation,
    parse_pair,
    parse_pattern,
    parse_perm,
    pattern_pair,
    member_ops,
    reduce_to_canonical,
    reverse,
    reverse_complement,
    skew_sum,
)

perms_of = lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
small_perms = st.integers(min_value=0, max_value=8).flatmap(perms_of)
LENGTH3 = tuple(itertools.permutations((1, 2, 3)))

# entries of the kinds make_permutation must reject or accept: small ints
# (0 and n + 1 among them), bools, floats, strings and None
entries = st.one_of(
    st.integers(min_value=-1, max_value=9), st.booleans(),
    st.floats(min_value=0, max_value=9), st.text(max_size=2), st.none(),
)


@st.composite
def near_permutations(draw):
    """A permutation with up to three entries replaced, often by a bad one."""
    values = list(draw(small_perms))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if values:
            values[draw(st.integers(min_value=0, max_value=len(values) - 1))] = draw(entries)
    return values


def reference_make_permutation(seq):
    """make_permutation as it checked every entry before its fast path."""
    values = tuple(seq)
    n = len(values)
    seen = set()
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"non-integer entry {v!r}")
        if not 1 <= v <= n:
            raise ValueError(f"value {v} out of range for length {n}")
        if v in seen:
            raise ValueError(f"duplicate value {v}")
        seen.add(v)
    return values


class TestConstruction:
    def test_empty(self):
        assert make_permutation([]) == ()

    def test_one_line_example(self):
        assert make_permutation([3, 4, 1, 5, 2]) == (3, 4, 1, 5, 2)

    @pytest.mark.parametrize("bad", [[1, 1], [0, 1], [2, 3], [1, -1], [1, "2"]])
    def test_rejects_non_rearrangements(self, bad):
        with pytest.raises(ValueError):
            make_permutation(bad)

    @settings(max_examples=500)
    @given(st.one_of(st.lists(entries, max_size=8), near_permutations()))
    @example([0, 1])
    @example([1, 3])
    @example([2, 2, 4, "x"])
    @example([1, True])
    @example([1.0])
    @example([5, None, 1])
    @example([None, 5, 1])
    def test_errors_match_the_entry_by_entry_check(self, values):
        # A list that is not a permutation still raises the first bad entry's
        # error, in the order the entries come.
        try:
            expected = ("ok", reference_make_permutation(values))
        except ValueError as exc:
            expected = ("error", str(exc))
        try:
            got = ("ok", make_permutation(values))
        except ValueError as exc:
            got = ("error", str(exc))
        assert got == expected

    def test_int_subclasses_still_pass(self):
        class Int(int):
            pass

        assert make_permutation([Int(2), Int(1)]) == (2, 1)

    def test_text_roundtrip(self):
        assert parse_perm("3 4 1 5 2") == (3, 4, 1, 5, 2)
        assert parse_perm("") == ()
        assert format_perm((3, 4, 1, 5, 2)) == "3 4 1 5 2"
        with pytest.raises(ValueError):
            parse_perm("3 x 1")

    def test_pair_text_roundtrip(self):
        pair = parse_pair("312,231")
        assert pair == ((2, 3, 1), (3, 1, 2))
        assert format_pair(pair) == "231,312"
        with pytest.raises(ValueError):
            parse_pair("231")
        with pytest.raises(ValueError):
            parse_pair("231,23")
        with pytest.raises(ValueError):
            parse_pattern("2a1")

    def test_parse_pair_caches_only_the_valid_spellings(self):
        spellings = [",".join(map(perms.format_pattern, patterns))
                     for pair in all_pairs() for patterns in (pair, pair[::-1])]
        rejected = ["231", "231,23", "2a1,312", "231,231", "12,21", "", "231,312,123"]
        parse_pair.cache_clear()
        for text in spellings + rejected + spellings + rejected:
            try:
                got = parse_pair(text)
            except ValueError as exc:
                with pytest.raises(ValueError) as uncached:
                    parse_pair.__wrapped__(text)
                assert text in rejected and str(exc) == str(uncached.value)
            else:
                assert text in spellings and got == parse_pair.__wrapped__(text)
        assert parse_pair.cache_info().currsize == len(spellings) == 30

    def test_pattern_pair_is_unordered_and_distinct(self):
        assert pattern_pair((3, 1, 2), (2, 3, 1)) == pattern_pair((2, 3, 1), (3, 1, 2))
        with pytest.raises(ValueError):
            pattern_pair((2, 3, 1), (2, 3, 1))
        with pytest.raises(ValueError):
            pattern_pair((1, 2), (2, 1, 3))


class TestSymmetries:
    def test_reverse_examples(self):
        assert reverse((3, 4, 1, 5, 2)) == (2, 5, 1, 4, 3)
        assert reverse(()) == ()
        assert reverse((2, 3, 1)) == (1, 3, 2)

    def test_complement_examples(self):
        assert complement((2, 3, 1)) == (2, 1, 3)
        assert complement(tuple(range(1, 7))) == tuple(range(6, 0, -1))
        assert complement(()) == ()

    def test_inverse_examples(self):
        assert inverse((3, 4, 1, 5, 2)) == (3, 5, 1, 2, 4)
        assert inverse((1, 2, 3)) == (1, 2, 3)
        assert inverse((2, 1)) == (2, 1)

    @given(small_perms)
    def test_involutions(self, perm):
        assert reverse(reverse(perm)) == perm
        assert complement(complement(perm)) == perm
        assert inverse(inverse(perm)) == perm

    def test_involutions_exhaustive_small(self):
        for n in range(9):
            for perm in all_perms(n):
                assert reverse(reverse(perm)) == perm
                assert complement(complement(perm)) == perm
                assert inverse(inverse(perm)) == perm

    def test_reverse_and_complement_commute_exhaustively(self):
        for n in range(9):
            for perm in all_perms(n):
                assert complement(reverse(perm)) == reverse(complement(perm))

    @given(small_perms)
    def test_rc_composition_helper(self, perm):
        assert reverse_complement(perm) == complement(reverse(perm))

    def test_rc_composition_helper_exhaustively(self):
        for n in range(8):
            for perm in all_perms(n):
                assert reverse_complement(perm) == complement(reverse(perm)), perm


class TestSums:
    def test_worked_example(self):
        assert direct_sum((1, 2, 3), (4, 1, 3, 2)) == (1, 2, 3, 7, 4, 6, 5)
        assert skew_sum((1, 2, 3), (4, 1, 3, 2)) == (5, 6, 7, 4, 1, 3, 2)

    def test_empty_is_identity(self):
        beta = (2, 1, 3)
        assert direct_sum((), beta) == beta
        assert skew_sum((), beta) == beta
        assert direct_sum(beta, ()) == beta
        assert skew_sum(beta, ()) == beta

    def test_singletons(self):
        assert direct_sum((1,), (1,)) == (1, 2)
        assert skew_sum((1,), (1,)) == (2, 1)


class TestContainment:
    def test_avoidance_example(self):
        assert not contains((3, 2, 1, 5, 4), (2, 3, 1))

    def test_short_permutation_cannot_contain(self):
        assert not contains((1, 2), (1, 3, 2))

    def test_occurrence_found_by_exhaustive_scan(self):
        # 4, 5, 2 inside 34152 is order-isomorphic to 231
        perm, patt = (3, 4, 1, 5, 2), (2, 3, 1)
        assert contains(perm, patt)
        positions = find_occurrence(perm, patt)
        sub = [perm[i - 1] for i in positions]
        assert sorted(range(3), key=lambda i: sub[i]) == sorted(range(3), key=lambda i: patt[i])

    def test_contains_agrees_with_definition_exhaustively(self):
        # independent re-check of the scan against raw subsequence search
        patt = (2, 3, 1)
        for n in range(6):
            for perm in all_perms(n):
                witness = any(
                    (a < b and c < a) for a, b, c in itertools.combinations(perm, 3)
                )
                assert contains(perm, patt) == witness

    def test_length3_positions_equal_subset_scan_exhaustively(self):
        for n in range(9):
            for perm in all_perms(n):
                for patt in LENGTH3:
                    assert find_occurrence(perm, patt) == _scan_occurrence(perm, patt), (
                        perm,
                        patt,
                    )

    @settings(deadline=None)  # the oracle scans up to C(60, 3) subsets
    @given(st.integers(min_value=9, max_value=60).flatmap(perms_of), st.sampled_from(LENGTH3))
    def test_length3_positions_equal_subset_scan_on_longer_perms(self, perm, patt):
        assert find_occurrence(perm, patt) == _scan_occurrence(perm, patt)

    def test_only_the_six_length3_patterns_take_the_quadratic_search(self, monkeypatch):
        # Length-3 tuples over 0..3 that are not permutations of 1..3 take
        # the subset scan and get its positions.
        others = [patt for patt in itertools.product(range(4), repeat=3)
                  if patt not in LENGTH3]

        def not_a_pattern(perm, patt):
            raise AssertionError(f"{patt} took the length-3 search")

        monkeypatch.setattr(perms, "_first_occurrence3", not_a_pattern)
        for n in range(6):
            for perm in all_perms(n):
                for patt in others:
                    assert find_occurrence(perm, patt) == _scan_occurrence(perm, patt), (
                        perm,
                        patt,
                    )

    def test_avoids_pair(self):
        pair = pattern_pair((2, 3, 1), (3, 1, 2))
        assert avoids_pair((3, 2, 1), pair)
        assert not avoids_pair((2, 3, 1), pair)
        assert avoids_pair((), pair)


class TestReduction:
    def test_documented_reductions(self):
        assert reduce_to_canonical(pattern_pair((1, 2, 3), (2, 1, 3))) == (
            pattern_pair((1, 2, 3), (1, 3, 2)),
            "rc",
        )
        assert reduce_to_canonical(pattern_pair((1, 3, 2), (2, 1, 3))) == (
            pattern_pair((2, 3, 1), (3, 1, 2)),
            "r",
        )
        assert reduce_to_canonical(pattern_pair((2, 3, 1), (3, 1, 2)))[1] == "identity"

    def test_every_pair_reduces(self):
        assert len(all_pairs()) == 15
        for pair in all_pairs():
            canonical, op = reduce_to_canonical(pair)
            assert canonical in CANONICAL_PAIRS

    def test_finite_pair_reduces_to_itself(self):
        assert reduce_to_canonical(FINITE_PAIR) == (FINITE_PAIR, "identity")


class TestEnumeration:
    def test_layered_class_at_three(self):
        pair = pattern_pair((2, 3, 1), (3, 1, 2))
        assert enumerate_class(pair, 3) == [bytes((1, 2, 3)), bytes((1, 3, 2)),
                                            bytes((2, 1, 3)), bytes((3, 2, 1))]

    def test_n_zero_is_the_empty_permutation(self):
        for pair in all_pairs():
            assert enumerate_class(pair, 0) == [b""]

    def test_finite_class_empties_out(self):
        assert enumerate_class(FINITE_PAIR, 5) == []
        assert enumerate_class(FINITE_PAIR, 9) == []

    def test_sorted_and_duplicate_free(self):
        for pair in all_pairs():
            members = enumerate_class(pair, 6)
            assert members == sorted(set(members))

    def test_structural_generation_equals_filter_definition(self):
        for pair in all_pairs():
            for n in range(7):
                assert enumerate_class(pair, n) == list(map(bytes, filter_class(pair, n))), (
                    format_pair(pair),
                    n,
                )

    def test_filter_equality_spot_check_n7(self):
        for pair in (
            pattern_pair((1, 2, 3), (1, 3, 2)),
            pattern_pair((1, 3, 2), (3, 2, 1)),
            pattern_pair((1, 2, 3), (3, 2, 1)),
            # the unimodal class, and its image
            pattern_pair((2, 1, 3), (3, 1, 2)),
            pattern_pair((1, 3, 2), (2, 3, 1)),
            # derived from the unimodal class by inverse, and its image
            pattern_pair((2, 1, 3), (2, 3, 1)),
            pattern_pair((1, 3, 2), (3, 1, 2)),
        ):
            assert enumerate_class(pair, 7) == list(map(bytes, filter_class(pair, 7)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_213_312_members_rise_to_n_then_fall(self, n):
        members = enumerate_class(pattern_pair((2, 1, 3), (3, 1, 2)), n)
        assert len(set(members)) == 2 ** (n - 1)
        for perm in members:
            top = perm.index(n)
            assert list(perm[:top + 1]) == sorted(perm[:top + 1]), perm
            assert list(perm[top:]) == sorted(perm[top:], reverse=True), perm

    def test_avoidance_commutes_with_reverse(self):
        # pi avoids {tau, rho} iff reverse(pi) avoids the reversed pair
        for pair in all_pairs():
            reversed_pair = pattern_pair(reverse(pair[0]), reverse(pair[1]))
            for n in range(8):
                for perm in all_perms(n):
                    assert avoids_pair(perm, pair) == avoids_pair(
                        reverse(perm), reversed_pair
                    )


class TestClassSize:
    def test_equals_the_enumerated_length(self):
        for pair in all_pairs():
            for n in range(13):
                assert class_size(pair, n) == len(enumerate_class(pair, n)), (pair, n)

    def test_rejects_negative_length(self):
        for pair in (CANONICAL_PAIRS[0], FINITE_PAIR):
            with pytest.raises(ValueError, match="n must be non-negative"):
                class_size(pair, -1)


class TestClassMembers:
    def test_sorted_members_are_the_enumerated_class(self):
        for pair in all_pairs():
            for n in range(11):
                members = tuple(class_members(pair, n))
                assert sorted(members) == enumerate_class(pair, n), (pair, n)
                assert len(set(members)) == len(members) == class_size(pair, n), (pair, n)

    def test_a_canonical_pair_reads_the_cached_generator_tuple(self):
        for pair in CANONICAL_PAIRS:
            assert class_members(pair, 7) is class_members(pair, 7)


# The generators of the four classes of size 2^(n-1).
DOUBLING_GENERATORS = [perms._CANONICAL_GENERATORS[pair] for pair in CANONICAL_PAIRS
                       if pair not in (CANONICAL_PAIRS[1], FINITE_PAIR)]


class TestMemberType:
    """A class member is a bytes of its values, and the member ops agree
    with the public tuple ops."""

    @pytest.mark.parametrize("pair", CANONICAL_PAIRS, ids=format_pair)
    def test_every_generator_caches_bytes_of_the_values_1_to_n(self, pair):
        generator = perms._CANONICAL_GENERATORS[pair]
        for n in range(13):
            members = generator(n)
            assert generator(n) is members
            for member in members:
                assert type(member) is bytes and sorted(member) == [*range(1, n + 1)], member

    def test_every_finite_length_limit_fits_a_byte(self):
        finite = [limit for limit in perms.length_limits().values() if limit != math.inf]
        assert finite and max(finite) < 256

    @pytest.mark.parametrize("generator", DOUBLING_GENERATORS, ids=lambda g: g.__name__)
    def test_the_members_of_a_doubling_class_take_at_most_64_bytes_each(self, generator):
        # Traced, a bytes member of length 16 takes 49 bytes and a tuple of
        # its values 168.  Only length 16 is traced: the shorter lengths, and
        # for Av(213,231) the unimodal members it inverts, are made first.
        n = 16
        generator.cache_clear()
        generator(n - 1)
        if generator is perms._class_213_231:
            perms._class_213_312(n)
        tracemalloc.start()
        try:
            members = generator(n)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(members) == 2 ** (n - 1)
        assert (traced - sys.getsizeof(members)) / len(members) <= 64

    def test_member_ops_are_the_symmetry_ops_and_inverse(self):
        assert list(member_ops(5)) == [op for op in SYMMETRY_OPS if op != "identity"] + ["inverse"]

    def test_member_ops_agree_with_the_tuple_ops_on_every_member(self):
        # filter_class scans all n! permutations, so it is read up to n = 7
        tuple_ops = {**SYMMETRY_OPS, "inverse": inverse}
        for pair in all_pairs():
            for n in range(10):
                members = enumerate_class(pair, n)
                if n <= 7:
                    assert [tuple(member) for member in members] == filter_class(pair, n)
                ops = member_ops(n)
                for member in members:
                    perm = tuple(member)
                    for op, transform in ops.items():
                        image = transform(member)
                        assert type(image) is bytes, (op, member)
                        assert tuple(image) == tuple_ops[op](perm), (op, member)


CLASS_FUNCTIONS = (class_count, class_size, enumerate_class, class_members, filter_class)


class TestPairSpellings:
    """Every pair-taking function reads a pair in either order and spelled
    with lists as it reads the canonical tuple spelling."""

    @staticmethod
    def respelled(pair):
        return ([*pair[1]], [*pair[0]])

    def test_the_reduction(self):
        assert reduce_to_canonical(([1, 2, 3], [1, 3, 2])) == (
            ((1, 2, 3), (1, 3, 2)), "identity")
        for pair in all_pairs():
            assert reduce_to_canonical(self.respelled(pair)) == reduce_to_canonical(pair)

    @pytest.mark.parametrize("function", CLASS_FUNCTIONS)
    def test_the_class_functions(self, function):
        read = tuple if function is class_members else lambda value: value
        for pair in all_pairs():
            assert (read(function(self.respelled(pair), 5))
                    == read(function(pair, 5))), (function, pair)


class TestClassArguments:
    @pytest.mark.parametrize("function", CLASS_FUNCTIONS)
    @pytest.mark.parametrize("n", [0, 1, 4, 7])
    def test_a_bad_pair_is_rejected_at_every_length(self, function, n):
        with pytest.raises(ValueError, match="the two patterns must be distinct"):
            function(((1, 2, 3), (1, 2, 3)), n)
        with pytest.raises(ValueError, match="class-defining patterns must have length 3"):
            function(((1, 2), (1, 3, 2)), n)

    @pytest.mark.parametrize("function", CLASS_FUNCTIONS)
    @pytest.mark.parametrize("n", [2.0, True, False, "3", None])
    def test_a_length_that_is_not_an_int_is_rejected(self, function, n):
        for pair in (CANONICAL_PAIRS[0], FINITE_PAIR):
            with pytest.raises(ValueError, match="n must be an int, got"):
                function(pair, n)

    @pytest.mark.parametrize("function", CLASS_FUNCTIONS)
    def test_a_negative_length_is_rejected(self, function):
        for pair in (CANONICAL_PAIRS[0], FINITE_PAIR):
            with pytest.raises(ValueError, match="^n must be non-negative, got -1$"):
                function(pair, -1)


class TestLengthArguments:
    """Every function of a length alone checks it by the one length rule."""

    @pytest.mark.parametrize("function", [all_perms, identity, decreasing])
    @pytest.mark.parametrize("n", [-1, 2.5, True])
    def test_a_bad_length_is_rejected(self, function, n):
        message = "n must be non-negative, got -1" if n == -1 else f"n must be an int, got {n!r}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            function(n)


class TestLengthLimits:
    """class_members and class_size bound n by what the generator would cache."""

    @staticmethod
    def cached_entries(pair, n):
        return sum(class_count(pair, m) * m for m in range(n + 1))

    def test_each_limit_is_the_longest_length_within_the_budget(self):
        limits = perms.length_limits()
        assert [limits[pair] for pair in CANONICAL_PAIRS] == [18, 90, 18, 18, 18, math.inf]
        for pair in CANONICAL_PAIRS[:5]:
            entries = self.cached_entries(pair, limits[pair])
            assert entries <= perms._CACHED_ENTRIES_BUDGET, pair
            assert self.cached_entries(pair, limits[pair] + 1) > perms._CACHED_ENTRIES_BUDGET, pair

    @pytest.mark.parametrize("function", [class_members, class_size, enumerate_class])
    def test_a_length_past_the_limit_is_rejected_before_any_member_is_made(
            self, monkeypatch, function):
        generators = {pair: pytest.fail for pair in CANONICAL_PAIRS[:5]}
        monkeypatch.setattr(perms, "_CANONICAL_GENERATORS", generators)
        for pair in all_pairs():
            if pair == FINITE_PAIR:
                continue
            limit = perms.length_limits()[reduce_to_canonical(pair)[0]]
            for n in (limit + 1, 1500, 10 ** 19):
                with pytest.raises(ValueError, match=(
                        f"^the class of {format_pair(pair)} is enumerated only up to "
                        f"n = {limit}, got n = {n}$")):
                    function(pair, n)

    def test_the_finite_class_has_no_limit(self):
        assert class_members(FINITE_PAIR, 10 ** 19) == ()
        assert class_size(FINITE_PAIR, 10 ** 19) == 0

    def test_count_has_no_limit(self):
        assert class_count(CANONICAL_PAIRS[0], 1500) == 2 ** 1499
