from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avoidpair import bijections
from avoidpair.bijections import (
    LAYERED_PAIR,
    RUN_PAIR,
    NotInClassError,
    complement_map,
    compositions,
    layered_compose,
    layered_decompose,
    make_composition,
    runs_compose,
    runs_decompose,
    transfer_map,
)
from avoidpair.perms import (
    all_perms,
    avoids_pair,
    decreasing,
    enumerate_class,
    find_occurrence,
    identity,
    make_permutation,
)
from avoidpair.stats import lrmax, lrmin, rlmax, rlmin, stat_vector

# the worked pair from the layered class at n = 14 and its two images
WORKED = (1, 2, 4, 3, 5, 8, 7, 6, 9, 14, 13, 12, 11, 10)
WORKED_F = (3, 2, 1, 6, 5, 4, 7, 10, 9, 8, 11, 12, 13, 14)
WORKED_G = (1, 2, 3, 4, 14, 13, 5, 6, 12, 11, 7, 10, 9, 8)


def quadruple(perm):
    vec = stat_vector(perm)
    return (vec.asc, vec.des, vec.mna, vec.mnd)


def swapped(quad):
    a, d, ya, zd = quad
    return (d, a, zd, ya)


compositions_strategy = st.lists(
    st.integers(min_value=1, max_value=5), min_size=0, max_size=6
).map(tuple)


class TestCompositions:
    def test_all_compositions_of_n(self):
        assert sorted(compositions(0)) == [()]
        assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
        assert sum(1 for _ in compositions(9)) == 2**8

    def test_rejects_non_positive_parts(self):
        with pytest.raises(ValueError):
            make_composition((2, 0, 1))

    def test_rejects_bool_parts(self):
        for fn in (make_composition, layered_compose, runs_compose):
            with pytest.raises(ValueError, match="positive integers"):
                fn((True, 2))


class TestLayeredCodec:
    def test_worked_decomposition(self):
        assert layered_decompose(WORKED) == (1, 1, 2, 1, 3, 1, 5)

    def test_worked_composition(self):
        assert layered_compose((3, 3, 1, 3, 1, 1, 1, 1)) == WORKED_F

    def test_extremes(self):
        for n in range(1, 8):
            assert layered_decompose(identity(n)) == (1,) * n
            assert layered_decompose(decreasing(n)) == (n,)
            assert layered_compose((n,)) == decreasing(n)

    def test_rejects_non_members(self):
        with pytest.raises(NotInClassError):
            layered_decompose((2, 3, 1))
        with pytest.raises(NotInClassError):
            layered_decompose((3, 1, 2))

    @given(compositions_strategy)
    def test_roundtrip_from_compositions(self, comp):
        assert layered_decompose(layered_compose(comp)) == comp

    def test_roundtrip_over_the_class(self):
        for n in range(9):
            for perm in enumerate_class(LAYERED_PAIR, n):
                assert layered_compose(layered_decompose(perm)) == perm

    def test_codec_is_onto_the_class(self):
        for n in range(9):
            members = set(enumerate_class(LAYERED_PAIR, n))
            images = {layered_compose(comp) for comp in compositions(n)}
            assert images == members


class TestRunCodec:
    def test_worked_decomposition(self):
        assert runs_decompose(WORKED_G) == (5, 1, 3, 1, 2, 1, 1)

    def test_worked_composition(self):
        assert runs_compose((5, 1, 3, 1, 2, 1, 1)) == WORKED_G

    def test_extremes(self):
        for n in range(1, 8):
            assert runs_decompose(identity(n)) == (n,)
            assert runs_decompose(decreasing(n)) == (1,) * n
            assert runs_compose((n,)) == identity(n)
            assert runs_compose((1,) * n) == decreasing(n)

    def test_run_ends_are_right_to_left_maxima(self):
        for n in range(1, 9):
            for perm in enumerate_class(RUN_PAIR, n):
                comp = runs_decompose(perm)
                ends = []
                total = 0
                for part in comp:
                    total += part
                    ends.append(total)
                rl_max_positions = [
                    i + 1
                    for i in range(n)
                    if all(perm[i] > perm[j] for j in range(i + 1, n))
                ]
                assert ends == rl_max_positions

    def test_rejects_non_members(self):
        with pytest.raises(NotInClassError):
            runs_decompose((2, 1, 3))

    def test_roundtrip_over_the_class(self):
        for n in range(9):
            for perm in enumerate_class(RUN_PAIR, n):
                assert runs_compose(runs_decompose(perm)) == perm


class TestComplementMap:
    def test_worked_example(self):
        assert complement_map(WORKED) == WORKED_F

    def test_small_cases(self):
        assert complement_map((1,)) == (1,)
        assert complement_map((1, 2)) == (2, 1)
        assert complement_map((2, 1)) == (1, 2)

    def test_rejects_empty_and_non_members(self):
        with pytest.raises(ValueError):
            complement_map(())
        with pytest.raises(NotInClassError):
            complement_map((2, 3, 1))

    def test_involution_on_the_class(self):
        for n in range(1, 11):
            for perm in enumerate_class(LAYERED_PAIR, n):
                assert complement_map(complement_map(perm)) == perm

    def test_no_fixed_points_for_n_at_least_two(self):
        # n = 1 is the lone exception: the boundary set and its complement
        # are both empty there
        for n in range(2, 12):
            assert all(
                complement_map(perm) != perm
                for perm in enumerate_class(LAYERED_PAIR, n)
            )

    def test_exchanges_the_quadruple_pointwise(self):
        for n in range(1, 11):
            for perm in enumerate_class(LAYERED_PAIR, n):
                assert quadruple(complement_map(perm)) == swapped(quadruple(perm))

    def test_worked_extreme_statistics_differ(self):
        # the exchange does not extend to the max/min statistics
        assert lrmax(WORKED) == 7 and lrmax(WORKED_F) == 8
        assert lrmin(WORKED) == 1 and lrmin(WORKED_F) == 3
        assert rlmax(WORKED) == 5 and rlmax(WORKED_F) == 1
        assert rlmin(WORKED) == 7 and rlmin(WORKED_F) == 8


class TestTransferMap:
    def test_worked_example(self):
        assert transfer_map(WORKED) == WORKED_G

    def test_two_element_case(self):
        assert transfer_map((1, 2)) == (2, 1)

    def test_rejects_empty_and_non_members(self):
        with pytest.raises(ValueError):
            transfer_map(())
        with pytest.raises(NotInClassError):
            transfer_map((3, 1, 2))

    def test_bijection_onto_the_run_class(self):
        for n in range(1, 11):
            images = [transfer_map(perm) for perm in enumerate_class(LAYERED_PAIR, n)]
            assert len(set(images)) == len(images)
            assert set(images) == set(enumerate_class(RUN_PAIR, n))

    def test_exchanges_the_quadruple_pointwise(self):
        for n in range(1, 11):
            for perm in enumerate_class(LAYERED_PAIR, n):
                assert quadruple(transfer_map(perm)) == swapped(quadruple(perm))

    def test_left_maxima_positions_mirror_right_maxima_positions(self):
        for n in range(1, 9):
            for perm in enumerate_class(LAYERED_PAIR, n):
                image = transfer_map(perm)
                left = {
                    i + 1
                    for i in range(n)
                    if all(perm[i] > perm[j] for j in range(i))
                }
                right = {
                    i + 1
                    for i in range(n)
                    if all(image[i] > image[j] for j in range(i + 1, n))
                }
                assert right == {n + 1 - i for i in left}

    def test_fixed_points_only_at_odd_lengths(self):
        for n in range(1, 12):
            fixed = [
                perm
                for perm in enumerate_class(LAYERED_PAIR, n)
                if transfer_map(perm) == perm
            ]
            if n % 2 == 1:
                i = (n - 1) // 2
                expected = tuple(range(1, i + 1)) + tuple(range(n, i, -1))
                assert fixed == [expected]
            else:
                assert fixed == []

    def test_composed_maps_witness_cross_class_equidistribution(self):
        for n in range(1, 11):
            via_maps = Counter(
                quadruple(transfer_map(complement_map(perm)))
                for perm in enumerate_class(LAYERED_PAIR, n)
            )
            direct = Counter(
                quadruple(perm) for perm in enumerate_class(RUN_PAIR, n)
            )
            layered = Counter(
                quadruple(perm) for perm in enumerate_class(LAYERED_PAIR, n)
            )
            assert via_maps == direct == layered


# -- the validating decoder, as it was before members were rebuilt ------------
# The decoders now accept a tuple of ints when rebuilding it from its run
# lengths gives it back; these references validate with the pattern scan and
# must agree with them on every input, errors and messages included.


def reference_require_class(perm, pair):
    for pattern in pair:
        positions = find_occurrence(perm, pattern)
        if positions is not None:
            raise NotInClassError(perm, pattern, positions)


def reference_from_cuts(cuts, n):
    if n == 0:
        return ()
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))


def reference_run_lengths(perm, pair, descending):
    perm = make_permutation(perm)
    reference_require_class(perm, pair)
    cuts = [i for i in range(1, len(perm)) if (perm[i] > perm[i - 1]) == descending]
    return reference_from_cuts(cuts, len(perm))


def reference_layered_decompose(perm):
    return reference_run_lengths(perm, LAYERED_PAIR, descending=True)


def reference_runs_decompose(perm):
    return reference_run_lengths(perm, RUN_PAIR, descending=False)


def reference_complement_map(perm):
    if len(perm) == 0:
        raise ValueError("map is defined for n >= 1 only")
    comp = reference_layered_decompose(perm)
    n = sum(comp)
    old = set(accumulate(comp))
    return layered_compose(reference_from_cuts([b for b in range(1, n) if b not in old], n))


def reference_transfer_map(perm):
    if len(perm) == 0:
        raise ValueError("map is defined for n >= 1 only")
    return runs_compose(reference_layered_decompose(perm)[::-1])


DECODERS = [
    (layered_decompose, reference_layered_decompose),
    (runs_decompose, reference_runs_decompose),
    (complement_map, reference_complement_map),
    (transfer_map, reference_transfer_map),
]


def outcome(fn, arg):
    try:
        return ("value", fn(arg))
    except (TypeError, ValueError) as exc:
        return (type(exc), str(exc))


class Int(int):
    pass


class TestRebuildCheck:
    @pytest.mark.parametrize("fn,reference", DECODERS, ids=lambda f: f.__name__)
    def test_every_permutation_up_to_seven_as_before(self, fn, reference):
        for n in range(8):
            for perm in all_perms(n):
                assert outcome(fn, perm) == outcome(reference, perm), perm

    @pytest.mark.parametrize("fn,reference", DECODERS, ids=lambda f: f.__name__)
    def test_every_member_of_both_classes_in_the_verify_range_as_before(self, fn, reference):
        # verify maps lengths up to 12; both classes, so each decoder meets
        # members it accepts and members of the other class it rejects
        for n in range(8, 13):
            for pair in (LAYERED_PAIR, RUN_PAIR):
                for perm in enumerate_class(pair, n):
                    assert outcome(fn, perm) == outcome(reference, perm), perm

    @pytest.mark.parametrize("fn,reference", DECODERS, ids=lambda f: f.__name__)
    def test_malformed_inputs_as_before(self, fn, reference):
        inputs = [
            (1.0, 2), (2, 1.0), (True, 2), (2, True), (Int(1), 2), ("a", 1), (1, "2"),
            [1, 2], [2, 1], [3, 1, 2], [1, 3, 2],
            (1, 3), (0, 1), (2, 3), (-1,), (0,), (1, 1), (2, 2, 1), (1, 2, 2), (3, 3, 3),
        ]
        for arg in inputs:
            assert outcome(fn, arg) == outcome(reference, arg), arg
        # a one-shot iterable is read once, as before
        assert outcome(fn, iter((2, 1))) == outcome(reference, iter((2, 1)))

    def test_long_members_are_decided_without_a_pattern_search(self, monkeypatch):
        # A length-3 search over 5000 entries takes about a second; the
        # rebuild check is linear, for a tuple and for a list alike.
        n = 5000
        ascending = tuple(range(1, n + 1))
        layered = tuple(v for low in range(1, n + 1, 4) for v in range(low + 3, low - 1, -1))
        runs = runs_compose((4,) * (n // 4))
        expected = [
            (layered_decompose, ascending, (1,) * n),
            (layered_decompose, layered, (4,) * (n // 4)),
            (runs_decompose, ascending, (n,)),
            (runs_decompose, runs, (4,) * (n // 4)),
            (complement_map, ascending, decreasing(n)),
            (complement_map, layered, layered_compose((1, 1, 1, *(2, 1, 1) * (n // 4 - 1), 1))),
            (transfer_map, ascending, decreasing(n)),
            (transfer_map, layered, runs),
        ]

        def no_search(perm, patt):
            raise AssertionError("a member took a pattern search")

        monkeypatch.setattr(bijections, "find_occurrence", no_search)
        for decoder, member, image in expected:
            assert decoder(member) == image
            assert decoder(list(member)) == image

    def test_every_rebuilt_member_avoids_its_pair(self):
        for n in range(11):
            for comp in compositions(n):
                assert avoids_pair(layered_compose(comp), LAYERED_PAIR), comp
                assert avoids_pair(runs_compose(comp), RUN_PAIR), comp
