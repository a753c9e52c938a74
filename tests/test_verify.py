import json
import re

import pytest

from avoidpair import bijections, catalog, oracle, perms, stats, verify
from avoidpair.perms import FINITE_PAIR, all_pairs, enumerate_class, pattern_pair
from avoidpair.polys import MultiPoly, RationalGF
from avoidpair.verify import (
    VerifyReport,
    all_passed,
    brute_distribution,
    check_counts,
    check_equidistribution_maps,
    check_gf,
    run_default_suite,
    suite,
)

P, Q, Y, Z = (MultiPoly.var(name) for name in "pqyz")
U, V, S, T = (MultiPoly.var(name) for name in "uvst")


def monomial_sum(pair, n, family):
    """The joint distribution by its definition: one marker monomial per member."""
    total = MultiPoly.zero()
    for perm in enumerate_class(pair, n):
        term = P ** stats.asc(perm) * Q ** stats.des(perm)
        if family == "G":
            term = term * Y ** stats.mna(perm) * Z ** stats.mnd(perm)
        else:
            term = (
                term * U ** stats.lrmax(perm) * V ** stats.rlmax(perm)
                * S ** stats.lrmin(perm) * T ** stats.rlmin(perm)
            )
        total = total + term
    return total


def count_calls(monkeypatch, *names):
    """Wrap every module binding of each named function with a call counter."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        bindings = [m for m in (perms, stats, bijections, oracle, verify) if hasattr(m, name)]
        original = getattr(bindings[0], name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in bindings:
            assert getattr(module, name) is original, (module, name)
            monkeypatch.setattr(module, name, counting)
    return calls


PAIR_231_312 = pattern_pair((2, 3, 1), (3, 1, 2))
PAIR_213_231 = pattern_pair((2, 1, 3), (2, 3, 1))
PAIR_123_132 = pattern_pair((1, 2, 3), (1, 3, 2))
PAIR_132_321 = pattern_pair((1, 3, 2), (3, 2, 1))


class TestBruteDistribution:
    def test_layered_class_at_three(self):
        assert brute_distribution(PAIR_231_312, 3, "G") == (
            P**2 * Y + 2 * P * Q * Y * Z + Q**2 * Z
        )

    def test_empty_length_gives_one(self):
        for pair in all_pairs():
            for family in ("F", "G"):
                assert brute_distribution(pair, 0, family) == MultiPoly.one()

    def test_finite_class_vanishes(self):
        assert brute_distribution(FINITE_PAIR, 5, "G") == MultiPoly.zero()

    def test_all_ones_specialization_counts_the_class(self):
        for pair in all_pairs():
            for n in range(8):
                poly = brute_distribution(pair, n, "G").substitute_one("p", "q", "y", "z")
                assert poly == MultiPoly.const(catalog.class_count(pair, n))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family 'H'"):
            brute_distribution(PAIR_231_312, 3, "H")
        # rejected before enumerating, so an empty class does not hide it
        with pytest.raises(ValueError, match="unknown family 'H'"):
            brute_distribution(FINITE_PAIR, 5, "H")

    def test_the_oracle_and_the_catalogue_reject_a_family_alike(self):
        message = re.escape("unknown family 'H'; expected one of ('F', 'G')")
        with pytest.raises(ValueError, match=f"^{message}$"):
            brute_distribution(PAIR_231_312, 3, "H")
        with pytest.raises(ValueError, match=f"^{message}$"):
            catalog.gf_for(PAIR_231_312, "H")

    def test_each_statistic_has_one_marker_of_its_own(self):
        # the oracle packs all eight statistics into one key, each in the
        # field of its marker, and masks that key to read either family
        marker = {}
        for markers in stats.FAMILY_MARKERS.values():
            for stat, var in markers.items():
                assert marker.setdefault(stat, var) == var, stat
        assert len(set(marker.values())) == len(marker)
        assert sorted(marker) == sorted(stats.StatVector._fields)

    def test_a_reversed_list_spelled_pair_reads_its_class(self):
        for pair in all_pairs():
            respelled = ([*pair[1]], [*pair[0]])
            for family in ("F", "G"):
                assert (brute_distribution(respelled, 5, family)
                        == brute_distribution(pair, 5, family)), (pair, family)

    @pytest.mark.parametrize("family", ["F", "G"])
    def test_matches_the_monomial_sum_over_the_definitions(self, family):
        for pair in all_pairs():
            for n in range(8):
                assert brute_distribution(pair, n, family) == monomial_sum(pair, n, family), (
                    pair, n,
                )


def corrupt(gf):
    """``gf`` with its last numerator term's coefficient negated."""
    exps, coeff = gf.num.terms()[-1]
    return RationalGF(gf.num - MultiPoly({exps: 2 * coeff}), gf.den)


class TestCheckGF:
    def test_the_132_321_class_is_checked_past_the_lowest_limit(self):
        # Av(132, 321) grows as 1 + C(n, 2), so it is enumerated to n = 90
        assert check_gf(PAIR_132_321, "G", 40).passed

    def test_passes_for_catalogued_forms(self):
        report = check_gf(pattern_pair((1, 2, 3), (1, 3, 2)), "F", 6)
        assert report.passed and report.first_discrepancy is None
        report = check_gf(PAIR_213_231, "G", 7)
        assert report.passed

    @pytest.mark.parametrize(
        "pair,family",
        [
            (PAIR_231_312, "G"),
            (pattern_pair((1, 2, 3), (1, 3, 2)), "F"),
            (pattern_pair((2, 1, 3), (3, 1, 2)), "G"),
        ],
    )
    def test_detects_a_corrupted_coefficient_early(self, pair, family):
        report = check_gf(pair, family, 6, gf=corrupt(catalog.gf_for(pair, family)))
        assert not report.passed
        assert report.first_discrepancy["n"] <= 6

    def test_a_reversed_list_spelled_pair_is_checked_as_its_class(self):
        for pair in all_pairs():
            if pair != FINITE_PAIR:
                respelled = ([*pair[1]], [*pair[0]])
                assert check_gf(respelled, "G", 5) == check_gf(pair, "G", 5), pair

    def test_report_json_line_shape(self):
        report = check_gf(PAIR_231_312, "G", 4)
        payload = json.loads(report.to_json_line())
        assert payload["status"] == "pass"
        assert payload["pair"] == "231,312"
        assert payload["family"] == "G"
        assert payload["n_range"] == [0, 4]
        assert payload["first_discrepancy"] is None


class TestSharedTable:
    def test_reports_equal_with_and_without_a_shared_table(self):
        joint = {}
        for family in ("G", "F"):
            for pair in all_pairs():
                if pair == FINITE_PAIR:
                    continue
                bad = corrupt(catalog.gf_for(pair, family))
                assert check_gf(pair, family, 7, joint=joint) == check_gf(pair, family, 7)
                failed = check_gf(pair, family, 7, gf=bad, joint=joint)
                assert failed == check_gf(pair, family, 7, gf=bad) and not failed.passed

    def test_a_table_filled_by_g_gives_f_its_marginal(self, monkeypatch):
        joint = {}
        for pair in all_pairs():
            for n in range(8):
                brute_distribution(pair, n, "G", joint=joint)
        assert len(joint) == 15 * 8
        fresh = {key: brute_distribution(*key, "F") for key in joint}
        # F reads every member's vector off the table: none is computed again
        monkeypatch.setattr(stats, "stat_vector", None)
        for key, poly in fresh.items():
            assert brute_distribution(*key, "F", joint=joint) == poly, key

    def test_suite_shares_one_table_across_its_gf_checks(self, monkeypatch):
        calls = []
        original = verify.check_gf

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "check_gf", recording)
        suite("gf", 3)
        assert len(calls) == 28
        # pair, family and n_max stay positional: callers that wrap check_gf read them
        assert [args[1] for args, _ in calls] == ["G"] * 14 + ["F"] * 14
        assert all(len(args) == 3 and set(kwargs) == {"joint"} for args, kwargs in calls)
        assert len({id(kwargs["joint"]) for _, kwargs in calls}) == 1
        assert len(calls[0][1]["joint"]) == 14 * 4


class TestCheckCounts:
    def test_default_range_passes(self):
        report = check_counts(8)
        assert report.passed

    def test_a_negative_range_is_rejected(self):
        with pytest.raises(ValueError, match="^n_max must be non-negative, got -1$"):
            check_counts(-1)

    @pytest.mark.parametrize("check", [check_counts, check_equidistribution_maps])
    @pytest.mark.parametrize("n_max", [True, False, 2.5, "3"])
    def test_a_range_that_is_not_an_int_is_rejected(self, monkeypatch, check, n_max):
        calls = count_calls(monkeypatch, "class_size", "enumerate_class")
        with pytest.raises(ValueError, match=f"^n_max must be an int, got {n_max!r}$"):
            check(n_max)
        assert calls == {"class_size": 0, "enumerate_class": 0}

    def test_failure_shape(self):
        report = VerifyReport(
            name="x", pair=None, family=None, n_range=(0, 1), first_discrepancy={"n": 1},
        )
        assert report.status == "fail" and not report.passed
        assert json.loads(report.to_json_line())["first_discrepancy"] == {"n": 1}


class TestEquidistributionMaps:
    def test_all_five_reports_pass(self):
        reports = check_equidistribution_maps(8)
        assert len(reports) == 5
        assert all_passed(reports)
        names = {report.name for report in reports}
        assert "transfer-swaps-quadruple" in names
        assert "cross-class-equidistribution" in names

    def test_broken_maps_are_reported_at_their_first_discrepancy(self, monkeypatch):
        # the identity does not swap the quadruple; reverse leaves the layered class
        monkeypatch.setattr(verify, "transfer_image", lambda perm: perm)
        monkeypatch.setattr(verify, "complement_image", lambda perm: perm[::-1])
        reports = check_equidistribution_maps(6)
        assert [(r.name, r.status) for r in reports] == [
            ("involution-swaps-quadruple", "fail"),
            ("complement-swaps-quadruple", "pass"),
            ("reverse-swaps-quadruple", "pass"),
            ("transfer-swaps-quadruple", "fail"),
            ("cross-class-equidistribution", "pass"),
        ]
        assert reports[0].first_discrepancy == {
            "n": 3, "perm": [1, 3, 2], "image": [2, 3, 1],
            "reason": "image is not a fresh member of the target class",
        }
        assert reports[3].first_discrepancy == {
            "n": 2, "perm": [1, 2], "image": [1, 2], "reason": "quadruple not swapped",
        }
        assert reports[3].to_json_line() == (
            '{"family": null, "first_discrepancy": {"image": [1, 2], "n": 2, '
            '"perm": [1, 2], "reason": "quadruple not swapped"}, "n_range": [1, 6], '
            '"name": "transfer-swaps-quadruple", "pair": "231,312", "status": "fail"}'
        )

    def test_a_repeated_image_is_not_fresh(self, monkeypatch):
        # every member goes to the decreasing permutation, a member of the target class
        monkeypatch.setattr(verify, "transfer_image", lambda perm: tuple(range(len(perm), 0, -1)))
        reports = check_equidistribution_maps(6)
        assert [r.name for r in reports if not r.passed] == ["transfer-swaps-quadruple"]
        assert reports[3].first_discrepancy == {
            "n": 2, "perm": [2, 1], "image": [2, 1],
            "reason": "image is not a fresh member of the target class",
        }

    def test_generated_members_are_neither_validated_nor_searched(self, monkeypatch):
        calls = count_calls(monkeypatch, "_member_cuts", "find_occurrence")
        assert all_passed(check_equidistribution_maps(12))
        assert calls == {"_member_cuts": 0, "find_occurrence": 0}

    def test_each_member_is_scored_from_its_up_down_word_alone(self, monkeypatch):
        # one quadruple per member of the three classes, 2^(n-1) members
        # each at n = 1..8, and no full statistics pass
        calls = count_calls(monkeypatch, "stat_vector", "adjacency_quadruple")
        assert all_passed(check_equidistribution_maps(8))
        assert calls == {"stat_vector": 0, "adjacency_quadruple": 3 * 255}

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_a_range_without_a_length_is_rejected(self, n_max):
        # the maps start at n = 1, so these ranges would check nothing; a
        # negative one breaks the length rule first
        message = {0: "the map checks start at n = 1, so n_max must be at least 1, got 0",
                   -1: "n_max must be non-negative, got -1"}[n_max]
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_equidistribution_maps(n_max)

    def test_one_length_is_checked(self):
        reports = check_equidistribution_maps(1)
        assert [r.n_range for r in reports] == [(1, 1)] * 5 and all_passed(reports)

    def test_two_element_multisets_by_hand(self):
        # at n = 2 both classes carry the multiset {p y, q z}
        left = brute_distribution(PAIR_231_312, 2, "G")
        right = brute_distribution(PAIR_213_231, 2, "G")
        assert left == right == P * Y + Q * Z


class TestDirectChecks:
    """Each check rejects its range itself, before any expansion or member."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("work began before the range was rejected")

        for canonical in perms.CANONICAL_PAIRS:
            monkeypatch.setitem(perms._CANONICAL_GENERATORS, canonical, must_not_run)
        monkeypatch.setattr(verify, "expand", must_not_run)

    @pytest.mark.parametrize("check, limit, n_max", [
        (check_counts, 18, 19),
        (lambda n_max: check_gf(PAIR_123_132, "G", n_max), 18, 19),
        (lambda n_max: check_gf(PAIR_132_321, "G", n_max), 90, 91),
        (check_equidistribution_maps, 18, 19),
    ], ids=["counts", "gf-123,132", "gf-132,321", "maps"])
    def test_a_range_past_the_enumeration_limit_is_rejected_first(
            self, no_work, check, limit, n_max):
        with pytest.raises(ValueError, match=(
                f"^the checks enumerate classes only up to n = {limit}, "
                f"so n_max must be at most {limit}, got {n_max}$")):
            check(n_max)


class TestSuite:
    def test_scopes_select_their_reports_in_print_order(self):
        reports = suite("all", 4)
        assert [r.name for r in reports[:1]] == ["counts-vs-formula"]
        assert [r.family for r in reports[1:29]] == ["G"] * 14 + ["F"] * 14
        assert [r.n_range for r in reports[1:29]] == [(0, 4)] * 28
        assert reports[29:] == suite("maps", 4)
        assert suite("counts", 4) == reports[:1]
        assert suite("gf", 4) == reports[1:29]

    def test_the_gf_checks_count_members_without_sorting_them(self, monkeypatch):
        calls = count_calls(monkeypatch, "enumerate_class")
        assert all_passed(suite("gf"))
        assert calls == {"enumerate_class": 0}

    def test_the_oracle_counts_images_without_copying_a_class(self):
        # the oracle counts class_members as they come, and for a
        # non-canonical pair those are images mapped one at a time
        assert oracle.class_members is perms.class_members
        for pair in all_pairs():
            canonical, op = perms.reduce_to_canonical(pair)
            if op == "identity":
                continue
            members = perms.class_members(pair, 6)
            assert not isinstance(members, tuple), pair
            assert list(members) == [perms.SYMMETRY_OPS[op](perm)
                                     for perm in perms.class_members(canonical, 6)], pair

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="unknown scope"):
            suite("everything")

    @pytest.mark.parametrize("scope", ["all", "maps"])
    def test_an_empty_map_range_is_rejected_before_any_check(self, monkeypatch, scope):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a check ran before the map range was rejected")

        monkeypatch.setattr(verify, "check_counts", must_not_run)
        monkeypatch.setattr(verify, "check_gf", must_not_run)
        with pytest.raises(ValueError, match="n_max must be at least 1, got 0"):
            suite(scope, 0)

    @pytest.mark.parametrize("scope", ["all", "counts", "gf", "maps"])
    @pytest.mark.parametrize("n_max", [19, 40, 10 ** 19])
    def test_a_range_past_the_enumeration_limit_is_rejected_before_any_check(
            self, monkeypatch, scope, n_max):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a check ran before the range was rejected")

        for name in ("check_counts", "check_gf", "check_equidistribution_maps"):
            monkeypatch.setattr(verify, name, must_not_run)
        with pytest.raises(ValueError, match=f"n_max must be at most 18, got {n_max}$"):
            suite(scope, n_max)

    @pytest.mark.parametrize("scope", ["all", "counts", "gf", "maps"])
    @pytest.mark.parametrize("n_max", [True, False, 2.5, "3"])
    def test_a_range_that_is_not_an_int_is_rejected_before_any_check(
            self, monkeypatch, scope, n_max):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a check ran before the range was rejected")

        for name in ("check_counts", "check_gf", "check_equidistribution_maps"):
            monkeypatch.setattr(verify, name, must_not_run)
        with pytest.raises(ValueError, match=f"^n_max must be an int, got {n_max!r}$"):
            suite(scope, n_max)


class TestDefaultSuite:
    def test_everything_passes(self):
        reports = run_default_suite()
        # counts + 14 G + 14 F + 5 map reports
        assert len(reports) == 34
        assert all_passed(reports)
        assert [r.n_range for r in reports] == (
            [(0, 12)] + [(0, 10)] * 14 + [(0, 9)] * 14 + [(1, 12)] * 5
        )
        for report in reports:
            assert (report.status == "fail") == (report.first_discrepancy is not None)
