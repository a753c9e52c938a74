import math

import pytest

from avoidpair import catalog
from avoidpair.catalog import (
    FiniteClassError,
    canonical_entry,
    canonical_gf,
    class_count,
    gf_for,
    single_stat_entry,
    single_stat_gf,
)
from avoidpair.perms import (
    CANONICAL_PAIRS,
    FINITE_PAIR,
    SYMMETRY_OPS,
    all_pairs,
    enumerate_class,
    filter_class,
    pattern_pair,
    reduce_to_canonical,
)
from avoidpair.polys import MultiPoly, RationalGF, coefficient, expand
from avoidpair.stats import FAMILY_MARKERS, stat_vector

X, P, Q, U, V, S, T, Y, Z = (MultiPoly.var(name) for name in "xpquvstyz")

PAIR_123_132 = pattern_pair((1, 2, 3), (1, 3, 2))
PAIR_132_321 = pattern_pair((1, 3, 2), (3, 2, 1))
PAIR_231_312 = pattern_pair((2, 3, 1), (3, 1, 2))
PAIR_213_231 = pattern_pair((2, 1, 3), (2, 3, 1))
PAIR_213_312 = pattern_pair((2, 1, 3), (3, 1, 2))

INFINITE_PAIRS = [pair for pair in all_pairs() if pair != FINITE_PAIR]


def monomial(perm, family):
    vec = stat_vector(perm)
    if family == "G":
        return P**vec.asc * Q**vec.des * Y**vec.mna * Z**vec.mnd
    return (
        P**vec.asc * Q**vec.des * U**vec.lrmax * V**vec.rlmax
        * S**vec.lrmin * T**vec.rlmin
    )


def filter_distribution(pair, n, family):
    """Definition-level oracle: sum marker monomials over the raw filter."""
    total = MultiPoly.zero()
    for perm in filter_class(pair, n):
        total = total + monomial(perm, family)
    return total


class TestJointForms:
    @pytest.mark.parametrize("family,n_max", [("G", 6), ("F", 6)])
    def test_every_infinite_pair_matches_the_filter_oracle(self, family, n_max):
        for pair in INFINITE_PAIRS:
            table = expand(gf_for(pair, family), n_max)
            for n in range(n_max + 1):
                assert table.coeffs[n] == filter_distribution(pair, n, family), (
                    pair,
                    family,
                    n,
                )

    def test_layered_joint_distribution_at_three(self):
        table = expand(canonical_gf(PAIR_231_312, "G"), 3)
        assert table.coeffs[3] == P**2 * Y + 2 * P * Q * Y * Z + Q**2 * Z

    def test_six_stat_form_at_one_is_the_four_extremes(self):
        table = expand(canonical_gf(PAIR_123_132, "F"), 1)
        assert table.coeffs[1] == U * V * S * T

    def test_both_run_structured_classes_share_one_form(self):
        assert canonical_gf(PAIR_231_312, "G") == canonical_gf(PAIR_213_231, "G")

    def test_triangular_counts_from_specialized_form(self):
        gf = canonical_gf(PAIR_132_321, "G").substitute_one("p", "q", "y", "z")
        table = expand(gf, 10)
        for n in range(11):
            assert table.coeffs[n] == MultiPoly.const(1 + math.comb(n, 2))

    def test_finite_pair_has_no_generating_function(self):
        for family in ("F", "G"):
            with pytest.raises(FiniteClassError):
                canonical_gf(FINITE_PAIR, family)
            with pytest.raises(FiniteClassError):
                gf_for(FINITE_PAIR, family)

    def test_non_canonical_pair_rejected_by_canonical_lookup(self):
        with pytest.raises(ValueError):
            canonical_gf(pattern_pair((1, 2, 3), (2, 1, 3)), "G")

    def test_marker_degrees_never_exceed_the_length(self):
        for pair in CANONICAL_PAIRS:
            if pair == FINITE_PAIR:
                continue
            for family in ("F", "G"):
                table = expand(canonical_gf(pair, family), 10)
                for k, coeff in enumerate(table.coeffs):
                    for name in "pquvstyz":
                        assert coeff.degree_in(name) <= k

    def test_residual_product_recovers_every_numerator(self):
        n = 12
        for pair in CANONICAL_PAIRS:
            if pair == FINITE_PAIR:
                continue
            for family in ("F", "G"):
                gf = canonical_gf(pair, family)
                table = expand(gf, n)
                series = sum(
                    (c * X**k for k, c in enumerate(table.coeffs)), MultiPoly.zero()
                )
                product = series * gf.den
                truncated = MultiPoly(
                    {e: c for e, c in product.terms() if e[0] <= n}
                )
                num_truncated = MultiPoly(
                    {e: c for e, c in gf.num.terms() if e[0] <= n}
                )
                assert truncated == num_truncated, (pair, family)



def same_rational(a, b):
    """a == b as rational functions: num_a den_b == num_b den_a."""
    return a.num * b.den == b.num * a.den


# The count GFs: sum 2^(n-1) x^n (and 1 at n = 0), and for 132,321
# sum (1 + C(n, 2)) x^n = 1/(1 - x) + x^2/(1 - x)^3.
DOUBLING_GF = RationalGF(1 - X, 1 - 2*X)
QUADRATIC_GF = RationalGF(1 - 2*X + 2*X**2, (1 - X) ** 3)


def all_markers_one(gf):
    return gf.substitute_one(*"pquvstyz")


class TestIdentitiesForAllN:
    """Cross-multiplied rational-function identities: each holds for every
    n, not only up to an enumerated length."""

    CANONICAL = [pair for pair in CANONICAL_PAIRS if pair != FINITE_PAIR]

    def test_count_gfs_match_class_count(self):
        for gf, pair in [(DOUBLING_GF, PAIR_123_132), (QUADRATIC_GF, PAIR_132_321)]:
            assert [c.constant_term() for c in expand(gf, 12).coeffs] == [
                class_count(pair, n) for n in range(13)]

    def test_each_single_statistic_form_is_its_joint_form_at_other_markers_one(self):
        checked = 0
        for pair in self.CANONICAL:
            for stat in catalog.STAT_NAMES:
                family = "G" if stat in FAMILY_MARKERS["G"] else "F"
                markers = FAMILY_MARKERS[family].values()
                keep = FAMILY_MARKERS[family][stat]
                joint = canonical_gf(pair, family).substitute_one(
                    *(m for m in markers if m != keep))
                assert same_rational(single_stat_gf(pair, stat), joint), (pair, stat)
                checked += 1
        assert checked == 40

    def test_f_at_u_v_s_t_one_is_g_at_y_z_one(self):
        for pair in self.CANONICAL:
            f = canonical_gf(pair, "F").substitute_one("u", "v", "s", "t")
            g = canonical_gf(pair, "G").substitute_one("y", "z")
            assert same_rational(f, g), pair

    def test_every_form_with_all_markers_one_is_the_count_gf(self):
        for pair in self.CANONICAL:
            count_gf = QUADRATIC_GF if pair == PAIR_132_321 else DOUBLING_GF
            forms = [canonical_gf(pair, family) for family in catalog.FAMILIES]
            forms += [single_stat_gf(pair, stat) for stat in catalog.STAT_NAMES]
            for gf in forms:
                assert same_rational(all_markers_one(gf), count_gf), pair

    def test_raw_transcriptions_the_oracle_corrected_fail_the_count_identity(self):
        # the identities can fail: these raw forms miss the empty permutation
        for stat in ("mna", "mnd"):
            entry = single_stat_entry(PAIR_213_312, stat)
            assert entry.oracle_corrected
            assert not same_rational(all_markers_one(entry.raw), DOUBLING_GF)
        entry = canonical_entry(PAIR_213_312, "G")
        assert not same_rational(all_markers_one(entry.raw), DOUBLING_GF)

# The eight variable recipes written out by hand: the reference that the
# recipes derived from the statistic swap tables must equal.
REFERENCE_RECIPES = {
    "F": {
        "identity": {},
        "r": {"p": "q", "q": "p", "u": "v", "v": "u", "s": "t", "t": "s"},
        "c": {"p": "q", "q": "p", "u": "s", "s": "u", "v": "t", "t": "v"},
        "rc": {"u": "t", "t": "u", "v": "s", "s": "v"},
    },
    "G": {
        "identity": {},
        "r": {"p": "q", "q": "p", "y": "z", "z": "y"},
        "c": {"p": "q", "q": "p", "y": "z", "z": "y"},
        "rc": {},
    },
}


class TestSymmetryMachinery:
    def test_documented_reductions(self):
        canonical, op = reduce_to_canonical(pattern_pair((1, 2, 3), (2, 1, 3)))
        assert canonical == PAIR_123_132
        assert op == "rc"
        assert catalog.RECIPES["G"][op] == {}

        canonical, op = reduce_to_canonical(pattern_pair((1, 3, 2), (2, 1, 3)))
        assert canonical == PAIR_231_312
        assert op == "r"
        assert catalog.RECIPES["F"][op] == {
            "p": "q", "q": "p", "u": "v", "v": "u", "s": "t", "t": "s",
        }

        assert reduce_to_canonical(PAIR_231_312)[1] == "identity"

    def test_derived_recipes_equal_the_reference(self):
        assert catalog.RECIPES == REFERENCE_RECIPES
        for family in catalog.FAMILIES:
            assert list(catalog.RECIPES[family]) == list(SYMMETRY_OPS)

    @pytest.mark.parametrize("family", ["F", "G"])
    def test_gf_for_renames_by_the_reference_recipe(self, family):
        for pair in INFINITE_PAIRS:
            canonical, op = reduce_to_canonical(pair)
            expected = canonical_gf(canonical, family).rename(REFERENCE_RECIPES[family][op])
            assert gf_for(pair, family) == expected, (pair, op)

    def test_unknown_family_is_reported_before_a_bad_pair(self):
        with pytest.raises(ValueError, match="unknown family 'H'"):
            gf_for(((1, 1, 1), (2, 2, 2)), "H")

    def test_reversal_recipe_on_the_six_stat_family(self):
        queried = gf_for(pattern_pair((3, 2, 1), (2, 3, 1)), "F")
        base = canonical_gf(PAIR_123_132, "F")
        assert queried == base.rename(
            {"p": "q", "q": "p", "u": "v", "v": "u", "s": "t", "t": "s"}
        )

    def test_rc_fixes_the_four_stat_family(self):
        assert gf_for(pattern_pair((1, 2, 3), (2, 1, 3)), "G") == canonical_gf(
            PAIR_123_132, "G"
        )

    def test_canonical_pairs_pass_through(self):
        for pair in CANONICAL_PAIRS:
            if pair == FINITE_PAIR:
                continue
            for family in ("F", "G"):
                assert gf_for(pair, family) == canonical_gf(pair, family)

    @pytest.mark.parametrize("family,n_max", [("G", 5), ("F", 5)])
    def test_each_op_recipe_matches_the_image_class(self, family, n_max):
        for canonical in CANONICAL_PAIRS:
            if canonical == FINITE_PAIR:
                continue
            for op in ("r", "c", "rc"):
                image_pair = pattern_pair(
                    SYMMETRY_OPS[op](canonical[0]), SYMMETRY_OPS[op](canonical[1])
                )
                assert reduce_to_canonical(image_pair)[0] == canonical
                recipe = catalog.RECIPES[family][op]
                transformed = canonical_gf(canonical, family).rename(recipe)
                table = expand(transformed, n_max)
                for n in range(n_max + 1):
                    assert table.coeffs[n] == filter_distribution(
                        image_pair, n, family
                    ), (canonical, op, family, n)


class TestGfForMemo:
    """gf_for builds each of its 28 forms once; callers share the object."""

    @pytest.mark.parametrize("family", ["F", "G"])
    def test_a_repeat_call_returns_the_same_object(self, family):
        for pair in INFINITE_PAIRS:
            gf = gf_for(pair, family)
            assert gf_for(pair, family) is gf
            # the key is the normalised pair: either order, lists or tuples
            assert gf_for((list(pair[1]), list(pair[0])), family) is gf

    @pytest.mark.parametrize("family", ["F", "G"])
    def test_expanding_a_cached_form_leaves_it_unchanged(self, family):
        for pair in INFINITE_PAIRS:
            gf = gf_for(pair, family)
            canonical, op = reduce_to_canonical(pair)
            fresh = canonical_gf(canonical, family).rename(catalog.RECIPES[family][op])
            expand(gf, 8)
            coefficient(gf, 9)
            assert gf == fresh and hash(gf) == hash(fresh)
            assert (gf.num, gf.den) == (fresh.num, fresh.den)
            assert gf.den_factors == fresh.den_factors
            assert list(map(hash, gf.den_factors)) == list(map(hash, fresh.den_factors))

    def test_the_finite_pair_raises_on_every_call(self):
        for family in ("F", "G", "F", "G"):
            with pytest.raises(FiniteClassError):
                gf_for(FINITE_PAIR, family)


class TestCounts:
    def test_documented_values(self):
        assert class_count(PAIR_123_132, 10) == 512
        assert class_count(PAIR_132_321, 5) == 11
        assert class_count(FINITE_PAIR, 4) == 4
        assert class_count(FINITE_PAIR, 7) == 0
        assert class_count(pattern_pair((3, 2, 1), (3, 1, 2)), 6) == 32
        assert class_count(pattern_pair((1, 2, 3), (2, 3, 1)), 6) == 16

    def test_zero_length_counts_one_everywhere(self):
        for pair in all_pairs():
            assert class_count(pair, 0) == 1

    def test_counts_match_enumeration(self):
        for pair in all_pairs():
            for n in range(9):
                assert class_count(pair, n) == len(enumerate_class(pair, n))

    def test_counts_match_all_ones_specialization(self):
        # An identity of rational forms: the coefficients agree at every n.
        # class_count follows its canonical pair's count GF, as
        # TestIdentitiesForAllN.test_count_gfs_match_class_count checks.
        for pair in INFINITE_PAIRS:
            canonical, _ = reduce_to_canonical(pair)
            count_gf = QUADRATIC_GF if canonical == PAIR_132_321 else DOUBLING_GF
            gf = gf_for(pair, "G").substitute_one("p", "q", "y", "z")
            assert same_rational(gf, count_gf), pair


class TestSingleStatForms:
    def test_layered_ascent_form(self):
        gf = single_stat_gf(PAIR_231_312, "asc")
        assert gf.num == 1 - P * X
        assert gf.den == 1 - X - P * X

    def test_rlmax_expansion_with_doubling_totals(self):
        table = expand(single_stat_gf(PAIR_123_132, "rlmax"), 6)
        assert table.coeffs[2] == V + V**2
        assert table.coeffs[3] == V + 2 * V**2 + V**3
        for n in range(1, 7):
            assert table.coeffs[n].substitute_one("v") == MultiPoly.const(2 ** (n - 1))

    def test_every_form_specializes_the_joint_form(self):
        for pair in CANONICAL_PAIRS:
            if pair == FINITE_PAIR:
                continue
            for stat in catalog.STAT_NAMES:
                family = "G" if stat in FAMILY_MARKERS["G"] else "F"
                markers = FAMILY_MARKERS[family].values()
                keep = FAMILY_MARKERS[family][stat]
                drop = [m for m in markers if m != keep]
                specialized = expand(gf_for(pair, family).substitute_one(*drop), 12)
                direct = expand(single_stat_gf(pair, stat), 12)
                assert specialized.coeffs == direct.coeffs, (pair, stat)

    def test_corrected_non_overlap_forms_for_the_prefix_class(self):
        # the raw transcriptions have constant term 0; the working forms,
        # which the oracle fixed by adding 1, start at 1 like every series
        for stat in ("mna", "mnd"):
            entry = single_stat_entry(PAIR_213_312, stat)
            assert entry.oracle_corrected
            assert entry.raw.num.constant_term() == 0
            assert entry.gf.num.constant_term() == 1
            marker = Y if stat == "mna" else Z
            # recorded resolution: working series = raw series + 1
            assert entry.gf.num == entry.raw.num + entry.raw.den
            assert entry.gf.num == 1 - X
            table = expand(entry.gf, 4)
            assert table.coeffs[0] == MultiPoly.one()
            assert table.coeffs[2] == 1 + marker

    def test_corrected_joint_form_for_the_prefix_class(self):
        entry = canonical_entry(PAIR_213_312, "G")
        assert entry.oracle_corrected
        assert entry.gf.den == entry.raw.den
        # the raw numerator disagrees with enumeration already at x^1
        raw_table = expand(entry.raw, 1)
        assert raw_table.coeffs[1] != MultiPoly.one()
        assert expand(entry.gf, 1).coeffs[1] == MultiPoly.one()

    def test_finite_pair_rejected(self):
        with pytest.raises(FiniteClassError):
            single_stat_gf(FINITE_PAIR, "asc")

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError):
            single_stat_gf(PAIR_231_312, "maj")


class TestRemarkEquidistributions:
    """Coefficient identities between single-statistic series, proved for
    every n as identities of rational forms."""

    def same_series(self, gf_a, var_a, gf_b, var_b):
        unify = {var_a: "p"} if var_a != "p" else {}
        unify_b = {var_b: "p"} if var_b != "p" else {}
        return same_rational(gf_a.rename(unify), gf_b.rename(unify_b))

    def test_ascents_match_non_overlapping_ascents_when_123_avoided(self):
        assert self.same_series(
            single_stat_gf(PAIR_123_132, "asc"), "p",
            single_stat_gf(PAIR_123_132, "mna"), "y",
        )

    def test_descents_match_non_overlapping_descents_when_321_avoided(self):
        assert self.same_series(
            single_stat_gf(PAIR_132_321, "des"), "q",
            single_stat_gf(PAIR_132_321, "mnd"), "z",
        )

    def test_lrmax_matches_rlmin_for_inverse_closed_pair(self):
        assert self.same_series(
            single_stat_gf(PAIR_123_132, "lrmax"), "u",
            single_stat_gf(PAIR_123_132, "rlmin"), "t",
        )

    @pytest.mark.parametrize("pair", [PAIR_231_312, PAIR_213_231, PAIR_213_312])
    def test_self_symmetric_classes_swap_freely(self, pair):
        assert self.same_series(
            single_stat_gf(pair, "asc"), "p", single_stat_gf(pair, "des"), "q"
        )
        assert self.same_series(
            single_stat_gf(pair, "mna"), "y", single_stat_gf(pair, "mnd"), "z"
        )
        # the joint form is invariant under the full swap
        joint = gf_for(pair, "G")
        swap = {"p": "q", "q": "p", "y": "z", "z": "y"}
        assert same_rational(joint, joint.rename(swap))


class TestDump:
    def test_shape_and_corrections(self):
        data = catalog.dump()
        assert sorted(data["joint"]["G"]) == sorted(data["joint"]["F"])
        assert len(data["joint"]["G"]) == 5
        assert sum(len(forms) for forms in data["single"].values()) == 40
        entry = data["joint"]["G"]["213,312"]
        assert entry["oracle_corrected"] is True
        assert "raw_num" in entry and "note" in entry
        clean = data["joint"]["G"]["231,312"]
        assert clean["oracle_corrected"] is False
        assert "raw_num" not in clean

    def test_terms_roundtrip_through_wire_format(self):
        data = catalog.dump()
        entry = data["joint"]["F"]["123,132"]
        gf = canonical_gf(PAIR_123_132, "F")
        assert MultiPoly.from_json_terms(entry["num"]) == gf.num
        assert MultiPoly.from_json_terms(entry["den"]) == gf.den
