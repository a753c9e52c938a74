import copy
import json
import math
import random
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avoidpair import polys
from avoidpair.catalog import FAMILIES, FAMILY_MARKERS, gf_for
from avoidpair.perms import FINITE_PAIR, all_pairs, format_pair, parse_pair
from avoidpair.polys import (
    VARS,
    ExponentOverflowError,
    MultiPoly,
    RationalGF,
    SeriesTable,
    _monomial,
    coefficient,
    expand,
    json_term,
    json_term_text,
)

X, P, Q, U, V, S, T, Y, Z = (MultiPoly.var(name) for name in "xpquvstyz")


def random_poly(rng, max_terms=4, max_exp=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) if rng.random() < 0.4 else 0 for _ in VARS)
        terms[exps] = rng.randint(-max_coeff, max_coeff)
    return MultiPoly(terms)


def random_point(rng):
    return {name: rng.randint(-5, 5) for name in VARS}


def reference_expand(gf: RationalGF, n_max: int) -> SeriesTable:
    """The tuple-keyed MultiPoly recurrence that the packed kernel replaced."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    num_slices = gf.num.x_slices()
    den_slices = gf.den.x_slices()
    if den_slices.get(0) != MultiPoly.one():
        raise ValueError("denominator must have x-free part exactly 1 for expansion")
    den_degrees = sorted(d for d in den_slices if d > 0)
    coeffs = []
    for k in range(n_max + 1):
        c = num_slices.get(k, MultiPoly.zero())
        for j in den_degrees:
            if j > k:
                break
            c = c - den_slices[j] * coeffs[k - j]
        coeffs.append(c)
    return SeriesTable(tuple(coeffs))


def expand_checked(gf: RationalGF, n_max: int) -> SeriesTable:
    """``expand(gf, n_max)``, whose last coefficient ``coefficient`` must
    equal; both must leave the form's plan as it was and store no zero."""
    plan = copy.deepcopy(gf._plan)
    table = expand(gf, n_max)
    last = coefficient(gf, n_max)
    assert last == table.coeffs[n_max]
    assert gf._plan == plan
    assert all(0 not in poly._terms.values() for poly in (*table.coeffs, last))
    return table


FIELD_MAX = 2**64 - 1


def _ref_collect(items) -> "RefPoly":
    """Sum (exponent tuple, coefficient) pairs; any exponent past
    FIELD_MAX, before like terms merge, is an overflow."""
    terms = {}
    for exps, coeff in items:
        if max(exps) > FIELD_MAX:
            raise ExponentOverflowError(f"{exps!r}")
        terms[exps] = terms.get(exps, 0) + coeff
    return RefPoly(terms)


def _ref_term_key(exps):
    markers = exps[1:]
    return (exps[0], any(markers), tuple(-e for e in markers))


class RefPoly:
    """The tuple-keyed ring that packed keys replaced: terms map exponent
    tuples in VARS order to non-zero coefficients."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    def __add__(self, other):
        return _ref_collect([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return RefPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _ref_collect((tuple(map(add, e1, e2)), c1 * c2)
                            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items())

    def __pow__(self, n):
        result = RefPoly({(0,) * len(VARS): 1})
        for _ in range(n):
            result = result * self
        return result

    def rename(self, mapping):
        def moved(exps):
            new = [0] * len(VARS)
            for name, e in zip(VARS, exps):
                new[VARS.index(mapping.get(name, name))] += e
            return tuple(new)
        return _ref_collect((moved(e), c) for e, c in self.terms.items())

    def substitute_one(self, *names):
        dropped = {VARS.index(name) for name in names}
        return _ref_collect((tuple(0 if i in dropped else k for i, k in enumerate(e)), c)
                            for e, c in self.terms.items())

    def x_slices(self):
        slices = {}
        for e, c in self.terms.items():
            slices.setdefault(e[0], {})[(0,) + e[1:]] = c
        return slices

    def evaluate(self, point):
        return sum(c * math.prod(point[name] ** k for name, k in zip(VARS, e))
                   for e, c in self.terms.items())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _ref_term_key(item[0]))

    def __str__(self):
        out = ""
        for exps, coeff in self.sorted_terms():
            factors = [name if e == 1 else f"{name}^{e}"
                       for name, e in sorted(zip(VARS, exps)) if e]
            if not factors or abs(coeff) != 1:
                factors.insert(0, str(abs(coeff)))
            sign = ("-" if coeff < 0 else "") if not out else (" - " if coeff < 0 else " + ")
            out += sign + " ".join(factors)
        return out or "0"

    def to_json_terms(self):
        return [{"exponents": {n: e for n, e in zip(VARS, exps) if e}, "coeff": str(c)}
                for exps, c in self.sorted_terms()]


def outcome(fn):
    """fn's result, or ExponentOverflowError if it raised one."""
    try:
        return fn()
    except ExponentOverflowError:
        return ExponentOverflowError


def assert_matches(poly, ref):
    if ref is ExponentOverflowError or poly is ExponentOverflowError:
        assert poly is ref
        return
    assert poly.terms() == ref.sorted_terms()
    assert str(poly) == str(ref)
    assert poly.to_json_terms() == ref.to_json_terms()
    # keys computed by arithmetic equal the keys the constructor packs
    rebuilt = MultiPoly(ref.terms)
    assert poly == rebuilt and hash(poly) == hash(rebuilt)


# Mostly zero, else small, else near the top of a 64-bit field, where sums
# of two exponents fit or overflow.
EXPONENTS = st.one_of(st.just(0), st.integers(1, 3), st.integers(2**63 - 2, 2**63 + 1),
                      st.just(FIELD_MAX))


@st.composite
def poly_pairs(draw):
    """A (MultiPoly, RefPoly) pair with the same up to four terms."""
    terms = draw(st.dictionaries(st.tuples(*[EXPONENTS] * len(VARS)),
                                 st.integers(-4, 4), max_size=4))
    return MultiPoly(terms), RefPoly(terms)


INFINITE_PAIRS = [pair for pair in all_pairs() if pair != FINITE_PAIR]


def marker_poly(x_degrees, max_exp, max_coeff=5):
    """Strategy: a MultiPoly of up to four terms of the given x-degrees, each
    with at most two of the eight markers."""
    term = st.tuples(
        st.sampled_from(x_degrees),
        st.dictionaries(st.integers(1, len(VARS) - 1), st.integers(0, max_exp), max_size=2),
        st.integers(-max_coeff, max_coeff).filter(bool),
    )

    def build(terms):
        poly = {}
        for x_degree, markers, coeff in terms:
            exps = (x_degree, *(markers.get(i, 0) for i in range(1, len(VARS))))
            poly[exps] = poly.get(exps, 0) + coeff
        return MultiPoly(poly)

    return st.lists(term, max_size=4).map(build)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (1 + X) * (1 - X) == 1 - X**2

    def test_additive_inverse_gives_empty_term_set(self):
        a = 3 * P * Q - X**2
        assert (a + (-a)).is_zero()
        assert a - a == MultiPoly.zero()

    def test_hand_multiplied_product(self):
        # (1 - qx)(1 - x - qx), multiplied out by hand
        lhs = (1 - Q * X) * (1 - X - Q * X)
        rhs = 1 - X - 2 * Q * X + Q * X**2 + Q**2 * X**2
        assert lhs == rhs

    def test_int_coercion_both_sides(self):
        assert 1 + P == P + 1
        assert 2 * P == P + P
        assert 1 - P == -(P - 1)

    def test_pow(self):
        assert (1 - X) ** 3 == 1 - 3 * X + 3 * X**2 - X**3
        assert P**0 == MultiPoly.one()

    @pytest.mark.parametrize("c", [0, 1, -3, 5])
    def test_a_constant_hashes_as_the_int_it_equals(self, c):
        poly = MultiPoly.const(c)
        assert poly == c and hash(poly) == hash(c)
        assert len({c, poly}) == 1

    def test_ring_laws_at_random_integer_points(self):
        rng = random.Random(20240731)
        for _ in range(1000):
            a, b, c = (random_poly(rng) for _ in range(3))
            point = random_point(rng)
            ab = a.evaluate(point) * b.evaluate(point)
            assert (a * b).evaluate(point) == ab
            assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
            assert (a * (b + c)).evaluate(point) == (a * b + a * c).evaluate(point)
            assert ((a * b) * c).evaluate(point) == (a * (b * c)).evaluate(point)

    @pytest.mark.parametrize("assignment, message", [
        ({"p": 0.5, "x": 1}, r"^value of p must be an int, got 0\.5$"),
        ({"p": True, "x": 2}, r"^value of p must be an int, got True$"),
        ({"x": 1}, r"^variable p is used but not assigned$"),
        ({"p": 1, "x": 1, "w": 2}, r"^unknown variable 'w'; ring variables are "),
    ], ids=["float", "bool", "unassigned", "unknown"])
    def test_evaluate_takes_an_int_for_each_used_ring_variable(self, assignment, message):
        with pytest.raises(ValueError, match=message):
            (1 + P * X).evaluate(assignment)

    # Each operation cancels a term, which is deleted from the result's own
    # dict in place and never from an operand's.
    @pytest.mark.parametrize("operands, operation, result", [
        ((1 + P * X, Q - P * X), add, 1 + Q),
        ((1 + P * X, Q + P * X), sub, 1 - Q),
        ((Q + P * X, 1 + P * X), sub, Q - 1),
        ((1 + P,), lambda a: 1 - a, -P),
        ((1 + X, 1 - X), mul, 1 - X**2),
        ((P * Y - Q * Y + Z,), lambda a: a.rename({"p": "q"}), Z),
        ((P * Y - P + Z,), lambda a: a.substitute_one("y"), Z),
    ], ids=["a + b", "a - b", "b - a", "int - a", "a * b", "merging rename",
            "substitute_one"])
    def test_a_cancelling_operation_changes_no_operand(self, operands, operation, result):
        before = [dict(operand._terms) for operand in operands]
        value = operation(*operands)
        assert value == result and 0 not in value._terms.values()
        assert [operand._terms for operand in operands] == before

    def test_structural_ring_laws(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            MultiPoly({(1, 2): 1})
        with pytest.raises(ValueError):
            MultiPoly({(0,) * 9: 1.5})
        with pytest.raises(ValueError):
            MultiPoly.var("w")

    def test_rejects_bool_exponents(self):
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly({(True,) + (0,) * 8: 1})
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly({(0,) * 8 + (False,): 1})

    @pytest.mark.parametrize("n", [True, False, -1, 2.0])
    def test_pow_rejects_an_exponent_that_is_not_a_non_negative_int(self, n):
        with pytest.raises(ValueError, match="^exponent must be a non-negative integer$"):
            X ** n

    def test_pow_squares_only_while_bits_remain(self, monkeypatch):
        base = 1 - P**2 * X**2 * Y
        products = []
        mul = MultiPoly.__mul__

        def counting_mul(a, b):
            products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
        cube = base**3
        monkeypatch.undo()
        assert cube == base * base * base
        # one squaring, then base and base^2 multiplied into the result
        assert len(products) == 3
        assert sum(a is b for a, b in products) == 1


class TestExponentRange:
    """Every exponent lies in 0..2^64 - 1: one 64-bit field of the key."""

    def test_largest_exponent_builds_and_the_next_raises(self):
        top = MultiPoly({(0, 0, 0, 0, 0, 0, 0, 0, FIELD_MAX): 1})
        assert top.degree_in("z") == FIELD_MAX and top.terms()[0][0][-1] == FIELD_MAX
        assert Q ** FIELD_MAX == MultiPoly({(0, 0, FIELD_MAX, 0, 0, 0, 0, 0, 0): 1})
        with pytest.raises(ExponentOverflowError, match="64-bit"):
            MultiPoly({(0, 0, 0, 0, 0, 0, 0, 0, FIELD_MAX + 1): 1})
        with pytest.raises(ExponentOverflowError):
            MultiPoly.from_json_terms([{"exponents": {"x": FIELD_MAX + 1}, "coeff": "1"}])

    def test_products_that_would_carry_raise(self):
        half = 2**63
        assert Q**half * Q**(half - 1) == Q**FIELD_MAX
        with pytest.raises(ExponentOverflowError, match="q"):
            Q**half * Q**half
        with pytest.raises(ExponentOverflowError, match="x"):
            (1 + X**FIELD_MAX) * (P + X)
        with pytest.raises(ExponentOverflowError):
            Q**(2**64)

    def test_merging_rename_that_would_carry_raises(self):
        half = 2**63
        assert (P**half * Q**(half - 1)).rename({"p": "q"}) == Q**FIELD_MAX
        # two terms whose merged exponents fit, then one term whose do not
        assert (P**FIELD_MAX + Q**FIELD_MAX).rename({"p": "q"}) == 2 * Q**FIELD_MAX
        with pytest.raises(ExponentOverflowError, match="q"):
            (P**half * Q**half).rename({"p": "q"})
        # a swap moves both fields and never merges
        swapped = (P**FIELD_MAX * Q**FIELD_MAX).rename({"p": "q", "q": "p"})
        assert swapped == P**FIELD_MAX * Q**FIELD_MAX


class TestAgainstTupleReference:
    """Every operation on packed keys against the tuple-keyed RefPoly."""

    @settings(max_examples=300, deadline=None)
    @given(poly_pairs(), poly_pairs(), st.integers(0, 3),
           st.lists(st.sampled_from(VARS), unique=True), st.permutations(VARS),
           st.lists(st.sampled_from(VARS), max_size=4),
           st.fixed_dictionaries({name: st.integers(-1, 1) for name in VARS}))
    def test_operations_match(self, a_pair, b_pair, n, sources, targets, names, point):
        (a, ref_a), (b, ref_b) = a_pair, b_pair
        assert_matches(a, ref_a)
        assert_matches(outcome(lambda: a + b), outcome(lambda: ref_a + ref_b))
        assert_matches(outcome(lambda: a - b), outcome(lambda: ref_a - ref_b))
        assert_matches(outcome(lambda: a * b), outcome(lambda: ref_a * ref_b))
        assert_matches(outcome(lambda: a**n), outcome(lambda: ref_a**n))
        mapping = dict(zip(sources, targets))
        assert_matches(outcome(lambda: a.rename(mapping)),
                       outcome(lambda: ref_a.rename(mapping)))
        assert_matches(a.substitute_one(*names), ref_a.substitute_one(*names))
        assert {d: part.terms() for d, part in a.x_slices().items()} == {
            d: RefPoly(part).sorted_terms() for d, part in ref_a.x_slices().items()}
        assert a.evaluate(point) == ref_a.evaluate(point)
        assert (a == b) == (ref_a.terms == ref_b.terms)
        assert a.constant_term() == ref_a.terms.get((0,) * len(VARS), 0)
        for i, var in enumerate(VARS):
            assert a.degree_in(var) == max((e[i] for e in ref_a.terms), default=-1)


class TestSubstituteAndRename:
    def test_substitute_one_merges_like_terms(self):
        # joint distribution at n = 3 for the layered class, specialized
        poly = P**2 * Y + 2 * P * Q * Y * Z + Q**2 * Z
        assert poly.substitute_one("y", "z") == P**2 + 2 * P * Q + Q**2

    def test_substitute_absent_variable_is_identity(self):
        poly = 1 + X * P
        assert poly.substitute_one("z") == poly

    def test_substitute_to_plain_variable(self):
        assert (X * P).substitute_one("p") == X

    def test_rename_swap(self):
        poly = P**2 * Y + Q * Z
        assert poly.rename({"p": "q", "q": "p", "y": "z", "z": "y"}) == Q**2 * Z + P * Y

    def test_rename_rejects_collisions(self):
        with pytest.raises(ValueError):
            (P + Q).rename({"p": "q", "q": "q"})

    @pytest.mark.parametrize("call", [
        lambda: (1 + X * P).substitute_one("w"),
        lambda: MultiPoly.zero().substitute_one("w"),
        lambda: (1 + X * P).substitute_one("p", "w"),
        lambda: (1 + X * P).rename({"w": "p"}),
        lambda: (1 + X * P).rename({"p": "w"}),
        lambda: (1 + X * P).degree_in("w"),
        lambda: MultiPoly.zero().degree_in("w"),
        lambda: RationalGF(MultiPoly.one(), 1 - X).substitute_one("y", "w"),
        lambda: RationalGF(MultiPoly.one(), 1 - X).rename({"w": "p"}),
        lambda: RationalGF(MultiPoly.one(), 1 - X).rename({"p": "w"}),
        lambda: MultiPoly.from_json_terms([{"exponents": {"w": 1}, "coeff": "1"}]),
    ], ids=["substitute_one", "substitute_one-zero", "substitute_one-second", "rename-key",
            "rename-value", "degree_in", "degree_in-zero", "gf-substitute_one",
            "gf-rename-key", "gf-rename-value", "from_json_terms"])
    def test_unknown_variable_is_a_value_error(self, call):
        with pytest.raises(ValueError, match=(
                r"^unknown variable 'w'; ring variables are \('x', 'p', .*, 'z'\)$")):
            call()

    def test_x_slices_roundtrip(self):
        poly = 1 - 2 * Q**2 * X**2 * Z + Q**4 * X**4 * Z**2
        slices = poly.x_slices()
        assert sorted(slices) == [0, 2, 4]
        rebuilt = sum((part * X**d for d, part in slices.items()), MultiPoly.zero())
        assert rebuilt == poly


class TestRendering:
    def test_str_ordering_matches_fixed_layout(self):
        poly = Q**2 * Z + 2 * P * Q * Y * Z + P**2 * Y
        assert str(poly) == "p^2 y + 2 p q y z + q^2 z"

    def test_str_signs_and_constants(self):
        assert str(MultiPoly.zero()) == "0"
        assert str(MultiPoly.one()) == "1"
        # within one x-degree the bare x power leads, then descending-lex markers
        assert str(1 - X - 2 * Q * X) == "1 - x - 2 q x"
        assert str(-P + 1) == "1 - p"
        assert str(-(P * X)) == "-p x"
        assert str(3 * Q**2 * X**2 * Z) == "3 q^2 x^2 z"

    def test_json_roundtrip(self):
        rng = random.Random(99)
        for _ in range(100):
            poly = random_poly(rng)
            assert MultiPoly.from_json_terms(poly.to_json_terms()) == poly

    @pytest.mark.parametrize("terms", [
        [{"exponents": {"x": True}, "coeff": "1"}],
        [{"exponents": {"x": 2.7}, "coeff": "1"}],
        [{"exponents": {"x": "2"}, "coeff": "1"}],
        # a bad exponent is rejected even where it would merge with a good one
        [{"exponents": {"x": 1}, "coeff": "1"}, {"exponents": {"x": True}, "coeff": "1"}],
        [{"exponents": {"x": 1}, "coeff": 2.7}],
        [{"exponents": {"x": 1}, "coeff": True}],
        [{"exponents": {"x": 1}, "coeff": 2}],
        [{"exponents": {"x": 1}, "coeff": "+2"}],
        [{"exponents": {"x": 1}, "coeff": " 2"}],
        [{"exponents": {"x": 1}, "coeff": "02"}],
        [{"exponents": {"x": 1}, "coeff": "\u0662"}],
        [{"exponents": {}}],
        [{"coeff": "1"}],
        [{"exponents": [["x", 1]], "coeff": "1"}],
        ["x"],
    ], ids=repr)
    def test_from_json_terms_reads_only_what_to_json_terms_writes(self, terms):
        with pytest.raises(ValueError):
            MultiPoly.from_json_terms(terms)

    def test_json_shape(self):
        poly = 2 * P * Q * Y * Z
        assert poly.to_json_terms() == [
            {"exponents": {"p": 1, "q": 1, "y": 1, "z": 1}, "coeff": "2"}
        ]

    def test_json_term_text_is_json_dumps_of_json_term(self):
        cases = []
        for pair in all_pairs():
            if pair == FINITE_PAIR:
                continue
            for family in FAMILIES:
                gf = gf_for(pair, family)
                for coeff in expand(gf, 12).coeffs:
                    cases += coeff.terms()
                cases += gf.num.terms() + gf.den.terms()
        assert any(coeff < 0 for _, coeff in cases)
        assert any(exps[0] for exps, _ in cases)  # terms with x, from num and den
        constant = (0,) * len(VARS)
        cases += [
            (constant, 1),
            (constant, -3),
            ((2, 0, 1, 0, 0, 0, 0, 0, 4), 2**64 + 7),
            ((0, 5, 0, 0, 0, 0, 0, 0, 0), -(2**70)),
            ((FIELD_MAX, 0, 0, 0, 0, 0, 0, 0, FIELD_MAX), 1),
            ((1,) * len(VARS), -1),
        ]
        for exps, coeff in cases:
            assert json_term_text(exps, coeff) == json.dumps(json_term(exps, coeff))
        assert json_term_text(constant, 1) == '{"exponents": {}, "coeff": "1"}'

    def test_monomial_is_str_of_the_monomial(self):
        rng = random.Random(5)
        for _ in range(200):
            exps = tuple(rng.choice((0, 0, 1, 2, 11)) for _ in VARS)
            assert _monomial(exps) == str(MultiPoly({exps: 1}))
        assert _monomial((0,) * len(VARS)) == "1"


class TestExpand:
    def test_geometric_series(self):
        table = expand(RationalGF(MultiPoly.one(), 1 - X), 3)
        assert list(table.coeffs) == [MultiPoly.one()] * 4

    def test_descent_series_for_layered_class(self):
        # (1 - qx)/(1 - x - qx): coefficient of x^n sums q^des over the class;
        # at n = 3 the members 123, 132, 213, 321 have descent counts 0, 1, 1, 2.
        table = expand(RationalGF(1 - Q * X, 1 - X - Q * X), 3)
        assert list(table.coeffs) == [
            MultiPoly.one(),
            MultiPoly.one(),
            1 + Q,
            1 + 2 * Q + Q**2,
        ]

    def test_rejects_nonunit_constant_term(self):
        with pytest.raises(ValueError):
            RationalGF(MultiPoly.one(), X + 2)
        with pytest.raises(ValueError):
            # constant term is 1 but the x-free slice is not, so the
            # convolution recurrence does not apply
            expand(RationalGF(MultiPoly.one(), 1 + V - X), 3)

    def test_int_parts_are_constant_polynomials(self):
        assert RationalGF(1, 1 - X) == RationalGF(MultiPoly.one(), 1 - X)
        assert list(expand(RationalGF(1, 1 - X), 3).coeffs) == [MultiPoly.one()] * 4
        assert RationalGF(X, 1) == RationalGF(X, MultiPoly.one())
        assert list(expand(RationalGF(X, 1), 2).coeffs) == [0, 1, 0]
        assert RationalGF(X, (1, 1 - X)) == RationalGF(X, 1 - X)

    @pytest.mark.parametrize("parts", [
        (1.0, 1 - X), (X, True), ("1", 1 - X), (X, (1 - X, None)),
    ], ids=["float-num", "bool-den", "str-num", "none-factor"])
    def test_other_parts_are_rejected(self, parts):
        with pytest.raises(ValueError, match="^a RationalGF part must be a MultiPoly or an int"):
            RationalGF(*parts)

    def test_linearity_with_common_denominator(self):
        den = 1 - X - Q * X
        num1, num2 = 1 - Q * X, Q * X**2
        joint = expand(RationalGF(num1 + num2, den), 8)
        left = expand(RationalGF(num1, den), 8)
        right = expand(RationalGF(num2, den), 8)
        for k in range(9):
            assert joint.coeffs[k] == left.coeffs[k] + right.coeffs[k]

    def test_residual_multiplication_recovers_numerator(self):
        # expand(gf) * den, truncated, equals num truncated: checked through
        # the full polynomial product rather than the recurrence itself.
        gf = RationalGF(1 - Q * X, 1 - X - Q * X)
        n = 9
        table = expand(gf, n)
        series = sum((c * X**k for k, c in enumerate(table.coeffs)), MultiPoly.zero())
        product = series * gf.den
        truncated = MultiPoly(
            {e: c for e, c in dict(product.terms()).items() if e[0] <= n}
        )
        assert truncated == gf.num

    def test_rejects_negative_n_max(self):
        with pytest.raises(ValueError):
            expand(RationalGF(MultiPoly.one(), 1 - X), -1)

    @pytest.mark.parametrize("n_max", [True, False, 2.5, "3"])
    def test_rejects_an_n_max_that_is_not_an_int(self, n_max):
        gf = RationalGF(MultiPoly.one(), 1 - X)
        for call in (expand, coefficient):
            with pytest.raises(ValueError, match=f"^n_max must be an int, got {n_max!r}$"):
                call(gf, n_max)

    def test_series_table_json(self):
        table = expand(RationalGF(MultiPoly.one(), 1 - X), 1)
        assert table.to_json_obj() == {
            "n_max": 1,
            "coeffs": [
                [{"exponents": {}, "coeff": "1"}],
                [{"exponents": {}, "coeff": "1"}],
            ],
        }


class TestPackedKernel:
    """expand against the tuple-keyed recurrence it replaced, term for term."""

    @pytest.mark.parametrize("family, n_max", [("F", 20), ("G", 40)])
    def test_every_catalog_form_matches_the_reference(self, family, n_max):
        for pair in INFINITE_PAIRS:
            gf = gf_for(pair, family)
            assert expand(gf, n_max) == reference_expand(gf, n_max), format_pair(pair)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_catalog_expansions_keep_the_plan_and_store_no_zero(self, family):
        for pair in INFINITE_PAIRS:
            expand_checked(gf_for(pair, family), 20)

    # The largest F denominator (23 terms), a G one of x-degree 6 and the
    # layered G form, the slowest expansion the benchmark makes.
    @pytest.mark.parametrize("pair, family, n_max", [
        ("132,213", "F", 30), ("123,231", "G", 60), ("231,312", "G", 60),
    ])
    def test_benchmark_sizes_match_the_reference(self, pair, family, n_max):
        gf = gf_for(parse_pair(pair), family)
        assert expand(gf, n_max) == reference_expand(gf, n_max)

    # Fields are a fixed 64 bits wide and hold the exponent bound plus one
    # guard bit.  The cases put k * n_max on both sides of 2^7, 2^15 and 2^31
    # and up to 2^63 - 1, which fills every bit below the guard bit.
    @pytest.mark.parametrize("k, n_max", [
        (1, 127), (1, 128), (127, 1), (128, 1), (1, 256),
        (2**15 - 1, 1), (2**15, 1), (2**31 - 1, 1), (2**31, 1),
        (2**31 - 1, 2), (2**62 - 1, 2), (2**63 - 1, 1),
    ])
    def test_field_width_steps(self, k, n_max):
        # 1 / (1 - p^k y^k z^k x) has p^(k n) y^(k n) z^(k n) at x^n; the
        # top field (z) would spill past the key, a middle one into the next.
        marker = P * Y * Z
        table = expand(RationalGF(MultiPoly.one(), 1 - marker**k * X), n_max)
        assert table.coeffs[-1] == marker ** (k * n_max)
        assert table.coeffs[1] == marker**k

    def test_numerator_degree_counts_in_the_bound(self):
        # p^255 z^255 / (1 - p z x) reaches p^256 z^256 at x^1, past an 8-bit field.
        gf = RationalGF(P**255 * Z**255, 1 - P * Z * X)
        assert expand(gf, 1).coeffs == (P**255 * Z**255, P**256 * Z**256)

    def test_exponents_past_63_bits_are_rejected(self):
        with pytest.raises(ValueError, match="64-bit field"):
            expand(RationalGF(MultiPoly.one(), 1 - Q**(2**63) * X), 1)
        with pytest.raises(ValueError, match="64-bit field"):
            expand(RationalGF(MultiPoly.one(), 1 - Q**(2**62) * X), 2)

    @settings(deadline=None)  # the reference multiplies whole MultiPolys
    @given(
        marker_poly((0, 1, 2, 3), 40),
        marker_poly((1, 2, 3), 40),
        marker_poly((0, 1, 2), 40),
        st.booleans(),
        st.integers(2, 10),
    )
    def test_random_rational_gfs_match_the_reference(self, num, den_tail, quotient, exact, n_max):
        den = 1 + den_tail
        if exact:
            # num = den * quotient: every coefficient past deg_x(quotient) cancels to 0
            num = den * quotient
        gf = RationalGF(num, den)
        table = expand(gf, n_max)
        assert table == reference_expand(gf, n_max)
        assert all(coeff for poly in table.coeffs for _, coeff in poly.terms())
        if exact:
            slices = quotient.x_slices()
            assert list(table.coeffs) == [slices.get(k, MultiPoly.zero()) for k in range(n_max + 1)]


class TestStagedKernel:
    """expand divides by each of den_factors in turn: the same series as the
    multiplied-out denominator, which RationalGF computes from the factors."""

    @settings(deadline=None)  # the reference multiplies whole MultiPolys
    @given(
        marker_poly((0, 1, 2, 3), 6),
        st.lists(marker_poly((1, 2), 6), min_size=1, max_size=4),
        st.integers(0, 8),
    )
    def test_random_factor_lists_match_the_reference(self, num, factor_tails, n_max):
        factors = tuple(1 + tail for tail in factor_tails)
        den = math.prod(factors, start=MultiPoly.one())
        staged = RationalGF(num, factors)
        assert staged.den_factors == factors and staged.den == den
        table = expand_checked(staged, n_max)
        assert table == reference_expand(RationalGF(num, den), n_max)

    @settings(deadline=None)  # the reference multiplies whole MultiPolys
    @given(
        marker_poly((0, 1, 2), 6),
        st.lists(marker_poly((1, 2), 6), min_size=1, max_size=4),
        st.integers(0, 8),
    )
    def test_exact_division_by_a_factor_list(self, quotient, factor_tails, n_max):
        # num = den * quotient: past deg_x(quotient) every coefficient cancels to 0
        factors = tuple(1 + tail for tail in factor_tails)
        den = math.prod(factors, start=MultiPoly.one())
        gf = RationalGF(den * quotient, factors)
        table = expand_checked(gf, n_max)
        slices = quotient.x_slices()
        assert list(table.coeffs) == [slices.get(k, MultiPoly.zero()) for k in range(n_max + 1)]

    # Each form's factor terms take one branch of the kernel's inner loop: all
    # -1, all +1, or other coefficients (2 and -3).  The numerators make terms
    # cancel within a stage.
    @pytest.mark.parametrize("num, factors", [
        ((1 - X) * (1 - P * Y * X**2) - Z * X**3,
         (1 - X - Q * Y * X, 1 - P * X**2 - Z * X**2)),
        ((1 + X) * (1 + P * X) + Q * X**2,
         (1 + X + P * X, 1 + Q * Y * X**2)),
        ((1 + 2 * P * X) * (1 - 3 * X) + Y * X**2,
         (1 + 2 * P * X - 3 * Q * X**2, 1 - 3 * X, 1 + 2 * Y * X)),
    ], ids=["minus-one", "plus-one", "two-and-minus-three"])
    def test_each_coefficient_branch_matches_the_reference(self, num, factors):
        den = math.prod(factors, start=MultiPoly.one())
        gf = RationalGF(num, factors)
        table = expand(gf, 12)
        assert table == reference_expand(RationalGF(num, den), 12)
        assert coefficient(gf, 12) == table.coeffs[12]
        assert all(coeff for poly in table.coeffs for _, coeff in poly.terms())

    def test_factors_default_to_the_denominator(self):
        den = 1 - X - Q * X
        assert RationalGF(MultiPoly.one(), den).den_factors == (den,)

    def test_rejects_factors_whose_constant_term_is_not_1(self):
        # the product still has constant term 1
        with pytest.raises(ValueError, match="constant term must be 1"):
            RationalGF(MultiPoly.one(), (X - 1, Q * X - 1))

    def test_rejects_factors_whose_x_free_part_is_not_1(self):
        # constant terms 1, but the first stage cannot divide by 1 + v
        gf = RationalGF(MultiPoly.one(), (1 + V, 1 - X))
        with pytest.raises(ValueError, match="x-free part"):
            expand(gf, 3)
        with pytest.raises(ValueError, match="x-free part"):
            coefficient(gf, 3)

    def test_rename_and_substitute_one_map_each_factor(self):
        # Each image is built through the constructor from the images of the
        # factors, whose product is the image of the denominator.
        mapping = {"p": "q", "q": "p", "u": "t", "t": "u"}
        for pair in INFINITE_PAIRS:
            for family in FAMILIES:
                gf = gf_for(pair, family)
                ops = [("rename", (mapping,)), ("substitute_one", ("q", "s"))] + [
                    ("substitute_one", (var,)) for var in FAMILY_MARKERS[family].values()]
                for name, args in ops:
                    image = getattr(gf, name)(*args)
                    assert image.num == getattr(gf.num, name)(*args)
                    assert image.den == getattr(gf.den, name)(*args)
                    assert image.den_factors == tuple(
                        getattr(factor, name)(*args) for factor in gf.den_factors)

    def test_images_still_check_each_factor_constant_term(self):
        # setting p to 1 leaves the product's constant term 1 but not the factors'
        first, second = 1 - 2*P + X, 1 - 2*P - X
        gf = RationalGF(MultiPoly.one(), (first, second))
        with pytest.raises(ValueError, match="constant term must be 1"):
            gf.substitute_one("p")

    def test_factors_take_no_part_in_eq_hash_or_repr(self):
        num, den = 1 - Q * X, (1 - X) * (1 - Q * X)
        plain, staged = RationalGF(num, den), RationalGF(num, (1 - X, 1 - Q * X))
        assert plain == staged and hash(plain) == hash(staged)
        assert repr(staged) == repr(plain) == f"RationalGF(num={num!r}, den={den!r})"

    def test_catalog_forms_with_factors_match_their_one_stage_form(self):
        # four of the five canonical F forms carry factors; with their
        # images under the symmetry ops, ten of the 28 forms do
        staged = 0
        for pair in INFINITE_PAIRS:
            for family in FAMILIES:
                gf = gf_for(pair, family)
                if len(gf.den_factors) > 1:
                    staged += 1
                    assert expand(gf, 12) == expand(RationalGF(gf.num, gf.den), 12)
        assert staged == 10

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_coefficient_is_the_last_coefficient_of_expand(self, n):
        gf = gf_for(parse_pair("231,312"), "F")
        assert coefficient(gf, n) == expand(gf, n).coeffs[n]

    def test_coefficient_rejects_what_expand_rejects(self):
        gf = RationalGF(MultiPoly.one(), 1 - Q**(2**63) * X)
        with pytest.raises(ValueError, match="64-bit field"):
            coefficient(gf, 1)
        with pytest.raises(ValueError):
            coefficient(RationalGF(MultiPoly.one(), 1 - X), -1)


class TestExpansionPlan:
    """A form builds what its expansions share once and keeps it; each
    expansion still checks its own n before computing any coefficient."""

    @staticmethod
    def counting(monkeypatch):
        calls = {"_field_maxima": 0, "x_slices": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(polys, "_field_maxima", counted("_field_maxima", polys._field_maxima))
        monkeypatch.setattr(MultiPoly, "x_slices", counted("x_slices", MultiPoly.x_slices))
        return calls

    @staticmethod
    def staged_form():
        return RationalGF(1 - Q * X, (1 - X, 1 - Q * X, 1 - P * X**2))

    @pytest.mark.parametrize("first", [expand, coefficient])
    @pytest.mark.parametrize("second", [expand, coefficient])
    def test_a_second_expansion_rebuilds_nothing(self, monkeypatch, first, second):
        gf = self.staged_form()
        reference = reference_expand(gf, 9)
        calls = self.counting(monkeypatch)
        first(gf, 4)
        assert calls == {"_field_maxima": 2, "x_slices": 4}
        calls.update(dict.fromkeys(calls, 0))
        result = second(gf, 9)
        assert calls == {"_field_maxima": 0, "x_slices": 0}
        assert result == (reference if second is expand else reference.coeffs[9])

    def test_a_plan_that_raises_is_not_kept(self, monkeypatch):
        calls = self.counting(monkeypatch)
        gf = RationalGF(MultiPoly.one(), (1 + V, 1 - X))
        messages = []
        for expansion in (expand, coefficient, expand):
            with pytest.raises(ValueError) as exc:
                expansion(gf, 3)
            messages.append(str(exc.value))
        assert messages == ["denominator must have x-free part exactly 1 for expansion"] * 3
        assert calls["x_slices"] == 3 * 2  # the numerator and the first factor, each time

    def test_the_bound_is_checked_before_any_coefficient_once_planned(self, monkeypatch):
        gf = RationalGF(MultiPoly.one(), 1 - Q**(2**61) * X)
        assert coefficient(gf, 2) == Q**(2**62)
        calls = self.counting(monkeypatch)
        # the generator is never started: the bound is checked when it is made
        with pytest.raises(ExponentOverflowError, match="64-bit field"):
            polys._packed_series(gf, 4)
        for expansion in (expand, coefficient):
            with pytest.raises(ExponentOverflowError, match="64-bit field"):
                expansion(gf, 4)
        with pytest.raises(ValueError, match="non-negative"):
            expand(gf, -1)
        assert calls == {"_field_maxima": 0, "x_slices": 0}

    def test_the_plan_is_not_part_of_the_value(self):
        gf, fresh = self.staged_form(), self.staged_form()
        before = (hash(gf), repr(gf))
        expand(gf, 5)
        assert "_plan" in vars(gf) and "_plan" not in vars(fresh)
        assert gf == fresh and (hash(gf), repr(gf)) == before == (hash(fresh), repr(fresh))
        with pytest.raises(AttributeError):
            gf._plan = None
        with pytest.raises(AttributeError):
            del gf._plan
