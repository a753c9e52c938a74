"""Exact sparse polynomial arithmetic over a fixed nine-variable ring.

The ring has a distinguished size variable ``x`` and eight marker variables
``p, q, u, v, s, t, y, z``; coefficients are arbitrary-precision integers.
A rational generating function is a numerator/denominator pair whose
denominator has unit constant term, and :func:`expand` turns one into a
truncated power series in ``x`` whose coefficients stay exact polynomials
in the marker variables.
"""

from __future__ import annotations

import math
import struct
from operator import add
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

VARS = ("x", "p", "q", "u", "v", "s", "t", "y", "z")

_INDEX = {name: i for i, name in enumerate(VARS)}
_NVARS = len(VARS)
_ZERO_EXPS = (0,) * _NVARS
# struct codes of the unsigned little-endian fields expand packs exponents into
_FIELD_CODES = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))


def _term_key(exps: tuple) -> tuple:
    # Canonical term order: by x-degree, with the bare power of x leading its
    # degree class, then descending lex on the markers, so a fixed-size
    # coefficient prints like "p^2 y + 2 p q y z + q^2 z".
    markers = exps[1:]
    return (exps[0], any(markers), tuple(-e for e in markers))


class MultiPoly:
    """Sparse exact-integer polynomial in the nine ring variables.

    Instances are immutable; arithmetic returns new values and never stores
    a zero coefficient.  Plain ints coerce on the fly, so transcribed
    formulas read naturally:

    >>> p, q, y, z = map(MultiPoly.var, "pqyz")
    >>> print(q**2*z + 2*p*q*y*z + p**2*y)
    p^2 y + 2 p q y z + q^2 z
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, int] | None = None):
        cleaned = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != _NVARS or any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"bad exponent vector: {exps!r}")
            if isinstance(coeff, bool) or not isinstance(coeff, int):
                raise ValueError(f"non-integer coefficient: {coeff!r}")
            if coeff:
                cleaned[exps] = coeff
        self._terms = cleaned

    @classmethod
    def _raw(cls, terms: dict) -> "MultiPoly":
        poly = object.__new__(cls)
        poly._terms = {e: c for e, c in terms.items() if c}
        return poly

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls._raw({_ZERO_EXPS: 1})

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls._raw({_ZERO_EXPS: c})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        if name not in _INDEX:
            raise ValueError(f"unknown variable {name!r}; ring variables are {VARS}")
        exps = [0] * _NVARS
        exps[_INDEX[name]] = 1
        return cls._raw({tuple(exps): 1})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[tuple, int]]:
        """Terms as (exponent vector, coefficient), in canonical order."""
        return sorted(self._terms.items(), key=lambda item: _term_key(item[0]))

    def constant_term(self) -> int:
        return self._terms.get(_ZERO_EXPS, 0)

    def degree_in(self, name: str) -> int:
        """Largest exponent of ``name``; -1 for the zero polynomial."""
        i = _INDEX[name]
        return max((e[i] for e in self._terms), default=-1)

    # -- ring arithmetic --------------------------------------------------

    @classmethod
    def _coerce(cls, value) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            return NotImplemented
        return cls.const(value)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return MultiPoly._raw(terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[tuple, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(map(add, e1, e2))
                terms[exps] = terms.get(exps, 0) + c1 * c2
        return MultiPoly._raw(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- structural operations ---------------------------------------------

    def substitute_one(self, name: str) -> "MultiPoly":
        """Set a variable to 1: drop its exponents and merge like terms.

        >>> p, q, y, z = map(MultiPoly.var, "pqyz")
        >>> print((p**2*y + 2*p*q*y*z + q**2*z).substitute_one("y").substitute_one("z"))
        p^2 + 2 p q + q^2
        """
        i = _INDEX[name]
        terms: dict[tuple, int] = {}
        for exps, coeff in self._terms.items():
            reduced = exps[:i] + (0,) + exps[i + 1 :]
            terms[reduced] = terms.get(reduced, 0) + coeff
        return MultiPoly._raw(terms)

    def rename(self, mapping: Mapping[str, str]) -> "MultiPoly":
        """Apply a simultaneous variable renaming (must be injective)."""
        targets = list(mapping.values())
        if len(set(targets)) != len(targets):
            raise ValueError(f"renaming is not injective: {mapping!r}")
        moves = {_INDEX[old]: _INDEX[new] for old, new in mapping.items()}
        terms: dict[tuple, int] = {}
        for exps, coeff in self._terms.items():
            new_exps = [0] * _NVARS
            for i, e in enumerate(exps):
                new_exps[moves.get(i, i)] += e
            terms[tuple(new_exps)] = terms.get(tuple(new_exps), 0) + coeff
        return MultiPoly._raw(terms)

    def x_slices(self) -> dict[int, "MultiPoly"]:
        """Split by x-degree into x-free polynomials, keyed by the degree."""
        slices: dict[int, dict] = {}
        for exps, coeff in self._terms.items():
            stripped = (0,) + exps[1:]
            slices.setdefault(exps[0], {})[stripped] = coeff
        return {d: MultiPoly._raw(t) for d, t in slices.items()}

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Value at an integer point; every used variable must be assigned."""
        total = 0
        for exps, coeff in self._terms.items():
            value = coeff
            for i, e in enumerate(exps):
                if e:
                    value *= assignment[VARS[i]] ** e
            total += value
        return total

    # -- rendering and wire format ------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = []
        for exps, coeff in self.terms():
            factors = []
            for name in sorted(VARS):
                e = exps[_INDEX[name]]
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors or abs(coeff) != 1:
                factors.insert(0, str(abs(coeff)))
            rendered.append((coeff < 0, " ".join(factors)))
        negative, body = rendered[0]
        out = ("-" if negative else "") + body
        for negative, body in rendered[1:]:
            out += (" - " if negative else " + ") + body
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    def to_json_terms(self) -> list[dict]:
        """Wire format: list of {"exponents": {var: exp}, "coeff": "<int>"}."""
        return [
            {
                "exponents": {VARS[i]: e for i, e in enumerate(exps) if e},
                "coeff": str(coeff),
            }
            for exps, coeff in self.terms()
        ]

    @classmethod
    def from_json_terms(cls, data: Iterable[Mapping]) -> "MultiPoly":
        terms: dict[tuple, int] = {}
        for item in data:
            exps = [0] * _NVARS
            for name, e in item["exponents"].items():
                exps[_INDEX[name]] = int(e)
            exps = tuple(exps)
            terms[exps] = terms.get(exps, 0) + int(item["coeff"])
        return cls._raw(terms)


@dataclass(frozen=True)
class RationalGF:
    """Numerator/denominator pair; the denominator's constant term must be 1.

    ``den_factors`` optionally records the denominator as a product of
    factors, each with constant term 1, which :func:`expand` divides by one
    at a time.  It defaults to ``(den,)`` and takes no part in ``==``,
    ``hash`` or ``repr``: it is a way of computing with ``den``, not part of
    the value.

    >>> x, q = MultiPoly.var("x"), MultiPoly.var("q")
    >>> gf = RationalGF(MultiPoly.one(), (1 - x) * (1 - q*x), (1 - x, 1 - q*x))
    >>> gf == RationalGF(MultiPoly.one(), 1 - x - q*x + q*x**2)
    True
    """

    num: MultiPoly
    den: MultiPoly
    den_factors: tuple[MultiPoly, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.den.constant_term() != 1:
            raise ValueError("denominator constant term must be 1")
        if not self.den_factors:
            object.__setattr__(self, "den_factors", (self.den,))
            return
        if any(factor.constant_term() != 1 for factor in self.den_factors):
            raise ValueError("denominator factor constant terms must be 1")
        first, *rest = self.den_factors
        if math.prod(rest, start=first) != self.den:
            raise ValueError("denominator factors do not multiply to the denominator")

    def rename(self, mapping: Mapping[str, str]) -> "RationalGF":
        return RationalGF(self.num.rename(mapping), self.den.rename(mapping),
                          tuple(factor.rename(mapping) for factor in self.den_factors))

    def substitute_one(self, *names: str) -> "RationalGF":
        num, den, factors = self.num, self.den, self.den_factors
        for name in names:
            num = num.substitute_one(name)
            den = den.substitute_one(name)
            factors = tuple(factor.substitute_one(name) for factor in factors)
        return RationalGF(num, den, factors)


@dataclass(frozen=True)
class SeriesTable:
    """Exact x-power-series coefficients ``coeffs[k]`` for k = 0..n_max."""

    n_max: int
    coeffs: tuple[MultiPoly, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.n_max + 1:
            raise ValueError("need exactly n_max + 1 coefficients")

    def to_json_obj(self) -> dict:
        return {
            "n_max": self.n_max,
            "coeffs": [c.to_json_terms() for c in self.coeffs],
        }


class ExponentOverflowError(ValueError):
    """An expansion's marker exponents would not fit a 64-bit packed field."""


def expand(gf: RationalGF, n_max: int) -> SeriesTable:
    """Truncated power series of ``gf`` in x, exact in the marker variables.

    Writing num = sum_k N_k x^k and a denominator factor f = sum_j F_j x^j
    with F_0 = 1 (slices free of x), the series a/f of a series a satisfies
    the convolution recurrence

        (a/f)_k = a_k - sum_{j=1..k} F_j (a/f)_{k-j}.

    Dividing num by the factors of ``gf.den_factors`` one after another gives
    num/den.  All stages advance together in one loop over k: c_k enters the
    first stage as N_k, each stage turns its input coefficient into its
    output coefficient, and the last stage's output is c_k.  Each stage
    keeps only its own last deg_x(f) outputs.  An unfactored denominator is
    the one-stage case.  A product of small factors costs far fewer
    multiply-adds than its multiplied-out form, whose every term meets
    every kept coefficient.

    Coefficients are accumulated in dicts keyed by packed exponents: the
    nine exponents of an x-free monomial sit in equal fixed-width fields of
    one int, x (always 0) in the lowest, so multiplying two monomials adds
    their keys.  Each stage's output drops its zero terms, and :func:`expand`
    unpacks every c_k into a MultiPoly (:func:`coefficient` only the last).

    The field width comes from the input.  Before cancellation every term
    of a stage's k-th output is a term of num times at most k factor terms
    of x-degree at least 1, so its exponent of marker i is at most
    deg_i(num) + k * max_f deg_i(f).  The degree in one marker adds up over
    a product, so deg_i(f) <= deg_i(den) for every factor f, and
    B_i = deg_i(num) + n_max * deg_i(den) bounds every term and every key
    sum the stages form.  Fields one guard bit wider than max B_i therefore
    never fill, and adding two keys never carries into the next field.  The
    width is rounded up to 8, 16, 32 or 64 bits so that one ``struct`` call
    unpacks a key; a bound that needs more raises ExponentOverflowError
    before any coefficient is computed.

    >>> x = MultiPoly.var("x")
    >>> one = MultiPoly.one()
    >>> [str(c) for c in expand(RationalGF(one, 1 - x), 3).coeffs]
    ['1', '1', '1', '1']
    """
    decode, packed = _packed_series(gf, n_max)
    return SeriesTable(n_max, tuple(decode(c) for c in packed))


def coefficient(gf: RationalGF, n: int) -> MultiPoly:
    """``expand(gf, n).coeffs[n]``, unpacking only that coefficient.

    >>> x, q = MultiPoly.var("x"), MultiPoly.var("q")
    >>> print(coefficient(RationalGF(1 - q*x, 1 - x - q*x), 3))
    1 + q^2 + 2 q
    """
    decode, packed = _packed_series(gf, n)
    (last,) = deque(packed, maxlen=1)
    return decode(last)


def _packed_series(gf: RationalGF, n_max: int):
    """The kernel of :func:`expand`: a generator of the packed c_0..c_n_max
    and the function that unpacks one into a MultiPoly.  Bad input raises
    here, before the generator computes anything."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    num, den = gf.num._terms, gf.den._terms
    bound = max(
        max((e[i] for e in num), default=0) + n_max * max((e[i] for e in den), default=0)
        for i in range(1, _NVARS)
    )
    bits = bound.bit_length() + 1  # the guard bit
    code = next((c for width, c in _FIELD_CODES if width >= bits), None)
    if code is None:
        raise ExponentOverflowError(
            f"marker exponents up to {bound} do not fit a 64-bit field")
    fields = struct.Struct(f"<{_NVARS}{code}")
    unpack, size = fields.unpack, fields.size

    def packed_slices(terms):
        slices: dict[int, dict[int, int]] = {}
        for exps, coeff in terms.items():
            key = int.from_bytes(fields.pack(0, *exps[1:]), "little")
            slices.setdefault(exps[0], {})[key] = coeff
        return slices

    num_slices = packed_slices(num)
    # One (factor terms by x-degree, last outputs) pair per stage.
    stages = []
    for factor in gf.den_factors:
        slices = packed_slices(factor._terms)
        if slices.pop(0, None) != {0: 1}:
            raise ValueError("denominator must have x-free part exactly 1 for expansion")
        by_degree = sorted((j, list(slice_.items())) for j, slice_ in slices.items())
        stages.append((by_degree, deque(maxlen=by_degree[-1][0] if by_degree else 0)))

    def coefficients():
        for k in range(n_max + 1):
            acc = num_slices.get(k, {})
            for by_degree, recent in stages:
                acc = dict(acc)
                get = acc.get
                for j, factor_terms in by_degree:
                    if j > k:
                        break
                    prev = recent[-j].items()
                    for ef, cf in factor_terms:
                        for ec, cc in prev:
                            e = ef + ec
                            acc[e] = get(e, 0) - cf * cc
                acc = {e: c for e, c in acc.items() if c}
                recent.append(acc)
            yield acc

    def decode(acc):
        return MultiPoly._raw({unpack(e.to_bytes(size, "little")): c for e, c in acc.items()})

    return decode, coefficients()
