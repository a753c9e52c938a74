"""Exact sparse polynomial arithmetic over a fixed nine-variable ring.

The ring has a distinguished size variable ``x`` and eight marker variables
``p, q, u, v, s, t, y, z``; coefficients are arbitrary-precision integers.
A rational generating function is a numerator/denominator pair whose
denominator has unit constant term, and :func:`expand` turns one into a
truncated power series in ``x`` whose coefficients stay exact polynomials
in the marker variables.

A term is stored under one int key that packs its nine exponents into
64-bit fields, so multiplying two monomials adds their keys.  Every
exponent lies in 0..2^64 - 1; a product or renaming whose exponents would
not fit raises :class:`ExponentOverflowError` rather than carry into the
next field.  Exponent vectors are unpacked, in ``VARS`` order, only for
the public views (:meth:`MultiPoly.terms`, ``str``, the wire format and
:meth:`MultiPoly.evaluate`).
"""

from __future__ import annotations

import math
import struct
from collections import deque
from functools import reduce
from itertools import repeat
from operator import itemgetter, or_
from typing import Iterable, Mapping

from ._record import Record

VARS = ("x", "p", "q", "u", "v", "s", "t", "y", "z")

_INDEX = {name: i for i, name in enumerate(VARS)}
_NVARS = len(VARS)

# The fields of a key, from the lowest up.  The G markers come first so that
# x-free G keys stay four fields long (longer keys make the expansion kernel
# slower), and x is on top, so key >> _X_SHIFT is the x-degree.
_LAYOUT = ("p", "q", "y", "z", "u", "v", "s", "t", "x")
_FIELD_BITS = 64
_FIELD_MAX = (1 << _FIELD_BITS) - 1
_SHIFT = {name: _FIELD_BITS * i for i, name in enumerate(_LAYOUT)}
_X_SHIFT = _SHIFT["x"]
_X_FREE = (1 << _X_SHIFT) - 1
# the top bit of every field: keys whose OR misses all of them add without carry
_TOP_BITS = sum(1 << (shift + _FIELD_BITS - 1) for shift in _SHIFT.values())
_FIELDS = struct.Struct(f"<{_NVARS}Q")
_KEY_BYTES = _FIELDS.size
_NO_FIELDS = (0,) * _NVARS
_to_layout = itemgetter(*(_INDEX[name] for name in _LAYOUT))
_to_vars = itemgetter(*(_LAYOUT.index(name) for name in VARS))
# (name, index in VARS) in the alphabetical order str writes variables in
_RENDER_ORDER = sorted(_INDEX.items())


class ExponentOverflowError(ValueError):
    """An exponent would not fit its 64-bit field.

    :func:`expand` raises it before computing anything when the marker
    exponents of the expansion could need more than 63 bits, and products,
    renamings and the constructor when an exponent would pass 2^64 - 1.
    """


def _pack(exps: tuple) -> int:
    return int.from_bytes(_FIELDS.pack(*_to_layout(exps)), "little")


def _fields(keys: Iterable[int]) -> Iterable[tuple]:
    """The exponents of each key, in ``_LAYOUT`` order (one struct call each)."""
    return map(_FIELDS.unpack, map(int.to_bytes, keys, repeat(_KEY_BYTES), repeat("little")))


def _unpack(keys: Iterable[int]) -> Iterable[tuple]:
    """The exponent vector of each key, in ``VARS`` order."""
    return map(_to_vars, _fields(keys))


def _field_maxima(keys: Iterable[int]) -> tuple:
    """The largest exponent in each field, in ``_LAYOUT`` order."""
    return tuple(map(max, zip(_NO_FIELDS, *_fields(keys))))


def _nonzero(terms: dict) -> dict:
    return {key: coeff for key, coeff in terms.items() if coeff}


def _term_order(item: tuple) -> tuple:
    # Canonical term order, as a key to sort in reverse: by x-degree, with
    # the bare power of x leading its degree class, then descending lex on
    # the markers, so a fixed-size coefficient prints like
    # "p^2 y + 2 p q y z + q^2 z".
    exps = item[0]
    markers = exps[1:]
    return (-exps[0], not any(markers), markers)


class MultiPoly:
    """Sparse exact-integer polynomial in the nine ring variables.

    Instances are immutable; arithmetic returns new values and never stores
    a zero coefficient.  Plain ints coerce on the fly, so transcribed
    formulas read naturally:

    >>> p, q, y, z = map(MultiPoly.var, "pqyz")
    >>> print(q**2*z + 2*p*q*y*z + p**2*y)
    p^2 y + 2 p q y z + q^2 z

    The constructor takes exponent vectors in ``VARS`` order; each exponent
    is an int (not a bool) in 0..2^64 - 1.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, int] | None = None):
        cleaned = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != _NVARS or any(
                isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps
            ):
                raise ValueError(f"bad exponent vector: {exps!r}")
            if max(exps) > _FIELD_MAX:
                raise ExponentOverflowError(
                    f"exponent vector {exps!r} does not fit 64-bit fields")
            if isinstance(coeff, bool) or not isinstance(coeff, int):
                raise ValueError(f"non-integer coefficient: {coeff!r}")
            if coeff:
                cleaned[_pack(exps)] = coeff
        self._terms = cleaned

    @classmethod
    def _raw(cls, terms: dict) -> "MultiPoly":
        # Takes ownership of ``terms``: packed keys, no zero coefficient.
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls._raw({0: 1})

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls._raw({0: c} if c else {})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        if name not in _INDEX:
            raise ValueError(f"unknown variable {name!r}; ring variables are {VARS}")
        return cls._raw({1 << _SHIFT[name]: 1})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[tuple, int]]:
        """Terms as (exponent vector, coefficient), in canonical order."""
        terms = self._terms
        return sorted(zip(_unpack(terms), terms.values()), key=_term_order, reverse=True)

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def degree_in(self, name: str) -> int:
        """Largest exponent of ``name``; -1 for the zero polynomial."""
        shift = _SHIFT[name]
        return max((key >> shift & _FIELD_MAX for key in self._terms), default=-1)

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
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return MultiPoly._raw(_nonzero(terms))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({key: -c for key, c in self._terms.items()})

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
        left, right = self._terms, other._terms
        if (reduce(or_, left, 0) | reduce(or_, right, 0)) & _TOP_BITS:
            # Some field reaches 2^63: check that no field sum passes 2^64 - 1.
            for name, a, b in zip(_LAYOUT, _field_maxima(left), _field_maxima(right)):
                if a + b > _FIELD_MAX:
                    raise ExponentOverflowError(
                        f"exponents of {name} up to {a + b} do not fit a 64-bit field")
        terms: dict[int, int] = {}
        get = terms.get
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                e = e1 + e2
                terms[e] = get(e, 0) + c1 * c2
        return MultiPoly._raw(_nonzero(terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
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
        keep = ~(_FIELD_MAX << _SHIFT[name])
        terms: dict[int, int] = {}
        for key, coeff in self._terms.items():
            key &= keep
            terms[key] = terms.get(key, 0) + coeff
        return MultiPoly._raw(_nonzero(terms))

    def rename(self, mapping: Mapping[str, str]) -> "MultiPoly":
        """Apply a simultaneous variable renaming (must be injective)."""
        targets = list(mapping.values())
        if len(set(targets)) != len(targets):
            raise ValueError(f"renaming is not injective: {mapping!r}")
        moves = [(_SHIFT[old], _SHIFT[new]) for old, new in mapping.items()]
        keep = ~sum(_FIELD_MAX << _SHIFT[old] for old in mapping)
        # a target that is not renamed itself keeps its own exponent, and the
        # moved one adds to it
        merges = [(_SHIFT[old], _SHIFT[new], new) for old, new in mapping.items()
                  if new not in mapping]
        terms: dict[int, int] = {}
        for key, coeff in self._terms.items():
            for src, dst, name in merges:
                total = (key >> src & _FIELD_MAX) + (key >> dst & _FIELD_MAX)
                if total > _FIELD_MAX:
                    raise ExponentOverflowError(
                        f"exponent {total} of {name} does not fit a 64-bit field")
            new = key & keep
            for src, dst in moves:
                new += (key >> src & _FIELD_MAX) << dst
            terms[new] = terms.get(new, 0) + coeff
        return MultiPoly._raw(_nonzero(terms))

    def x_slices(self) -> dict[int, "MultiPoly"]:
        """Split by x-degree into x-free polynomials, keyed by the degree."""
        slices: dict[int, dict] = {}
        for key, coeff in self._terms.items():
            slices.setdefault(key >> _X_SHIFT, {})[key & _X_FREE] = coeff
        return {d: MultiPoly._raw(t) for d, t in slices.items()}

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Value at an integer point; every used variable must be assigned."""
        total = 0
        for exps, coeff in zip(_unpack(self._terms), self._terms.values()):
            value = coeff
            for name, e in zip(VARS, exps):
                if e:
                    value *= assignment[name] ** e
            total += value
        return total

    # -- rendering and wire format ------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = []
        for exps, coeff in self.terms():
            factors = []
            for name, i in _RENDER_ORDER:
                e = exps[i]
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
        return [json_term(exps, coeff) for exps, coeff in self.terms()]

    @classmethod
    def from_json_terms(cls, data: Iterable[Mapping]) -> "MultiPoly":
        terms: dict[tuple, int] = {}
        for item in data:
            exps = [0] * _NVARS
            for name, e in item["exponents"].items():
                exps[_INDEX[name]] = int(e)
            exps = tuple(exps)
            terms[exps] = terms.get(exps, 0) + int(item["coeff"])
        return cls(terms)


def json_term(exps: tuple, coeff: int) -> dict:
    """One term of the wire format: the non-zero exponents and the coefficient.

    >>> json_term((3, 2, 0, 0, 0, 0, 0, 1, 0), -4)
    {'exponents': {'x': 3, 'p': 2, 'y': 1}, 'coeff': '-4'}
    """
    return {"exponents": {VARS[i]: e for i, e in enumerate(exps) if e}, "coeff": str(coeff)}


def _check_factor_constants(factors: Iterable[MultiPoly]) -> None:
    if any(factor.constant_term() != 1 for factor in factors):
        raise ValueError("denominator factor constant terms must be 1")


class RationalGF(Record):
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

    _compared = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly,
                 den_factors: tuple[MultiPoly, ...] = ()):
        if den.constant_term() != 1:
            raise ValueError("denominator constant term must be 1")
        if den_factors:
            _check_factor_constants(den_factors)
            first, *rest = den_factors
            if math.prod(rest, start=first) != den:
                raise ValueError("denominator factors do not multiply to the denominator")
        self._set(num=num, den=den, den_factors=den_factors or (den,))

    def _image(self, image) -> "RationalGF":
        # image is a ring homomorphism, so the factors' images multiply to
        # the image of den: that product is not formed again to check it.
        gf = RationalGF(image(self.num), image(self.den))
        if len(self.den_factors) > 1:
            factors = tuple(map(image, self.den_factors))
            _check_factor_constants(factors)
            gf._set(den_factors=factors)
        return gf

    def rename(self, mapping: Mapping[str, str]) -> "RationalGF":
        return self._image(lambda poly: poly.rename(mapping))

    def substitute_one(self, *names: str) -> "RationalGF":
        return self._image(lambda poly: reduce(MultiPoly.substitute_one, names, poly))


class SeriesTable(Record):
    """Exact x-power-series coefficients ``coeffs[k]`` for k = 0..n_max."""

    _compared = ("n_max", "coeffs")

    def __init__(self, n_max: int, coeffs: tuple[MultiPoly, ...]):
        if len(coeffs) != n_max + 1:
            raise ValueError("need exactly n_max + 1 coefficients")
        self._set(n_max=n_max, coeffs=coeffs)

    def to_json_obj(self) -> dict:
        return {
            "n_max": self.n_max,
            "coeffs": [c.to_json_terms() for c in self.coeffs],
        }


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

    Coefficients are accumulated in dicts keyed by the ring's packed
    exponents (see :class:`MultiPoly`), so multiplying two monomials adds
    their keys.  Each stage's output drops its zero terms and is already a
    coefficient's term dict: the last stage's outputs become the returned
    MultiPolys as they are, with no unpacking and no copy.

    The ring's fields are 64 bits wide.  Before cancellation every term of
    a stage's k-th output is a term of num times at most k factor terms of
    x-degree at least 1, so its exponent of marker i is at most
    deg_i(num) + k * max_f deg_i(f).  The degree in one marker adds up over
    a product, so deg_i(f) <= deg_i(den) for every factor f, and
    B_i = deg_i(num) + n_max * deg_i(den) bounds every term and every key
    sum the stages form.  If max B_i plus one guard bit fits a field, no
    key sum carries into the next field; a bound that needs more than 64
    bits raises ExponentOverflowError before any coefficient is computed.

    >>> x = MultiPoly.var("x")
    >>> one = MultiPoly.one()
    >>> [str(c) for c in expand(RationalGF(one, 1 - x), 3).coeffs]
    ['1', '1', '1', '1']
    """
    return SeriesTable(n_max, tuple(map(MultiPoly._raw, _packed_series(gf, n_max))))


def coefficient(gf: RationalGF, n: int) -> MultiPoly:
    """``expand(gf, n).coeffs[n]``, keeping only the stages' recent outputs.

    >>> x, q = MultiPoly.var("x"), MultiPoly.var("q")
    >>> print(coefficient(RationalGF(1 - q*x, 1 - x - q*x), 3))
    1 + q^2 + 2 q
    """
    (last,) = deque(_packed_series(gf, n), maxlen=1)
    return MultiPoly._raw(last)


def _packed_series(gf: RationalGF, n_max: int):
    """The kernel of :func:`expand`: a generator of the term dicts of
    c_0..c_n_max.  Bad input raises here, before the generator computes
    anything."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    num_max = _field_maxima(gf.num._terms)
    den_max = _field_maxima(gf.den._terms)
    bound = max(num_max[i] + n_max * den_max[i]
                for i, name in enumerate(_LAYOUT) if name != "x")
    if bound.bit_length() + 1 > _FIELD_BITS:  # the guard bit
        raise ExponentOverflowError(
            f"marker exponents up to {bound} do not fit a 64-bit field")

    num_slices = {j: slice_._terms for j, slice_ in gf.num.x_slices().items()}
    # One (factor terms by x-degree, last outputs) pair per stage.
    stages = []
    for factor in gf.den_factors:
        slices = factor.x_slices()
        if slices.pop(0, None) != MultiPoly.one():
            raise ValueError("denominator must have x-free part exactly 1 for expansion")
        by_degree = sorted((j, list(slice_._terms.items())) for j, slice_ in slices.items())
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
                acc = _nonzero(acc)
                recent.append(acc)
            yield acc

    return coefficients()
