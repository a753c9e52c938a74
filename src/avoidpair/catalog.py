"""Closed-form generating functions for the two-pattern avoidance classes.

Two families are catalogued for each of the five canonical pairs with an
infinite class:

* family ``F`` marks six statistics: x^n p^asc q^des u^lrmax v^rlmax
  s^lrmin t^rlmin;
* family ``G`` marks four: x^n p^asc q^des y^mna z^mnd.

Forty single-statistic forms specialize them.  Every formula is stored as
transcribed; where a transcription fails the enumeration oracle the entry
also carries the oracle-corrected working form and is flagged, with the raw
form kept for audit.  A variable recipe per symmetry op, derived from the
statistic swaps in :mod:`stats`, extends the canonical entries to all
fourteen pairs with an infinite class; the pair {123, 321} is finite and
only has a counting formula.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache

from ._record import Record

# FiniteClassError and class_count come from perms, and FAMILY_MARKERS and
# FAMILIES from stats; all four are re-exported here.
from .perms import (
    CANONICAL_PAIRS,
    FINITE_PAIR,
    FiniteClassError,
    Pair,
    class_count,
    format_pair,
    pattern_pair,
    reduce_to_canonical,
)
from .polys import MultiPoly, RationalGF
from .stats import FAMILIES, FAMILY_MARKERS, STAT_SWAPS, StatVector, require_family

STAT_NAMES = StatVector._fields


def _recipe(markers: dict[str, str], swaps) -> dict[str, str]:
    # Swapping the markers as the op swaps the statistics leaves at each
    # statistic the marker of the canonical statistic it comes from.
    image = {stat: markers.get(stat) for stat in STAT_NAMES}
    for a, b in swaps:
        image[a], image[b] = image[b], image[a]
    return {image[stat]: var for stat, var in markers.items() if image[stat] != var}


# RECIPES[family][op] renames a canonical form's variables into the form for
# the op's image of the canonical pair.
RECIPES = {family: {op: _recipe(markers, swaps) for op, swaps in STAT_SWAPS.items()}
           for family, markers in FAMILY_MARKERS.items()}


class CatalogEntry(Record):
    """A stored formula plus its audit trail.

    ``gf`` is the working form whose expansion matches enumeration.  ``raw``
    is the form exactly as transcribed; it differs from ``gf`` only when the
    transcription failed the oracle, in which case ``oracle_corrected`` is
    set and ``note`` records the adjustment.
    """

    _compared = ("gf", "raw", "oracle_corrected", "note")

    def __init__(self, gf: RationalGF, raw: RationalGF, oracle_corrected: bool = False,
                 note: str = ""):
        self._set(gf=gf, raw=raw, oracle_corrected=oracle_corrected, note=note)


_PAIR_123_132, _PAIR_132_321, _PAIR_231_312, _PAIR_213_231, _PAIR_213_312, _ = CANONICAL_PAIRS


def _entry(num: MultiPoly, *den_factors: MultiPoly) -> CatalogEntry:
    # The denominator is the product of den_factors, which polys.expand
    # divides by one at a time.  Where the transcription writes a product of
    # linear-in-x factors they are passed apart, in the order whose
    # expansion to n = 30 makes the fewest multiply-adds (the order changes
    # the intermediate series, not the result).  A power of one factor, such
    # as the 132,321 G cube, stays one stage: that expands faster than three.
    first, *rest = den_factors
    gf = RationalGF(num, math.prod(rest, start=first), den_factors)
    return CatalogEntry(gf=gf, raw=gf)


def _corrected(num, den, raw_num, raw_den, note: str) -> CatalogEntry:
    return CatalogEntry(
        gf=RationalGF(num, den),
        raw=RationalGF(raw_num, raw_den),
        oracle_corrected=True,
        note=note,
    )


@lru_cache(maxsize=1)
def _joint_entries() -> dict[tuple[Pair, str], CatalogEntry]:
    # The ring generators are built here, and in _single_entries, so that no
    # other code holds them: an operation that wrote into an operand could
    # otherwise corrupt every form built after it.
    X, P, Q, U, V, S, T, Y, Z = (MultiPoly.var(name) for name in "xpquvstyz")
    entries: dict[tuple[Pair, str], CatalogEntry] = {}

    entries[_PAIR_123_132, "G"] = _entry(
        1 + X + P*X**2*Y + Q*X**2*Z - 2*Q**2*X**2*Z - Q**2*X**3*Z - P*Q*X**2*Y*Z
        + 2*P*Q*X**3*Y*Z - 2*P*Q**2*X**3*Y*Z - Q**3*X**4*Z**2 + Q**4*X**4*Z**2
        + P*Q**2*X**4*Y*Z**2 - P*Q**3*X**4*Y*Z**2,
        1 - 2*Q**2*X**2*Z - P*Q*X**2*Y*Z - 2*P*Q**2*X**3*Y*Z + Q**4*X**4*Z**2
        - P*Q**3*X**4*Y*Z**2,
    )

    entries[_PAIR_132_321, "G"] = _entry(
        1 + X + P*X**2*Y - 3*P**2*X**2*Y - 2*P**2*X**3*Y - 2*P**3*X**4*Y**2
        + 3*P**4*X**4*Y**2 + P**4*X**5*Y**2 + P**5*X**6*Y**3 - P**6*X**6*Y**3
        + Q*X**2*Z + 3*P*Q*X**3*Y*Z + P**2*Q*X**4*Y*Z + 2*P**2*Q*X**4*Y**2*Z
        + P**3*Q*X**5*Y**2*Z,
        (1 - P**2*X**2*Y) ** 3,
    )

    # The same closed form covers both run-structured classes.
    _g_layered = _entry(
        1 + X + P*X**2*Y - P**2*X**2*Y + Q*X**2*Z - Q**2*X**2*Z - P*Q*X**2*Y*Z
        + P*Q*X**3*Y*Z - P**2*Q*X**3*Y*Z - P*Q**2*X**3*Y*Z,
        1 - P**2*X**2*Y - Q**2*X**2*Z - P*Q*X**2*Y*Z - P**2*Q*X**3*Y*Z
        - P*Q**2*X**3*Y*Z,
    )
    entries[_PAIR_231_312, "G"] = _g_layered
    entries[_PAIR_213_231, "G"] = _g_layered

    # The transcribed numerator here fails the oracle already at x^1 (it
    # gives p y + q z where the series has 1).  Keeping the transcribed
    # denominator, the series determines the numerator uniquely; the
    # reconstruction terminates at x^4 and is stored as the working form.
    _den_213_312 = (
        P**4*X**4*Y**2 + (-1 + Q**2*X**2*Z) ** 2 - 2*P**2*X**2*Y*(1 + Q**2*X**2*Z)
    )
    entries[_PAIR_213_312, "G"] = _corrected(
        1 + X
        + (P*Y + Q*Z - 2*P**2*Y - 2*Q**2*Z) * X**2
        + (-P**2*Y + 2*P*Q*Y*Z - Q**2*Z) * X**3
        + (P**4*Y**2 - P**3*Y**2 + P**2*Q*Y*Z + P*Q**2*Y*Z - 2*P**2*Q**2*Y*Z
           + Q**4*Z**2 - Q**3*Z**2) * X**4,
        _den_213_312,
        1 - P**3*X**3*Y**2 + Q*X*Z - Q**2*X**2*Z - Q**3*X**3*Z**2
        + P**2*X**2*Y*(-1 + Q*X*Z) + P*X*Y*(1 + 2*Q*X*Z + Q**2*X**2*Z),
        _den_213_312,
        "raw numerator fails the enumeration oracle at x^1; working numerator "
        "reconstructed from the class distribution against the raw denominator",
    )

    entries[_PAIR_123_132, "F"] = _entry(
        1 + Q**2*S**2*V*X**2 + S*T*U*V*X*(1 + P*T*U*X)
        - Q*S*X*(1 + P*U*V**2*X**2*S*T*(-1 + T)*(-1 + U) + V*(1 + P*X + S*T*U*X)),
        1 + Q**2*S**2*V*X**2 - Q*S*X*(1 + V + P*V*X),
    )

    # The final parenthesis below closes the only reading that balances; the
    # enumeration oracle confirms it.
    entries[_PAIR_132_321, "F"] = _entry(
        1 + S*T*U*V*X + Q*S**2*T*U*V**2*X**2 - P**3*T**2*U**2*X**3
        + P**2*T*U*X**2*(1 + T + U + S*T*U*V*X)
        - P*X*(U + S*T**2*U*V*X*(1 + Q*S*U*(-1 + V)*X) + T*(1 + U + S*U**2*V*X)),
        1 - P*T*X, 1 - P*T*U*X, 1 - P*U*X,
    )

    entries[_PAIR_231_312, "F"] = _entry(
        1 - P*T*U*X + S*T*U*V*X + Q**4*S**2*V**2*X**4
        + Q**3*S*V*X**3*(-1 - V + S*(-1 + V*(-1 + (-1 + P)*T*U*X)))
        - Q*X*(
            1 + V - P*T*U*V*X + S**2*T*U*V*X*(1 + P*T*U*(-1 + V)*X)
            + S*(1 + V - P*T*U*X - (-1 + P)*T*U*V*X + P*T**2*U**2*V*X**2
                 + T*U*V**2*X*(1 - P*T*U*X))
        )
        + Q**2*X**2*(
            V + S**2*V*(1 + T*U*(1 - P + V)*X)
            + S*(1 + V**2*(1 - (-1 + P)*T*U*X) + V*(2 - P*T*U*X))
        ),
        1 - Q*S*V*X, 1 - Q*X - P*T*U*X, 1 - Q*S*X, 1 - Q*V*X,
    )

    entries[_PAIR_213_231, "F"] = _entry(
        1 - P*T*X - P*T*U*X - Q*V*X - Q*S*V*X + S*T*U*V*X + P**2*T**2*U*X**2
        + P*Q*S*T*V*X**2 + P*Q*T*U*V*X**2 + P*Q*S*T*U*V*X**2 - P*S*T**2*U*V*X**2
        + Q**2*S*V**2*X**2 - Q*S*T*U*V**2*X**2 - P**2*Q*S*T**2*U*V*X**3
        - P*Q**2*S*T*U*V**2*X**3 + P*Q*S**2*T**2*U*V**2*X**3
        + P*Q*S*T**2*U**2*V**2*X**3 - P*Q*S**2*T**2*U**2*V**2*X**3,
        1 - P*T*U*X, 1 - Q*S*V*X, 1 - P*T*X - Q*V*X,
    )

    # Given as a sum of rational terms; combined here over the common
    # denominator, using (-1 + a)(-1 + b) = (1 - a)(1 - b).
    _d1 = 1 - P*T*U*X
    _d2 = 1 - P*U*X - Q*V*X
    _d3 = 1 - Q*S*V*X
    entries[_PAIR_213_312, "F"] = _entry(
        (1 + X*U*V*S*T) * (_d1 * _d2 * _d3)
        + P*Q*S*T**2*U**2*V**2*X**3 * _d3
        + Q*S**2*T*U*V**2*X**2 * (_d1 * _d2)
        + P*S*T**2*U**2*V*X**2 * (_d2 * _d3)
        + P*Q*S**2*T*U**2*V**2*X**3 * _d1,
        _d1, _d3, _d2,
    )

    return entries


@lru_cache(maxsize=1)
def _single_entries() -> dict[tuple[Pair, str], CatalogEntry]:
    X, P, Q, U, V, S, T, Y, Z = (MultiPoly.var(name) for name in "xpquvstyz")
    entries: dict[tuple[Pair, str], CatalogEntry] = {}

    def put(pair, forms):
        for stat, (num, den) in forms.items():
            entries[pair, stat] = _entry(num, den)

    put(_PAIR_123_132, {
        "asc": (1 - X, 1 - 2*X + X**2 - P*X**2),
        "des": (1 + X - 2*Q*X + X**2 - 2*Q*X**2 + Q**2*X**2,
                1 - 2*Q*X - Q*X**2 + Q**2*X**2),
        "mna": (1 - X, 1 - 2*X + X**2 - X**2*Y),
        "mnd": (1 + X + X**2 - 2*X**2*Z - X**3*Z, 1 - 3*X**2*Z - 2*X**3*Z),
        "lrmax": (1 - 2*X + U*X - U*X**2 + U**2*X**2, 1 - 2*X),
        "rlmax": (1 - X, 1 - X - V*X),
        "lrmin": (1 - S*X, 1 - 2*S*X - S*X**2 + S**2*X**2),
        "rlmin": (1 - 2*X + T*X - T*X**2 + T**2*X**2, 1 - 2*X),
    })

    put(_PAIR_132_321, {
        "asc": (1 + X - 3*P*X + X**2 - 2*P*X**2 + 3*P**2*X**2 + P**2*X**3 - P**3*X**3,
                (1 - P*X) ** 3),
        "des": (1 - 2*X + X**2 + Q*X**2, (1 - X) ** 3),
        "mna": (1 + X + X**2 - 2*X**2*Y + X**3*Y + X**4*Y + 3*X**4*Y**2 + 2*X**5*Y**2,
                (1 - X**2*Y) ** 3),
        "mnd": (1 - 2*X + X**2 + X**2*Z, (1 - X) ** 3),
        "lrmax": (1 - X - U*X + 2*U*X**2, (1 - X) * (1 - U*X) ** 2),
        "rlmax": (1 - 3*X + V*X + 3*X**2 - 2*V*X**2 + V**2*X**2 - X**3 + 2*V*X**3
                  - V**2*X**3, (1 - X) ** 3),
        "lrmin": (1 - 3*X + S*X + 3*X**2 - 2*S*X**2 + S**2*X**2 - X**3 + S*X**3,
                  (1 - X) ** 3),
        "rlmin": (1 - X - T*X + 2*T*X**2, (1 - X) * (1 - T*X) ** 2),
    })

    put(_PAIR_231_312, {
        "asc": (1 - P*X, 1 - X - P*X),
        "des": (1 - Q*X, 1 - X - Q*X),
        "mna": (1 - X**2*Y, 1 - X - 2*X**2*Y),
        "mnd": (1 - X**2*Z, 1 - X - 2*X**2*Z),
        "lrmax": (1 - X, 1 - X - U*X),
        "rlmax": (1 - 2*X + V*X**2, (1 - 2*X) * (1 - V*X)),
        "lrmin": (1 - 2*X + S*X**2, (1 - 2*X) * (1 - S*X)),
        "rlmin": (1 - X, 1 - X - T*X),
    })

    put(_PAIR_213_231, {
        "asc": (1 - P*X, 1 - X - P*X),
        "des": (1 - Q*X, 1 - X - Q*X),
        "mna": (1 - X**2*Y, 1 - X - 2*X**2*Y),
        "mnd": (1 - X**2*Z, 1 - X - 2*X**2*Z),
        "lrmax": (1 - 2*X + U*X**2, (1 - 2*X) * (1 - U*X)),
        "rlmax": (1 - X, 1 - X - V*X),
        "lrmin": (1 - 2*X + S*X**2, (1 - 2*X) * (1 - S*X)),
        "rlmin": (1 - X, 1 - X - T*X),
    })

    put(_PAIR_213_312, {
        "asc": (1 - P*X, 1 - X - P*X),
        "des": (1 - Q*X, 1 - X - Q*X),
        "lrmax": (1 - X, 1 - X - U*X),
        "rlmax": (1 - X, 1 - X - V*X),
        "lrmin": (1 - 2*X + S*X**2, (1 - 2*X) * (1 - S*X)),
        "rlmin": (1 - 2*X + T*X**2, (1 - 2*X) * (1 - T*X)),
    })

    # The transcribed mna/mnd forms for this pair have constant term 0 and
    # so miss the empty permutation; the oracle fixes them by adding 1,
    # which collapses each numerator to 1 - x.
    entries[_PAIR_213_312, "mna"] = _corrected(
        1 - X, 1 - 2*X + X**2 - X**2*Y,
        X - X**2 + X**2*Y, 1 - 2*X + X**2 - X**2*Y,
        "raw form has constant term 0 and equals the series minus 1; "
        "working form adds the empty-permutation term",
    )
    entries[_PAIR_213_312, "mnd"] = _corrected(
        1 - X, 1 - 2*X + X**2 - X**2*Z,
        X - X**2 + X**2*Z, 1 - 2*X + X**2 - X**2*Z,
        "raw form has constant term 0 and equals the series minus 1; "
        "working form adds the empty-permutation term",
    )

    return entries


def _stored(entries: dict, pair: Pair, key: str) -> CatalogEntry:
    pair = pattern_pair(*pair)
    if pair == FINITE_PAIR:
        raise FiniteClassError(
            f"{format_pair(pair)} is a finite class with no generating function; "
            "use class_count"
        )
    try:
        return entries[pair, key]
    except KeyError:
        raise ValueError(f"{format_pair(pair)} is not a canonical pair") from None


def canonical_entry(pair: Pair, family: str) -> CatalogEntry:
    """Stored entry for a canonical pair, with its audit fields."""
    return _stored(_joint_entries(), pair, require_family(family))


def canonical_gf(pair: Pair, family: str) -> RationalGF:
    """Working closed form for a canonical pair.

    >>> from .polys import expand
    >>> pair = pattern_pair((2, 3, 1), (3, 1, 2))
    >>> print(expand(canonical_gf(pair, "G"), 3).coeffs[3])
    p^2 y + 2 p q y z + q^2 z
    """
    return canonical_entry(pair, family).gf


def single_stat_entry(pair: Pair, stat: str) -> CatalogEntry:
    if stat not in STAT_NAMES:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {STAT_NAMES}")
    return _stored(_single_entries(), pair, stat)


def single_stat_gf(pair: Pair, stat: str) -> RationalGF:
    """Single-statistic closed form for a canonical pair.

    >>> pair = pattern_pair((2, 3, 1), (3, 1, 2))
    >>> print(single_stat_gf(pair, "asc").num)
    1 - p x
    """
    return single_stat_entry(pair, stat).gf


def gf_for(pair: Pair, family: str) -> RationalGF:
    """Closed form for any of the fourteen pairs with an infinite class.

    The canonical form is carried over by the symmetry op's variable recipe.
    Each of the 28 forms is built once and the same object returned after;
    the finite pair raises on every call.

    >>> lhs = gf_for(pattern_pair((1, 2, 3), (2, 1, 3)), "G")
    >>> lhs == canonical_gf(pattern_pair((1, 2, 3), (1, 3, 2)), "G")
    True
    """
    family = require_family(family)
    return _gf_for(pattern_pair(*pair), family)


@cache
def _gf_for(pair: Pair, family: str) -> RationalGF:
    canonical, op = reduce_to_canonical(pair)
    return canonical_gf(canonical, family).rename(RECIPES[family][op])


def _entry_json(entry: CatalogEntry) -> dict:
    data = {
        "num": entry.gf.num.to_json_terms(),
        "den": entry.gf.den.to_json_terms(),
        "oracle_corrected": entry.oracle_corrected,
    }
    if entry.oracle_corrected:
        data["raw_num"] = entry.raw.num.to_json_terms()
        data["raw_den"] = entry.raw.den.to_json_terms()
        data["note"] = entry.note
    return data


def audit_order() -> tuple[list, list]:
    """The stored ``((pair, key), entry)`` items as every audit lists them: the
    joint ones by family then pair, the single ones by pair then statistic."""
    joint = sorted(_joint_entries().items(), key=lambda item: (item[0][1], item[0][0]))
    single = sorted(_single_entries().items(),
                    key=lambda item: (item[0][0], STAT_NAMES.index(item[0][1])))
    return joint, single


def dump() -> dict:
    """Every stored formula in the polynomial wire format, for audit."""
    joint_entries, single_entries = audit_order()
    joint: dict[str, dict] = {family: {} for family in FAMILIES}
    for (pair, family), entry in joint_entries:
        joint[family][format_pair(pair)] = _entry_json(entry)
    single: dict[str, dict] = {}
    for (pair, stat), entry in single_entries:
        single.setdefault(format_pair(pair), {})[stat] = _entry_json(entry)
    return {"joint": joint, "single": single}
