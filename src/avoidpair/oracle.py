"""The enumeration oracle: joint distributions summed over a class.

``table --oracle`` and :mod:`avoidpair.verify` both read distributions from
here.  The module brings only :mod:`perms`, :mod:`stats` and :mod:`polys`
with it, so the oracle loads none of the catalogue or report code.
Members are read from :func:`~avoidpair.perms.class_members` in the order
the generator makes them, so a non-canonical class's images are mapped one
at a time and never held together.
"""

from __future__ import annotations

import struct
from collections import Counter
from operator import itemgetter

from . import stats
from .perms import Pair, class_members
from .polys import _FIELD_BITS, _FIELD_MAX, _LAYOUT, _SHIFT, _X_SHIFT, MultiPoly

# Each statistic is marked by the same ring variable in every family that
# marks it, and no two statistics share a variable.  So one polynomial key
# holds all eight statistics, each in its variable's 64-bit field, and a
# family's marginal key is that key masked to the family's fields.  The
# marker fields lie below x, so the key is packed from them alone.
_STAT_OF_VAR = {var: stat for markers in stats.FAMILY_MARKERS.values()
                for stat, var in markers.items()}
_MARKER_FIELDS = _LAYOUT[:_X_SHIFT // _FIELD_BITS]
_STATS_IN_FIELD_ORDER = itemgetter(*(stats.StatVector._fields.index(_STAT_OF_VAR[var])
                                     for var in _MARKER_FIELDS))
_PACK_STATS = struct.Struct(f"<{len(_MARKER_FIELDS)}Q").pack
_FAMILY_MASKS = {family: sum(_FIELD_MAX << _SHIFT[var] for var in markers.values())
                 for family, markers in stats.FAMILY_MARKERS.items()}


def _joint_counts(pair: Pair, n: int, joint: dict | None) -> dict[int, int]:
    """Members of the class at length n counted by their eight-statistic key.

    Counting needs no sort, so members are counted as `class_members`
    yields them (see the module docstring).  A key packs a member's eight
    statistics into the fields of their ring variables (one struct pack per
    distinct statistic vector).  ``joint``, when given, is a
    ``{(pair, n): counts}`` dict: a table found there is reused, and one
    computed here is stored there.
    """
    counts = None if joint is None else joint.get((pair, n))
    if counts is None:
        vectors = Counter(map(stats.stat_vector, class_members(pair, n)))
        counts = {int.from_bytes(_PACK_STATS(*_STATS_IN_FIELD_ORDER(vec)), "little"): count
                  for vec, count in vectors.items()}
        if joint is not None:
            joint[pair, n] = counts
    return counts


def brute_distribution(pair: Pair, n: int, family: str, *,
                       joint: dict | None = None) -> MultiPoly:
    """Joint distribution polynomial summed over the enumerated class.

    Members are counted by all eight statistics, one statistics pass each,
    and the family's marginal is read off the distinct packed keys: each
    key, masked to the family's fields, is a term key of the polynomial.
    Passing the same ``joint`` dict for both families (see
    :func:`_joint_counts`) enumerates and scores each class once for the
    two.

    >>> from avoidpair.perms import parse_pair
    >>> print(brute_distribution(parse_pair("231,312"), 3, "G"))
    p^2 y + 2 p q y z + q^2 z
    """
    mask = _FAMILY_MASKS[stats.require_family(family)]
    terms = {}
    get = terms.get
    for key, count in _joint_counts(pair, n, joint).items():
        key &= mask
        terms[key] = get(key, 0) + count
    return MultiPoly._raw(terms)
