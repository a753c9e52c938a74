"""The enumeration oracle: joint distributions summed over a class.

``table --oracle`` and :mod:`avoidpair.verify` both read distributions from
here.  The module brings only :mod:`perms`, :mod:`stats` and :mod:`polys`
with it, so the oracle loads none of the catalogue or report code.
Members are read from :func:`~avoidpair.perms.class_members` in the order
the generator makes them, so a non-canonical class's images are mapped one
at a time and never held together.  Each class and length is counted once
per process, into one polynomial in the markers of all eight statistics,
from which either family's distribution is read.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

from . import stats
from .perms import Pair, class_members, pattern_pair, require_length
from .polys import MultiPoly

# Each statistic has one marker of its own, the same in every family, so the
# eight markers in StatVector order name the exponents of a statistic vector.
_MARKER_OF = {stat: var for markers in stats.FAMILY_MARKERS.values()
              for stat, var in markers.items()}
_MARKERS = tuple(_MARKER_OF[stat] for stat in stats.StatVector._fields)
_OTHER_MARKERS = {family: tuple(var for var in _MARKERS if var not in markers.values())
                  for family, markers in stats.FAMILY_MARKERS.items()}


@cache
def _joint_distribution(pair: Pair, n: int) -> MultiPoly:
    """All eight statistics' distribution over the class at length n, one
    term per distinct statistic vector; `brute_distribution` checks the
    length and orders the pair before this cached lookup."""
    return MultiPoly.from_counts(Counter(map(stats.stat_vector, class_members(pair, n))), _MARKERS)


def brute_distribution(pair: Pair, n: int, family: str) -> MultiPoly:
    """Joint distribution polynomial summed over the enumerated class.

    It is :func:`_joint_distribution` with the markers outside the family
    set to 1.  The family is checked first, then the length rule, then the
    pair; so ``True`` or ``1.0`` never reads the distribution of n = 1.

    >>> from avoidpair.perms import parse_pair
    >>> print(brute_distribution(parse_pair("231,312"), 3, "G"))
    p^2 y + 2 p q y z + q^2 z
    """
    others = _OTHER_MARKERS[stats.require_family(family)]
    require_length(n)
    return _joint_distribution(pattern_pair(*pair), n).substitute_one(*others)
