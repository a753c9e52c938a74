"""The enumeration oracle: joint distributions summed over a class.

``table --oracle`` and :mod:`avoidpair.verify` both read distributions from
here.  The module brings only :mod:`perms`, :mod:`stats` and :mod:`polys`
with it, so the oracle loads none of the catalogue or report code.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter

from . import stats
from .perms import Pair, enumerate_class
from .polys import _SHIFT, MultiPoly


def _joint_counts(pair: Pair, n: int, joint: dict | None) -> Counter:
    """Members of the class at length n counted by their eight-statistic vector.

    ``joint``, when given, is a ``{(pair, n): Counter}`` dict: a table found
    there is reused, and one computed here is stored there.
    """
    counts = None if joint is None else joint.get((pair, n))
    if counts is None:
        counts = Counter(map(stats.stat_vector, enumerate_class(pair, n)))
        if joint is not None:
            joint[pair, n] = counts
    return counts


def brute_distribution(pair: Pair, n: int, family: str, *,
                       joint: dict | None = None) -> MultiPoly:
    """Joint distribution polynomial summed over the enumerated class.

    Members are counted by all eight statistics, one statistics pass each,
    and the family's marginal is read off the distinct vectors; each
    distinct marginal vector is packed straight into a term key of the
    polynomial.  Passing the same ``joint`` dict for both families (see
    :func:`_joint_counts`) enumerates and scores each class once for the
    two.

    >>> from avoidpair.perms import parse_pair
    >>> print(brute_distribution(parse_pair("231,312"), 3, "G"))
    p^2 y + 2 p q y z + q^2 z
    """
    markers = stats.FAMILY_MARKERS.get(family)
    if markers is None:
        raise ValueError(f"unknown family {family!r}")
    marked = attrgetter(*markers)
    shifts = [_SHIFT[var] for var in markers.values()]
    counts = Counter()
    for vec, count in _joint_counts(pair, n, joint).items():
        counts[marked(vec)] += count
    terms = {}
    for values, count in counts.items():
        terms[sum(e << shift for e, shift in zip(values, shifts))] = count
    return MultiPoly._raw(terms)
