"""The eight permutation statistics.

All statistics are total on every permutation, including the empty one
(where each is 0).  Non-overlapping counts (`mna`, `mnd`) mean the maximum
number of pairwise index-disjoint adjacent pairs; an ascent at (i, i+1) and
one at (i+1, i+2) overlap.  The left-to-right greedy scan attains that
maximum, this being the unit-interval special case of interval scheduling.
"""

from __future__ import annotations

from typing import NamedTuple

from . import FAMILIES
from .perms import Perm


def asc(perm: Perm) -> int:
    """Number of positions i with perm[i] < perm[i+1].

    >>> asc((3, 4, 1, 5, 2))
    2
    """
    return sum(a < b for a, b in zip(perm, perm[1:]))


def des(perm: Perm) -> int:
    """Number of positions i with perm[i] > perm[i+1].

    >>> des((3, 2, 1, 5, 4))
    3
    """
    return sum(a > b for a, b in zip(perm, perm[1:]))


def lrmax(perm: Perm) -> int:
    """Elements greater than everything to their left."""
    count, best = 0, 0
    for v in perm:
        if v > best:
            count, best = count + 1, v
    return count


def lrmin(perm: Perm) -> int:
    """Elements smaller than everything to their left."""
    count, best = 0, len(perm) + 1
    for v in perm:
        if v < best:
            count, best = count + 1, v
    return count


def rlmax(perm: Perm) -> int:
    """Elements greater than everything to their right."""
    return lrmax(perm[::-1])


def rlmin(perm: Perm) -> int:
    """Elements smaller than everything to their right."""
    return lrmin(perm[::-1])


def mna(perm: Perm) -> int:
    """Maximum number of pairwise index-disjoint ascents (greedy scan).

    >>> mna((3, 4, 1, 5, 2))
    2
    """
    count, i = 0, 0
    while i < len(perm) - 1:
        if perm[i] < perm[i + 1]:
            count += 1
            i += 2
        else:
            i += 1
    return count


def mnd(perm: Perm) -> int:
    """Maximum number of pairwise index-disjoint descents (greedy scan).

    >>> mnd((3, 2, 1, 5, 4))
    2
    """
    count, i = 0, 0
    while i < len(perm) - 1:
        if perm[i] > perm[i + 1]:
            count += 1
            i += 2
        else:
            i += 1
    return count


class StatVector(NamedTuple):
    """All eight statistics of one permutation.

    A named tuple: cheap to build, hashable, and counted directly as the
    joint key of all eight statistics.
    """

    asc: int
    des: int
    lrmax: int
    lrmin: int
    rlmax: int
    rlmin: int
    mna: int
    mnd: int

    def to_json_obj(self) -> dict[str, int]:
        return self._asdict()


# What reverse and complement do to the statistics: each exchanges the two
# statistics of every listed pair and keeps the others.  Read backwards,
# ascents become descents and left-to-right records right-to-left ones;
# under v -> n + 1 - v, ascents become descents and maxima minima.
REVERSE_SWAPS = (("asc", "des"), ("lrmax", "rlmax"), ("lrmin", "rlmin"), ("mna", "mnd"))
COMPLEMENT_SWAPS = (("asc", "des"), ("lrmax", "lrmin"), ("rlmax", "rlmin"), ("mna", "mnd"))
# The swaps of each op in `perms.SYMMETRY_OPS`, in the order they apply.
STAT_SWAPS = {"identity": (), "r": REVERSE_SWAPS, "c": COMPLEMENT_SWAPS,
              "rc": REVERSE_SWAPS + COMPLEMENT_SWAPS}

# Each family of `FAMILIES` (declared in the package root, for the CLI), with
# its marked statistics and the ring variable that marks each.
FAMILY_MARKERS = {
    "F": {"asc": "p", "des": "q", "lrmax": "u", "rlmax": "v", "lrmin": "s", "rlmin": "t"},
    "G": {"asc": "p", "des": "q", "mna": "y", "mnd": "z"},
}


def require_family(family: str) -> str:
    """``family`` if it is one of `FAMILIES`: the catalogue and the oracle check here."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return family


def stat_vector(perm: Perm) -> StatVector:
    """All eight statistics in one forward and one backward scan.

    The forward scan classifies each adjacent pair once; values are
    distinct, so every pair that is not an ascent is a descent.  A new
    left-to-right maximum can only end an ascent and a new minimum only a
    descent.  The greedy scans of `mna` and `mnd` become one flag per kind:
    an ascent is taken exactly when the previous pair was not a taken
    ascent, and likewise for descents.  The backward scan counts the
    right-to-left records.  The single-statistic functions above remain
    the definitions this must agree with.

    >>> stat_vector((3, 4, 1, 5, 2))
    StatVector(asc=2, des=2, lrmax=3, lrmin=2, rlmax=2, rlmin=2, mna=2, mnd=2)
    """
    if not perm:
        return StatVector(0, 0, 0, 0, 0, 0, 0, 0)
    n_asc = n_mna = n_mnd = 0
    n_lrmax = n_lrmin = 1
    took_asc = took_des = False
    scan = iter(perm)
    prev = high = low = next(scan)
    for v in scan:
        if v > prev:
            n_asc += 1
            took_asc = not took_asc
            n_mna += took_asc
            took_des = False
            if v > high:
                high = v
                n_lrmax += 1
        else:
            took_des = not took_des
            n_mnd += took_des
            took_asc = False
            if v < low:
                low = v
                n_lrmin += 1
        prev = v
    n_rlmax = n_rlmin = 0
    high, low = 0, len(perm) + 1
    for v in reversed(perm):
        if v > high:
            high = v
            n_rlmax += 1
        if v < low:
            low = v
            n_rlmin += 1
    return StatVector(n_asc, len(perm) - 1 - n_asc, n_lrmax, n_lrmin,
                      n_rlmax, n_rlmin, n_mna, n_mnd)
