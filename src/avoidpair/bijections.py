"""Composition codecs and statistic-exchanging maps on two structured classes.

Permutations avoiding {231, 312} are exactly the layered ones: direct sums
of decreasing blocks.  Permutations avoiding {213, 231} decompose uniquely
into maximal ascending runs ending at right-to-left maxima.  Either class
holds one member per composition of n, or equivalently per set of cut
positions in {1, ..., n-1}: a cut c splits a member between positions c and
c + 1.  A layered member is cut at its ascents, an ascending-run member at
its descents, so one scan of adjacent pairs decodes a member to its cuts,
and each member is rebuilt straight from its cuts.

Two maps act on the cuts of a layered member:

* ``complement_map`` (an involution on the layered class) complements the
  cut set, taking the descent positions as the image's cuts; it exchanges
  (asc, des, mna, mnd) with (des, asc, mnd, mna) pointwise;
* ``transfer_map`` (a bijection from the layered class onto the ascending-run
  class) mirrors each cut c to n - c, which reverses the block-size
  sequence; it exchanges the same quadruple and places a right-to-left
  maximum of the image at position n+1-i exactly when the source has a
  left-to-right maximum at position i.

Both maps are defined for n >= 1 only; the empty permutation is rejected.
Each map checks that its argument is a layered member, then calls its image
function (``complement_image``, ``transfer_image``), which computes the
image of a member already known to be one; :mod:`avoidpair.verify` calls
the image functions on the class generator's members, which it never checks
again.
"""

from __future__ import annotations

from itertools import accumulate, compress
from operator import gt, lt, sub

from .perms import (
    DataError,
    Pair,
    Perm,
    find_occurrence,
    format_pattern,
    format_perm,
    make_permutation,
    pattern_pair,
    require_length,
)

Composition = tuple[int, ...]

LAYERED_PAIR: Pair = pattern_pair((2, 3, 1), (3, 1, 2))
RUN_PAIR: Pair = pattern_pair((2, 1, 3), (2, 3, 1))


class NotInClassError(DataError):
    """A map argument contains one of its class's forbidden patterns."""

    def __init__(self, perm: Perm, pattern: Perm, positions: tuple[int, ...]):
        self.perm = perm
        self.pattern = pattern
        self.positions = positions
        values = " ".join(str(perm[i - 1]) for i in positions)
        super().__init__(
            f"{format_perm(perm)} contains {format_pattern(pattern)} "
            f"at positions {positions} (values {values})"
        )


def _require_class(perm: Perm, pair: Pair) -> None:
    for pattern in pair:
        positions = find_occurrence(perm, pattern)
        if positions is not None:
            raise NotInClassError(perm, pattern, positions)


def make_composition(parts) -> Composition:
    parts = tuple(parts)
    if any(isinstance(part, bool) or not isinstance(part, int) or part < 1 for part in parts):
        raise ValueError(f"composition parts must be positive integers: {parts!r}")
    return parts


def _from_cuts(cuts: list[int], n: int) -> Composition:
    """Composition of n whose partial sums below n are ``cuts``; () for n = 0."""
    if n == 0:
        return ()
    return tuple(map(sub, [*cuts, n], [0, *cuts]))


def _member_cuts(perm: Perm, layered: bool) -> tuple[Perm, list[int]]:
    """A member of the layered (or ascending-run) class as a tuple, and its cuts.

    A cut c in {1, ..., n-1} splits the member between positions c and
    c + 1: the layered class is cut at its ascents, so its blocks are its
    maximal descending runs, and the ascending-run class at its descents.
    Both classes hold exactly one member per cut set, so a permutation is
    in the class exactly when the member rebuilt from its cuts is the
    permutation itself, which costs two linear passes and no pattern
    search.  Only a rejection searches, so that its error names the first
    occurrence of a forbidden pattern; input that is not a permutation
    fails validation first.
    """
    if not (type(perm) is tuple and {*map(type, perm)} <= {int}):
        perm = make_permutation(perm)
    n = len(perm)
    cuts = _cuts(perm, lt if layered else gt)
    if (_layered if layered else _runs)(cuts, n) != perm:
        _require_class(make_permutation(perm), LAYERED_PAIR if layered else RUN_PAIR)
    return perm, cuts


def _cuts(perm: Perm, compare) -> list[int]:
    """Each c in {1, ..., n-1} with ``compare(perm[c-1], perm[c])`` true."""
    return list(compress(range(1, len(perm)), map(compare, perm, perm[1:])))


def compositions(n: int):
    """All 2^(n-1) compositions of n, via the cut sets in {1, ..., n-1}.

    A bad n raises here, before the generator yields anything.
    """
    require_length(n)
    return (_from_cuts([i + 1 for i in range(n - 1) if mask >> i & 1], n)
            for mask in range(1 << max(n - 1, 0)))


def _cuts_of(comp: Composition) -> tuple[list[int], int]:
    """The cut positions of a composition, and the n it composes."""
    ends = list(accumulate(make_composition(comp)))
    return ends[:-1], ends[-1] if ends else 0


def layered_compose(comp: Composition) -> Perm:
    """Layered permutation with the given block sizes.

    Each block takes the next smallest unused values, in decreasing order.

    >>> layered_compose((3, 3, 1, 3, 1, 1, 1, 1))
    (3, 2, 1, 6, 5, 4, 7, 10, 9, 8, 11, 12, 13, 14)
    """
    return _layered(*_cuts_of(comp))


def _layered(cuts: list[int], n: int) -> Perm:
    """The layered member of length n cut at ``cuts``."""
    perm = []
    low = 0
    for high in [*cuts, n]:
        perm += range(high, low, -1)
        low = high
    return tuple(perm)


def layered_decompose(perm: Perm) -> Composition:
    """Block sizes of a layered permutation (maximal decreasing runs).

    >>> layered_decompose((1, 2, 4, 3, 5, 8, 7, 6, 9, 14, 13, 12, 11, 10))
    (1, 1, 2, 1, 3, 1, 5)
    """
    perm, cuts = _member_cuts(perm, layered=True)
    return _from_cuts(cuts, len(perm))


def runs_compose(comp: Composition) -> Perm:
    """Member of the ascending-run class with the given run lengths.

    Each run takes the next part-1 smallest unused values in increasing
    order, capped by the largest unused value.

    >>> runs_compose((5, 1, 3, 1, 2, 1, 1))
    (1, 2, 3, 4, 14, 13, 5, 6, 12, 11, 7, 10, 9, 8)
    """
    return _runs(*_cuts_of(comp))


def _runs(cuts: list[int], n: int) -> Perm:
    """The ascending-run member of length n cut at ``cuts``."""
    perm = []
    low, high, start = 1, n, 0
    for end in [*cuts, n] if n else ():
        top = low + end - start - 1
        perm += range(low, top)
        perm.append(high)
        low, high, start = top, high - 1, end
    return tuple(perm)


def runs_decompose(perm: Perm) -> Composition:
    """Lengths of the maximal ascending runs (they end at right-to-left maxima).

    >>> runs_decompose((1, 2, 3, 4, 14, 13, 5, 6, 12, 11, 7, 10, 9, 8))
    (5, 1, 3, 1, 2, 1, 1)
    """
    perm, cuts = _member_cuts(perm, layered=False)
    return _from_cuts(cuts, len(perm))


def _map_argument(perm: Perm) -> Perm:
    """A map's argument as a tuple, once it is known to be a layered member."""
    if len(perm) == 0:
        raise ValueError("map is defined for n >= 1 only")
    member, _ = _member_cuts(perm, layered=True)
    return member


def complement_map(perm: Perm) -> Perm:
    """Involution on the layered class complementing the cut set.

    The cuts of the result are the argument's descent positions, the
    complement within {1, ..., n-1} of its cuts (its ascent positions).
    For n = 1 both sets are empty, making 1 the single fixed point; for
    n >= 2 there are none.

    >>> complement_map((1, 2))
    (2, 1)
    """
    return complement_image(_map_argument(perm))


def complement_image(member: Perm) -> Perm:
    """``complement_map`` of a layered member given as a tuple, with no check.

    The argument's descent positions are the image's cuts.  A caller that
    does not already know the argument to be a layered member of length
    n >= 1, as the class generator's members are, calls the map instead.
    """
    return _layered(_cuts(member, gt), len(member))


def transfer_map(perm: Perm) -> Perm:
    """Bijection from the layered class onto the ascending-run class.

    The image is the ascending-run member cut at n - c for each cut c of
    the argument, so its run lengths are the argument's block sizes
    reversed; left-to-right maxima at positions i map to right-to-left
    maxima at positions n+1-i.  Fixed points: exactly one for odd n, none
    for even n.

    >>> transfer_map((1, 2))
    (2, 1)
    """
    return transfer_image(_map_argument(perm))


def transfer_image(member: Perm) -> Perm:
    """``transfer_map`` of a layered member given as a tuple, with no check.

    Each cut c of the argument (an ascent) becomes the image's cut n - c.
    The same caveat as for :func:`complement_image` holds.
    """
    n = len(member)
    return _runs([n - c for c in reversed(_cuts(member, lt))], n)
