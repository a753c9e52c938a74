"""Composition codecs and statistic-exchanging maps on two structured classes.

Permutations avoiding {231, 312} are exactly the layered ones: direct sums
of decreasing blocks, so each corresponds to a composition of n (its block
sizes), equivalently to the set of block boundaries inside {1, ..., n-1}.
Permutations avoiding {213, 231} decompose uniquely into maximal ascending
runs ending at right-to-left maxima, again giving a composition.

Two maps ride on these codecs:

* ``complement_map`` (an involution on the layered class) complements the
  boundary set, exchanging (asc, des, mna, mnd) with (des, asc, mnd, mna)
  pointwise;
* ``transfer_map`` (a bijection from the layered class onto the ascending-run
  class) reverses the block-size sequence, exchanging the same quadruple and
  placing a right-to-left maximum of the image at position n+1-i exactly
  when the source has a left-to-right maximum at position i.

Both maps are defined for n >= 1 only; the empty permutation is rejected.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub

from .perms import (
    Pair,
    Perm,
    find_occurrence,
    format_pattern,
    format_perm,
    make_permutation,
    pattern_pair,
)

Composition = tuple[int, ...]

LAYERED_PAIR: Pair = pattern_pair((2, 3, 1), (3, 1, 2))
RUN_PAIR: Pair = pattern_pair((2, 1, 3), (2, 3, 1))


class NotInClassError(ValueError):
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
    # A list first: tuple() of a generator or map resizes its result, which
    # adds about 0.2 MB to the peak memory of the map checks at n = 12.
    return tuple(list(map(sub, [*cuts, n], [0, *cuts])))


def _run_lengths(perm: Perm, pair: Pair, descending: bool) -> Composition:
    """Lengths of the maximal descending (or ascending) runs of a member of ``pair``.

    Both classes hold exactly one member per composition, and that member's
    maximal runs are its parts.  So a permutation is in the class exactly
    when the member rebuilt from its run lengths is the permutation itself,
    which costs two linear passes and no pattern search.  Only a rejection
    searches, so that its error names the first occurrence of a forbidden
    pattern; input that is not a permutation fails validation first.
    """
    if not (type(perm) is tuple and {*map(type, perm)} <= {int}):
        perm = make_permutation(perm)
    comp = _cut_runs(perm, descending)
    if (_layered if descending else _runs)(comp) != perm:
        _require_class(make_permutation(perm), pair)
    return comp


def _cut_runs(perm: Perm, descending: bool) -> Composition:
    cuts = [i for i in range(1, len(perm)) if (perm[i] > perm[i - 1]) == descending]
    return _from_cuts(cuts, len(perm))


def compositions(n: int):
    """All 2^(n-1) compositions of n, via boundary subsets of {1, ..., n-1}."""
    for mask in range(1 << max(n - 1, 0)):
        yield _from_cuts([i + 1 for i in range(n - 1) if mask >> i & 1], n)


def layered_compose(comp: Composition) -> Perm:
    """Layered permutation with the given block sizes.

    Each block takes the next smallest unused values, in decreasing order.

    >>> layered_compose((3, 3, 1, 3, 1, 1, 1, 1))
    (3, 2, 1, 6, 5, 4, 7, 10, 9, 8, 11, 12, 13, 14)
    """
    return _layered(make_composition(comp))


def _layered(comp: Composition) -> Perm:
    perm = []
    low = 1
    for part in comp:
        perm.extend(range(low + part - 1, low - 1, -1))
        low += part
    return tuple(perm)


def layered_decompose(perm: Perm) -> Composition:
    """Block sizes of a layered permutation (maximal decreasing runs).

    >>> layered_decompose((1, 2, 4, 3, 5, 8, 7, 6, 9, 14, 13, 12, 11, 10))
    (1, 1, 2, 1, 3, 1, 5)
    """
    return _run_lengths(perm, LAYERED_PAIR, descending=True)


def runs_compose(comp: Composition) -> Perm:
    """Member of the ascending-run class with the given run lengths.

    Each run takes the next part-1 smallest unused values in increasing
    order, capped by the largest unused value.

    >>> runs_compose((5, 1, 3, 1, 2, 1, 1))
    (1, 2, 3, 4, 14, 13, 5, 6, 12, 11, 7, 10, 9, 8)
    """
    return _runs(make_composition(comp))


def _runs(comp: Composition) -> Perm:
    low, high = 1, sum(comp)
    perm = []
    for part in comp:
        perm.extend(range(low, low + part - 1))
        perm.append(high)
        low += part - 1
        high -= 1
    return tuple(perm)


def runs_decompose(perm: Perm) -> Composition:
    """Lengths of the maximal ascending runs (they end at right-to-left maxima).

    >>> runs_decompose((1, 2, 3, 4, 14, 13, 5, 6, 12, 11, 7, 10, 9, 8))
    (5, 1, 3, 1, 2, 1, 1)
    """
    return _run_lengths(perm, RUN_PAIR, descending=False)


def complement_map(perm: Perm) -> Perm:
    """Involution on the layered class complementing the boundary set.

    The boundary set of the result is the complement within {1, ..., n-1}
    of the argument's boundary set.  For n = 1 both sets are empty, making
    1 the single fixed point; for n >= 2 there are none.

    >>> complement_map((1, 2))
    (2, 1)
    """
    if len(perm) == 0:
        raise ValueError("map is defined for n >= 1 only")
    comp = layered_decompose(perm)
    n = sum(comp)
    old = set(accumulate(comp))
    return _layered(_from_cuts([b for b in range(1, n) if b not in old], n))


def transfer_map(perm: Perm) -> Perm:
    """Bijection from the layered class onto the ascending-run class.

    Reverses the block-size sequence and re-encodes it as ascending runs;
    left-to-right maxima at positions i map to right-to-left maxima at
    positions n+1-i.  Fixed points: exactly one for odd n, none for even n.

    >>> transfer_map((1, 2))
    (2, 1)
    """
    if len(perm) == 0:
        raise ValueError("map is defined for n >= 1 only")
    return _runs(layered_decompose(perm)[::-1])
