"""Permutations in one-line notation over {1, ..., n}.

Permutations and patterns are plain tuples of 1-based values.  The module
covers the classical symmetries (reverse, complement, inverse), pattern
containment, direct/skew sums, and enumeration of the classes avoiding any
two distinct length-3 patterns.  The empty permutation ``()`` is valid
everywhere and belongs to every avoidance class.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import add
from typing import Callable, Iterable, Iterator

Perm = tuple[int, ...]
Pair = tuple[Perm, Perm]


def make_permutation(seq: Iterable[int]) -> Perm:
    """Validate one-line notation: a rearrangement of {1, ..., n}.

    >>> make_permutation([3, 4, 1, 5, 2])
    (3, 4, 1, 5, 2)
    >>> make_permutation([])
    ()
    """
    values = tuple(seq)
    n = len(values)
    if {*map(type, values)} <= {int} and set(values) == set(range(1, n + 1)):
        return values
    # Otherwise check entry by entry, so the first bad entry is the one
    # reported; an int subclass still passes here.
    seen = set()
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"non-integer entry {v!r}")
        if not 1 <= v <= n:
            raise ValueError(f"value {v} out of range for length {n}")
        if v in seen:
            raise ValueError(f"duplicate value {v}")
        seen.add(v)
    return values


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def decreasing(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def reverse(perm: Perm) -> Perm:
    """Read the one-line word right to left.

    >>> reverse((3, 4, 1, 5, 2))
    (2, 5, 1, 4, 3)
    """
    return perm[::-1]


def complement(perm: Perm) -> Perm:
    """Replace each value v by n + 1 - v.

    >>> complement((2, 3, 1))
    (2, 1, 3)
    """
    n = len(perm)
    return tuple(n + 1 - v for v in perm)


def reverse_complement(perm: Perm) -> Perm:
    return complement(reverse(perm))


def inverse(perm: Perm) -> Perm:
    """Group-theoretic inverse: result[perm[i]] = i (1-based).

    >>> inverse((3, 4, 1, 5, 2))
    (3, 5, 1, 2, 4)
    """
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


def direct_sum(alpha: Perm, beta: Perm) -> Perm:
    """Concatenate with beta's values shifted above alpha's.

    >>> direct_sum((1, 2, 3), (4, 1, 3, 2))
    (1, 2, 3, 7, 4, 6, 5)
    """
    a = len(alpha)
    return alpha + tuple(v + a for v in beta)


def skew_sum(alpha: Perm, beta: Perm) -> Perm:
    """Concatenate with alpha's values shifted above beta's.

    >>> skew_sum((1, 2, 3), (4, 1, 3, 2))
    (5, 6, 7, 4, 1, 3, 2)
    """
    b = len(beta)
    return tuple(v + b for v in alpha) + beta


def _scan_occurrence(perm: Perm, patt: Perm) -> tuple[int, ...] | None:
    # Definitional scan: position subsets in lexicographic order, so the
    # first occurrence found is the lexicographically first one.  A subset
    # is an occurrence when each pair of its values compares as the
    # matching pair of the pattern does.  O(n^k).
    k = len(patt)
    if k > len(perm):
        return None
    relations = [a < b for a, b in itertools.combinations(patt, 2)]
    subsets = zip(itertools.combinations(range(len(perm)), k), itertools.combinations(perm, k))
    for positions, sub in subsets:
        if [a < b for a, b in itertools.combinations(sub, 2)] == relations:
            return tuple(i + 1 for i in positions)
    return None


# The six permutations of 1..3; every other pattern takes the subset scan.
_LENGTH3 = frozenset(itertools.permutations((1, 2, 3)))


def _first_occurrence3(perm: Perm, patt: Perm) -> tuple[int, int, int] | None:
    # Lexicographically first (i, j, k) in O(n^2).  For each i, an entry is
    # usable as j or k by the side of perm[i] it lies on.  A backward pass
    # keeps the extreme usable k-value to the right of j (the minimum when k
    # must lie below j, the maximum otherwise), which finds the first j that
    # has a partner; a forward pass from j then finds the first k.
    j_above, k_above, k_above_j = patt[1] > patt[0], patt[2] > patt[0], patt[2] > patt[1]
    extreme = max if k_above_j else min
    n = len(perm)
    for i in range(n - 2):
        a = perm[i]
        best = None
        first_j = None
        for j in range(n - 1, i, -1):
            b = perm[j]
            if best is not None and (b > a) == j_above and (best > b) == k_above_j:
                first_j = j
            if (b > a) == k_above:
                best = b if best is None else extreme(best, b)
        if first_j is not None:
            b = perm[first_j]
            for k in range(first_j + 1, n):
                c = perm[k]
                if (c > a) == k_above and (c > b) == k_above_j:
                    return (i + 1, first_j + 1, k + 1)
    return None


def find_occurrence(perm: Perm, patt: Perm) -> tuple[int, ...] | None:
    """1-based positions of the lexicographically first occurrence, or None.

    A subsequence occurs as ``patt`` when it is order-isomorphic to it.  The
    six length-3 patterns are searched in O(n^2); other patterns fall back to
    the definitional scan over all position subsets, ``_scan_occurrence``,
    which `avoids_pair` and so `filter_class` use as the oracle.  Both paths
    return the same positions.

    >>> find_occurrence((3, 4, 1, 5, 2), (2, 3, 1))
    (1, 2, 3)
    >>> find_occurrence((3, 2, 1, 5, 4), (2, 3, 1)) is None
    True
    """
    if tuple(patt) in _LENGTH3:
        return _first_occurrence3(perm, patt)
    return _scan_occurrence(perm, patt)


def contains(perm: Perm, patt: Perm) -> bool:
    """True iff some subsequence of ``perm`` is order-isomorphic to ``patt``."""
    return find_occurrence(perm, patt) is not None


def avoids_pair(perm: Perm, pair: Pair) -> bool:
    """True iff ``perm`` contains neither pattern, by the definitional scan."""
    return _scan_occurrence(perm, pair[0]) is None and _scan_occurrence(perm, pair[1]) is None


def pattern_pair(first: Iterable[int], second: Iterable[int]) -> Pair:
    """Unordered pair of distinct length-3 patterns, canonically ordered.

    The canonical order is ascending lexicographic on one-line values, so
    equal pairs hash and display identically.

    >>> pattern_pair((3, 1, 2), (2, 3, 1))
    ((2, 3, 1), (3, 1, 2))
    """
    a = make_permutation(first)
    b = make_permutation(second)
    if len(a) != 3 or len(b) != 3:
        raise ValueError("class-defining patterns must have length 3")
    if a == b:
        raise ValueError("the two patterns must be distinct")
    return (a, b) if a < b else (b, a)


# -- text formats -----------------------------------------------------------
# Permutations travel as space-separated values ("3 4 1 5 2"), patterns as
# compact digit strings ("231"), pairs as "231,312".


def format_perm(perm: Perm) -> str:
    return " ".join(map(str, perm))


def parse_perm(text: str) -> Perm:
    words = text.split()
    try:
        # Words of ASCII digits only: int() alone would also take signs,
        # underscores and non-ASCII digits.  It still rejects a word longer
        # than Python converts.
        if not (text.isascii() and all(word.isdigit() for word in words)):
            raise ValueError
        values = [int(word) for word in words]
    except ValueError:
        raise ValueError(f"malformed permutation {text!r}") from None
    return make_permutation(values)


def format_pattern(patt: Perm) -> str:
    return "".join(str(v) for v in patt)


def parse_pattern(text: str) -> Perm:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"malformed pattern {text!r}")
    return make_permutation(int(ch) for ch in text)


def format_pair(pair: Pair) -> str:
    return f"{format_pattern(pair[0])},{format_pattern(pair[1])}"


def parse_pair(text: str) -> Pair:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"malformed pattern pair {text!r}; expected e.g. '231,312'")
    return pattern_pair(parse_pattern(parts[0]), parse_pattern(parts[1]))


# -- symmetry reduction ------------------------------------------------------
# Reverse/complement respect containment, so each of the 15 pairs is the
# image of one of six canonical pairs under an op in {identity, r, c, rc}.

SYMMETRY_OPS: dict[str, Callable[[Perm], Perm]] = {
    "identity": lambda p: p,
    "r": reverse,
    "c": complement,
    "rc": reverse_complement,
}

CANONICAL_PAIRS: tuple[Pair, ...] = (
    pattern_pair((1, 2, 3), (1, 3, 2)),
    pattern_pair((1, 3, 2), (3, 2, 1)),
    pattern_pair((2, 3, 1), (3, 1, 2)),
    pattern_pair((2, 1, 3), (2, 3, 1)),
    pattern_pair((2, 1, 3), (3, 1, 2)),
    pattern_pair((1, 2, 3), (3, 2, 1)),
)

FINITE_PAIR: Pair = pattern_pair((1, 2, 3), (3, 2, 1))


class FiniteClassError(ValueError):
    """Raised when a generating function is requested for {123, 321}.

    That class is empty from n = 5 on and has no rational form; use
    :func:`class_count` instead.
    """


def all_pairs() -> tuple[Pair, ...]:
    """All 15 unordered pairs of distinct length-3 patterns."""
    patterns = [make_permutation(p) for p in itertools.permutations((1, 2, 3))]
    return tuple(
        pattern_pair(a, b) for a, b in itertools.combinations(patterns, 2)
    )


@lru_cache(maxsize=None)
def reduce_to_canonical(pair: Pair) -> tuple[Pair, str]:
    """Canonical pair and the op carrying it onto ``pair``.

    Ops are tried in the order identity, r, c, rc; the first match wins.

    >>> reduce_to_canonical(pattern_pair((1, 2, 3), (2, 1, 3)))
    (((1, 2, 3), (1, 3, 2)), 'rc')
    >>> reduce_to_canonical(pattern_pair((1, 3, 2), (2, 1, 3)))
    (((2, 3, 1), (3, 1, 2)), 'r')
    """
    pair = pattern_pair(*pair)
    for canonical in CANONICAL_PAIRS:
        for op, transform in SYMMETRY_OPS.items():
            image = pattern_pair(transform(canonical[0]), transform(canonical[1]))
            if image == pair:
                return canonical, op
    raise ValueError(f"pair {pair!r} does not reduce to a canonical pair")


# -- avoidance-class enumeration ----------------------------------------------


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def filter_class(pair: Pair, n: int) -> list[Perm]:
    """Definition-level enumeration: filter all n! permutations.

    This is the oracle that the structural generators must reproduce; it is
    only usable at small n.
    """
    pair = pattern_pair(*pair)
    return [perm for perm in all_perms(n) if avoids_pair(perm, pair)]


def _shift(perm: Perm, k: int) -> Perm:
    return tuple(v + k for v in perm)


@lru_cache(maxsize=None)
def _class_123_132(n: int) -> tuple[Perm, ...]:
    # Members split by the position k of n: a forced decreasing prefix
    # n-1, ..., n-k+1, then n, then any member on the remaining low values.
    if n == 0:
        return ((),)
    out = []
    for k in range(1, n + 1):
        prefix = tuple(range(n - 1, n - k, -1)) + (n,)
        out.extend(prefix + rest for rest in _class_123_132(n - k))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_132_321(n: int) -> tuple[Perm, ...]:
    # n first; or n at an interior position with everything else forced
    # increasing around it; or n last with a shorter member in front.
    if n == 0:
        return ((),)
    if n == 1:
        return ((1,),)
    out = [(n,) + tuple(range(1, n))]
    for k in range(2, n):
        out.append(tuple(range(n - k + 1, n)) + (n,) + tuple(range(1, n - k + 1)))
    out.extend(rest + (n,) for rest in _class_132_321(n - 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_231_312(n: int) -> tuple[Perm, ...]:
    # Layered permutations: any shorter member on the smallest values, then
    # a decreasing block on the values above it.
    if n == 0:
        return ((),)
    out = []
    for c in range(1, n + 1):
        block = tuple(range(n, n - c, -1))
        out.extend(map(add, _class_231_312(n - c), itertools.repeat(block)))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_213_231(n: int) -> tuple[Perm, ...]:
    # First ascending run: the r-1 smallest values then the maximum,
    # followed by any member on the middle values.
    if n == 0:
        return ((),)
    out = []
    for r in range(1, n + 1):
        run = tuple(range(1, r)) + (n,)
        out.extend(run + _shift(rest, r - 1) for rest in _class_213_231(n - r))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_213_312(n: int) -> tuple[Perm, ...]:
    # Inverse respects containment, fixes 213 and exchanges 231 with 312, so
    # it carries the ascending-run class Av(213, 231) onto Av(213, 312).
    return tuple(map(inverse, _class_213_231(n)))


@lru_cache(maxsize=None)
def _class_123_321(n: int) -> tuple[Perm, ...]:
    # Finite class: empty from n = 5 on, so filtering is always cheap.
    if n >= 5:
        return ()
    return tuple(filter_class(FINITE_PAIR, n))


_CANONICAL_GENERATORS = {
    CANONICAL_PAIRS[0]: _class_123_132,
    CANONICAL_PAIRS[1]: _class_132_321,
    CANONICAL_PAIRS[2]: _class_231_312,
    CANONICAL_PAIRS[3]: _class_213_231,
    CANONICAL_PAIRS[4]: _class_213_312,
    CANONICAL_PAIRS[5]: _class_123_321,
}


def class_size(pair: Pair, n: int) -> int:
    """Number of members at length n, equal to ``len(enumerate_class(pair, n))``.

    Reverse and complement are injective, so the canonical generator's
    tuple already has the class's length; nothing is carried over or sorted.

    >>> class_size(pattern_pair((2, 3, 1), (3, 1, 2)), 3)
    4
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    canonical, _ = reduce_to_canonical(pattern_pair(*pair))
    return len(_CANONICAL_GENERATORS[canonical](n))


def class_count(pair: Pair, n: int) -> int:
    """Closed-form size of the avoidance class at length n.

    >>> class_count(pattern_pair((1, 2, 3), (1, 3, 2)), 10)
    512
    >>> class_count(pattern_pair((1, 3, 2), (3, 2, 1)), 5)
    11
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    canonical, _ = reduce_to_canonical(pattern_pair(*pair))
    if canonical == FINITE_PAIR:
        if n >= 5:
            return 0
        return {1: 1, 2: 2, 3: 4, 4: 4}[n]
    if canonical == CANONICAL_PAIRS[1]:  # 132,321
        return 1 + math.comb(n, 2)
    return 2 ** (n - 1)


def enumerate_class(pair: Pair, n: int) -> list[Perm]:
    """Every member of S_n avoiding both patterns, in lexicographic order.

    Members are generated structurally for the canonical pair and carried
    over by the matching symmetry op; the result equals `filter_class`.

    >>> enumerate_class(pattern_pair((2, 3, 1), (3, 1, 2)), 3)
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    canonical, op = reduce_to_canonical(pattern_pair(*pair))
    members = _CANONICAL_GENERATORS[canonical](n)
    return sorted(members if op == "identity" else map(SYMMETRY_OPS[op], members))
