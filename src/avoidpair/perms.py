"""Permutations in one-line notation over {1, ..., n}.

Permutations and patterns are tuples of 1-based values.  The module covers
the classical symmetries (reverse, complement, inverse), pattern
containment, direct/skew sums, and enumeration of the classes avoiding any
two distinct length-3 patterns.  The empty permutation ``()`` is valid
everywhere and belongs to every avoidance class.

A class member is a ``bytes`` of its values instead: every length a class
is enumerated to is below 256, a ``bytes`` sorts in the lexicographic order
of the tuple of its values, and `format_perm` and the statistics read it
as they read a tuple.  It takes about a third of a tuple's memory, and the
symmetry ops on members (`member_ops`) are C-level slices and translates.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import add, itemgetter, methodcaller, sub
from typing import Callable, Iterable, Iterator

Perm = tuple[int, ...]
Pair = tuple[Perm, Perm]
# A class member: the values of a permutation, one byte each.
Member = bytes


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


def require_length(n, name: str = "n") -> None:
    """The one length rule, checked before any work: an int, not a bool, at least 0."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"{name} must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n}")


def identity(n: int) -> Perm:
    require_length(n)
    return tuple(range(1, n + 1))


def decreasing(n: int) -> Perm:
    require_length(n)
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
    return tuple(map(sub, itertools.repeat(len(perm) + 1), perm))


def reverse_complement(perm: Perm) -> Perm:
    """`complement` of `reverse`, in one pass.

    >>> reverse_complement((3, 4, 1, 5, 2))
    (4, 1, 5, 2, 3)
    """
    return tuple(map(sub, itertools.repeat(len(perm) + 1), reversed(perm)))


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
    for positions, values in subsets:
        if [a < b for a, b in itertools.combinations(values, 2)] == relations:
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
        if not (text.isascii() and all(map(str.isdigit, words))):
            raise ValueError
        values = list(map(int, words))
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


@lru_cache(maxsize=None)
def parse_pair(text: str) -> Pair:
    # Cached: every CLI request that names a pair parses it, and only the 30
    # spellings of the 15 pairs are valid; a rejected text raises, so it is
    # never stored.
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


@lru_cache(maxsize=None)
def member_ops(n: int) -> dict[str, Callable[[Member], Member]]:
    """Reverse, complement and reverse-complement, under their names in
    `SYMMETRY_OPS`, and ``"inverse"``, on class members of length n.

    Each is a C-level slice or ``bytes.translate``, with its tables made
    once for the length: complement translates through the table taking v
    to n + 1 - v.  The table ``maketrans(m, ident)`` takes m[i] to i + 1,
    so translating the identity through it gives the inverse of m.

    >>> ops = member_ops(3)
    >>> ops["c"](bytes((2, 3, 1))), ops["inverse"](bytes((2, 3, 1)))
    (b'\\x02\\x01\\x03', b'\\x03\\x01\\x02')
    """
    ident = bytes(range(1, n + 1))
    complement_table = bytes.maketrans(ident, ident[::-1])
    return {
        "r": itemgetter(slice(None, None, -1)),
        "c": methodcaller("translate", complement_table),
        "rc": lambda m: m[::-1].translate(complement_table),
        "inverse": lambda m: ident.translate(bytes.maketrans(m, ident)),
    }


FINITE_PAIR: Pair = pattern_pair((1, 2, 3), (3, 2, 1))

CANONICAL_PAIRS: tuple[Pair, ...] = (
    pattern_pair((1, 2, 3), (1, 3, 2)),
    pattern_pair((1, 3, 2), (3, 2, 1)),
    pattern_pair((2, 3, 1), (3, 1, 2)),
    pattern_pair((2, 1, 3), (2, 3, 1)),
    pattern_pair((2, 1, 3), (3, 1, 2)),
    FINITE_PAIR,
)


class DataError(ValueError):
    """A well-formed request that the data refuses.  The CLI exits 1 on it,
    and 2 on any other ``ValueError``."""


class FiniteClassError(DataError):
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


def reduce_to_canonical(pair: Pair) -> tuple[Pair, str]:
    """Canonical pair and the op carrying it onto ``pair``.

    ``pair`` may be spelled in either order and with any sequences; it is
    checked and ordered by `pattern_pair` first.  Ops are tried in the order
    identity, r, c, rc; the first match wins.

    >>> reduce_to_canonical(pattern_pair((1, 2, 3), (2, 1, 3)))
    (((1, 2, 3), (1, 3, 2)), 'rc')
    >>> reduce_to_canonical(pattern_pair((1, 3, 2), (2, 1, 3)))
    (((2, 3, 1), (3, 1, 2)), 'r')
    """
    return _first_reduction(pattern_pair(*pair))


@lru_cache(maxsize=None)
def _first_reduction(pair: Pair) -> tuple[Pair, str]:
    for canonical in CANONICAL_PAIRS:
        for op, transform in SYMMETRY_OPS.items():
            image = pattern_pair(transform(canonical[0]), transform(canonical[1]))
            if image == pair:
                return canonical, op
    raise ValueError(f"pair {pair!r} does not reduce to a canonical pair")


# -- avoidance-class enumeration ----------------------------------------------


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order; a bad n raises at the call."""
    require_length(n)
    return itertools.permutations(range(1, n + 1))


def filter_class(pair: Pair, n: int) -> list[Perm]:
    """Definition-level enumeration: filter all n! permutations.

    This is the oracle that the structural generators must reproduce; it is
    only usable at small n.
    """
    pair = pattern_pair(*pair)
    return [perm for perm in all_perms(n) if avoids_pair(perm, pair)]


# The six canonical generators.  Each returns and caches the members of its
# class at length n as a tuple of `Member`s, one block of values at a time
# joined by ``+``.


@lru_cache(maxsize=None)
def _class_123_132(n: int) -> tuple[Member, ...]:
    # Members split by the position k of n: a forced decreasing prefix
    # n-1, ..., n-k+1, then n, then any member on the remaining low values.
    if n == 0:
        return (b"",)
    out = []
    for k in range(1, n + 1):
        prefix = bytes(range(n - 1, n - k, -1)) + bytes((n,))
        out.extend(prefix + rest for rest in _class_123_132(n - k))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_132_321(n: int) -> tuple[Member, ...]:
    # n first; or n at an interior position with everything else forced
    # increasing around it; or n last with a shorter member in front.
    if n < 2:
        return (bytes(range(1, n + 1)),)
    top = bytes((n,))
    out = [top + bytes(range(1, n))]
    for k in range(2, n):
        out.append(bytes(range(n - k + 1, n)) + top + bytes(range(1, n - k + 1)))
    out.extend(rest + top for rest in _class_132_321(n - 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_231_312(n: int) -> tuple[Member, ...]:
    # Layered permutations: any shorter member on the smallest values, then
    # a decreasing block on the values above it.
    if n == 0:
        return (b"",)
    out = []
    for c in range(1, n + 1):
        block = bytes(range(n, n - c, -1))
        out.extend(map(add, _class_231_312(n - c), itertools.repeat(block)))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_213_312(n: int) -> tuple[Member, ...]:
    # Unimodal permutations, which rise to n and then fall: each is a member
    # one shorter with n placed right before or right after n-1.
    if n < 2:
        return (bytes(range(1, n + 1)),)
    falling, rising = bytes((n, n - 1)), bytes((n - 1, n))
    out = []
    for rest in _class_213_312(n - 1):
        i = rest.index(n - 1)
        head, tail = rest[:i], rest[i + 1:]
        out.append(head + falling + tail)
        out.append(head + rising + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def _class_213_231(n: int) -> tuple[Member, ...]:
    # Inverse respects containment, fixes 213 and exchanges 312 with 231, so
    # it carries the unimodal class Av(213, 312) onto Av(213, 231).
    return tuple(map(member_ops(n)["inverse"], _class_213_312(n)))


@lru_cache(maxsize=None)
def _class_123_321(n: int) -> tuple[Member, ...]:
    # Finite class: empty from n = 5 on, so filtering is always cheap.
    if n >= 5:
        return ()
    return tuple(map(bytes, filter_class(FINITE_PAIR, n)))


_CANONICAL_GENERATORS = dict(zip(CANONICAL_PAIRS, (
    _class_123_132, _class_132_321, _class_231_312, _class_213_231, _class_213_312,
    _class_123_321)))


def _generated_at(pair: Pair, n: int) -> tuple[tuple[Member, ...], str]:
    """The canonical generator's members at length n, and the op carrying
    them onto ``pair``'s class.

    Every class function that reads members checks its arguments here, in
    one order and before any member is made: the length rule, then the
    pair, then the class's entry in `length_limits`.
    """
    require_length(n)
    canonical, op = reduce_to_canonical(pair)
    if n > (limit := length_limits()[canonical]):
        raise ValueError(f"the class of {format_pair(pattern_pair(*pair))} is enumerated "
                         f"only up to n = {limit}, got n = {n}")
    return _CANONICAL_GENERATORS[canonical](n), op


def class_members(pair: Pair, n: int) -> Iterable[Member]:
    """Every member at length n, as ``bytes``, in the order the canonical
    generator makes them.

    For a canonical pair this is the generator's cached tuple itself.  For
    any other pair it is a lazy ``map`` of the pair's op in `member_ops`
    over that tuple, a one-pass iterator, so a caller that only scores
    members never holds the images at once; call ``tuple()`` on it for a
    tuple.  A bad pair or length, or an n past the class's entry in
    `length_limits`, raises ``ValueError`` at the call, before any member
    is made.

    >>> members = class_members(pattern_pair((2, 3, 1), (3, 1, 2)), 3)
    >>> members
    (b'\\x01\\x02\\x03', b'\\x02\\x01\\x03', b'\\x01\\x03\\x02', b'\\x03\\x02\\x01')
    >>> [tuple(member) for member in members]
    [(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 2, 1)]
    """
    members, op = _generated_at(pair, n)
    return members if op == "identity" else map(member_ops(n)[op], members)


def class_size(pair: Pair, n: int) -> int:
    """Number of members at length n, equal to ``len(enumerate_class(pair, n))``.

    Reverse and complement are injective, so the canonical generator's
    tuple already has the class's length; nothing is carried over or sorted.
    It is bounded by `length_limits` as `class_members` is.

    >>> class_size(pattern_pair((2, 3, 1), (3, 1, 2)), 3)
    4
    """
    return len(_generated_at(pair, n)[0])


def class_count(pair: Pair, n: int) -> int:
    """Closed-form size of the avoidance class at length n.

    >>> class_count(pattern_pair((1, 2, 3), (1, 3, 2)), 10)
    512
    >>> class_count(pattern_pair((1, 3, 2), (3, 2, 1)), 5)
    11
    """
    require_length(n)
    return _canonical_count(reduce_to_canonical(pair)[0], n)


def _canonical_count(canonical: Pair, n: int) -> int:
    """`class_count` for a canonical pair and an n already checked."""
    if n == 0:
        return 1
    if canonical == FINITE_PAIR:
        return {1: 1, 2: 2, 3: 4, 4: 4}.get(n, 0)
    if canonical == CANONICAL_PAIRS[1]:  # 132,321
        return 1 + math.comb(n, 2)
    return 2 ** (n - 1)


# Each generator caches every length it has made, so making length n keeps
# all members of lengths 1..n.  A class is enumerated only up to the longest
# n whose cached entries (member values), summed over those lengths, stay
# within this budget.  Traced, a class of size 2^(n-1) cached up to n = 18
# takes 14.5 MiB (58 bytes a member) and Av(132,321) up to n = 90 12.6 MiB.
_CACHED_ENTRIES_BUDGET = 1 << 23


@lru_cache(maxsize=None)
def length_limits() -> dict[Pair, int | float]:
    """The longest length each canonical class is enumerated to.

    18 for the four classes of size 2^(n-1), 90 for Av(132,321); every
    finite entry is below 256, so each value of a member fits in a byte.  A
    class empty at some length, Av(123,321) from n = 5 on, stays empty at
    every longer one and has no limit.  Computed on first use, so a process that
    enumerates nothing never computes it.
    """
    limits = {}
    for canonical in CANONICAL_PAIRS:
        n = entries = 0
        while count := _canonical_count(canonical, n + 1):
            entries += count * (n + 1)
            if entries > _CACHED_ENTRIES_BUDGET:
                break
            n += 1
        else:
            n = math.inf
        limits[canonical] = n
    return limits


def enumerate_class(pair: Pair, n: int) -> list[Member]:
    """Every member of S_n avoiding both patterns, as ``bytes``, in
    lexicographic order.

    This is `class_members` sorted.  Members are generated structurally for
    the canonical pair and carried over by the matching symmetry op; the
    tuples of the result equal `filter_class`.  Av(213, 312) is the unimodal
    class, grown by placing n right before or right after n - 1, and
    Av(213, 231) is its image under inverse.

    >>> members = enumerate_class(pattern_pair((2, 3, 1), (3, 1, 2)), 3)
    >>> members
    [b'\\x01\\x02\\x03', b'\\x01\\x03\\x02', b'\\x02\\x01\\x03', b'\\x03\\x02\\x01']
    >>> [format_perm(member) for member in members]
    ['1 2 3', '1 3 2', '2 1 3', '3 2 1']
    """
    return sorted(class_members(pair, n))
