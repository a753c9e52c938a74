"""Reference facts the benchmark checks outputs against.

Nothing here imports avoidpair.  Each fact is recomputed from its
definition, so a wrong answer from the library cannot pass by agreeing
with itself.
"""

from __future__ import annotations

import itertools
import json
import math

# The four pairs in the reverse/complement orbit of {132, 321}; their
# classes have 1 + C(n, 2) members.  {123, 321} is finite (Erdos-Szekeres),
# every other pair has 2^(n-1) members.
QUADRATIC_PAIRS = frozenset({"132,321", "123,231", "123,312", "213,321"})
FINITE_PAIR = "123,321"
FINITE_SIZES = {0: 1, 1: 1, 2: 2, 3: 4, 4: 4}

ALL_PAIRS = tuple(
    f"{a},{b}"
    for a, b in itertools.combinations(
        ["".join(map(str, p)) for p in itertools.permutations((1, 2, 3))], 2
    )
)
INFINITE_PAIRS = tuple(p for p in ALL_PAIRS if p != FINITE_PAIR)

MAP_CHECK_NAMES = frozenset({
    "involution-swaps-quadruple",
    "complement-swaps-quadruple",
    "reverse-swaps-quadruple",
    "transfer-swaps-quadruple",
    "cross-class-equidistribution",
})


def class_size(pair: str, n: int) -> int:
    if pair == FINITE_PAIR:
        return FINITE_SIZES.get(n, 0)
    if n == 0:
        return 1
    if pair in QUADRATIC_PAIRS:
        return 1 + math.comb(n, 2)
    return 2 ** (n - 1)


def patterns(pair: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a, b = pair.split(",")
    return tuple(map(int, a)), tuple(map(int, b))


def contains(perm, patt) -> bool:
    """True iff some i < j < k has perm[i], perm[j], perm[k] ordered like ``patt``.

    ``patt`` has length 3.  For each middle index j, collect the values left
    of j that sit on the same side of perm[j] as patt[0] does of patt[1],
    and likewise right of j for patt[2]; an occurrence exists iff some left
    and some right value compare like patt[0] and patt[2].
    """
    a, b, c = patt
    for j, mid in enumerate(perm):
        left = [v for v in perm[:j] if (v < mid) == (a < b)]
        right = [v for v in perm[j + 1:] if (v < mid) == (c < b)]
        if left and right and (min(left) < max(right) if a < c else max(left) > min(right)):
            return True
    return False


def avoids(perm, pair: str) -> bool:
    return not any(contains(perm, patt) for patt in patterns(pair))


def is_permutation(perm) -> bool:
    return sorted(perm) == list(range(1, len(perm) + 1))


def _max_disjoint(flags: list[bool]) -> int:
    # Largest set of pairwise index-disjoint adjacent pairs (i, i+1) with
    # flags[i] set, by dynamic programming rather than a greedy scan.
    best_prev, best = 0, 0
    for flag in flags:
        best_prev, best = best, max(best, best_prev + 1 if flag else 0)
    return best


def _records(values) -> int:
    count, top = 0, 0
    for v in values:
        if v > top:
            count, top = count + 1, v
    return count


def stats(perm) -> dict[str, int]:
    n = len(perm)
    rise = [perm[i] < perm[i + 1] for i in range(n - 1)]
    comp = [n + 1 - v for v in perm]
    return {
        "asc": sum(rise),
        "des": n - 1 - sum(rise) if n else 0,
        "lrmax": _records(perm),
        "lrmin": _records(comp),
        "rlmax": _records(perm[::-1]),
        "rlmin": _records(comp[::-1]),
        "mna": _max_disjoint(rise),
        "mnd": _max_disjoint([not r for r in rise]),
    }


def json_poly(json_terms) -> dict[tuple, int]:
    """The library's JSON wire format as {((var, exp), ...): coeff}."""
    return {tuple(sorted(t["exponents"].items())): int(t["coeff"]) for t in json_terms}


def project(terms, names, keep=("p", "q")) -> dict[tuple[int, ...], int]:
    """Set every variable outside ``keep`` to 1 and drop zero coefficients.

    ``terms`` are (exponent tuple, coeff) pairs; exponent i is the power of
    ``names[i]``.
    """
    positions = [names.index(name) for name in keep]
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in terms:
        key = tuple(exps[i] for i in positions)
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def verify_problems(stdout: str, exit_code: int) -> list[str]:
    """What is wrong with one ``avoidpair verify`` run; empty when all is right.

    The default suite emits 34 reports: one count check, G and F for each
    of the 14 infinite pairs, and the five map checks.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited {exit_code}")
    reports = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    if len(reports) != 34:
        problems.append(f"verify printed {len(reports)} reports, expected 34")
    problems += [f"verify report failed: {r}" for r in reports if r.get("status") != "pass"]
    names = {r.get("name") for r in reports}
    gf = {(r.get("pair"), r.get("family")) for r in reports if r.get("name") == "gf-vs-enumeration"}
    expected_gf = {(p, f) for p in INFINITE_PAIRS for f in "FG"}
    if gf != expected_gf:
        problems.append(f"gf reports cover {sorted(gf)}")
    if not MAP_CHECK_NAMES <= names or "counts-vs-formula" not in names:
        problems.append(f"verify report names {sorted(names)}")
    return problems
