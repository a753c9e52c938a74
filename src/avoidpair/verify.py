"""Brute-force oracles tying every stored formula to exhaustive enumeration.

Each check compares an exact polynomial computed from a closed form against
the same polynomial summed over the enumerated class, and reports the first
discrepancy if any.  Default ranges keep the whole suite at desk scale:
counts to n = 12, family G to n = 10, family F to n = 9, maps to n = 12.

Every check computes each class member's statistics once, and no check
validates a member that the class generator produced.  The oracle
(:func:`~avoidpair.oracle.brute_distribution`, re-exported here) counts
the members of :func:`~avoidpair.perms.class_members` in generation order
(a non-canonical class's images mapped one at a time) by one packed key of
all eight statistics and reads a family's marginal off those counts by
masking the key; it keeps one such table per (pair, n) for the process, so
families G and F, and any later run, score each class once.  The counts
check takes class sizes from :func:`~avoidpair.perms.class_size` without
carrying members over.  The map checks walk each class in lexicographic
order, so that a report names the first discrepant member; they share one
member-to-quadruple table per class and length, read each quadruple off
the member's up-down word (asc, des, mna and mnd depend on adjacent
comparisons alone; see :func:`~avoidpair.stats.adjacency_quadruple`), swap
each distinct quadruple once, and map each member with the maps' image
functions (see :mod:`avoidpair.bijections`), which neither decode the
member's cuts to check it nor search for a pattern, or with
:func:`~avoidpair.perms.member_ops`; members and images are both
``bytes``, so each image is looked up as it is made.  :func:`suite` lists
the reports of one ``avoidpair verify`` run for a scope.

Each check rejects a bad ``n_max`` itself, before any expansion or member,
by one rule (``_check_range``): the length rule of
:func:`~avoidpair.perms.require_length`, the check's first length (1 for
the maps), and the lowest :func:`~avoidpair.perms.length_limits` entry
over the classes the check enumerates (18; 90 for ``check_gf`` on
``132,321``).  :func:`suite` applies the same rule once to a given
``n_max``, over every class of the checks it selects, before the first
check runs.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable

from . import SCOPES, catalog, stats
from ._record import Record
from .bijections import LAYERED_PAIR, RUN_PAIR, complement_image, transfer_image
from .perms import (
    FINITE_PAIR,
    Pair,
    all_pairs,
    class_count,
    class_size,
    enumerate_class,
    format_pair,
    length_limits,
    member_ops,
    pattern_pair,
    reduce_to_canonical,
    require_length,
)
# brute_distribution lives in oracle, which table --oracle loads without
# this module, and is re-exported here.
from .oracle import brute_distribution
from .polys import expand

DEFAULT_N_COUNTS = 12
DEFAULT_N_G = 10
DEFAULT_N_F = 9
DEFAULT_N_MAPS = 12

# The classes the map checks enumerate; the third is the increasing-prefix class.
_PREFIX_PAIR = pattern_pair((2, 1, 3), (3, 1, 2))
_MAP_PAIRS = (LAYERED_PAIR, RUN_PAIR, _PREFIX_PAIR)


class VerifyReport(Record):
    """Outcome of one check; ``status`` is "fail" when ``first_discrepancy``
    is given and "pass" when it is None."""

    _compared = ("name", "pair", "family", "n_range", "status", "first_discrepancy")

    def __init__(self, name: str, pair: str | None, family: str | None,
                 n_range: tuple[int, int], first_discrepancy: dict | None = None):
        self._set(name=name, pair=pair, family=family, n_range=n_range,
                  status="pass" if first_discrepancy is None else "fail",
                  first_discrepancy=first_discrepancy)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_line(self) -> str:
        payload = dict(zip(self._compared, self._values()))
        payload["n_range"] = list(self.n_range)
        return json.dumps(payload, sort_keys=True)


def _report(name, pair, family, n_range, discrepancy=None) -> VerifyReport:
    return VerifyReport(name, format_pair(pair) if pair is not None else None, family,
                        n_range, discrepancy)


def _check_range(n_max, first: int, pairs: Iterable[Pair]) -> None:
    """The range rule of every check (see the module docstring); ``pairs``
    are the classes the check enumerates."""
    require_length(n_max, "n_max")
    if n_max < first:
        # only the map checks start past n = 0
        raise ValueError(f"the map checks start at n = {first}, so n_max must be at least "
                         f"{first}, got {n_max}")
    limits = length_limits()
    if n_max > (limit := min(limits[reduce_to_canonical(pair)[0]] for pair in pairs)):
        raise ValueError(f"the checks enumerate classes only up to n = {limit}, "
                         f"so n_max must be at most {limit}, got {n_max}")


def check_gf(pair: Pair, family: str, n_max: int) -> VerifyReport:
    """Expansion coefficients of the catalogued form vs brute force, n = 0..n_max.

    ``n_max``, at most 18 (90 for ``132,321``), is checked before any work.
    The form is :func:`~avoidpair.catalog.gf_for`'s, looked up at each
    call, so a test that swaps that function proves a corrupted entry is
    caught.  The oracle's tables outlive the call (see
    :func:`brute_distribution`).
    """
    pair = pattern_pair(*pair)
    _check_range(n_max, 0, (pair,))
    table = expand(catalog.gf_for(pair, family), n_max)
    for n in range(n_max + 1):
        expected = brute_distribution(pair, n, family)
        if table.coeffs[n] != expected:
            discrepancy = {
                "n": n,
                "expected": expected.to_json_terms(),
                "actual": table.coeffs[n].to_json_terms(),
            }
            return _report("gf-vs-enumeration", pair, family, (0, n_max), discrepancy)
    return _report("gf-vs-enumeration", pair, family, (0, n_max))


def check_counts(n_max: int = DEFAULT_N_COUNTS) -> VerifyReport:
    """Enumerated class sizes vs the closed-form counts, all 15 pairs, n = 0..n_max.

    ``n_max``, at most 18, is checked before any class is made."""
    pairs = all_pairs()
    _check_range(n_max, 0, pairs)
    for pair in pairs:
        for n in range(n_max + 1):
            actual = class_size(pair, n)
            expected = class_count(pair, n)
            if actual != expected:
                discrepancy = {
                    "n": n,
                    "pair": format_pair(pair),
                    "expected": expected,
                    "actual": actual,
                }
                return _report("counts-vs-formula", None, None, (0, n_max), discrepancy)
    return _report("counts-vs-formula", None, None, (0, n_max))


def _quadruples(pair: Pair, n: int, distinct: dict) -> dict:
    """Each member of the class at length n, with its (asc, des, mna, mnd).

    The four statistics depend on adjacent comparisons alone, so each
    quadruple is read off the member's up-down word by
    :func:`~avoidpair.stats.adjacency_quadruple`, with no full statistics
    pass.  Members share few distinct quadruples, so each distinct one is
    stored once, in ``distinct``, rather than once per member; at n = 12
    the three live tables take 0.22 MiB, against 0.63 MiB with one
    quadruple per member (traced).
    """
    quadruples = {}
    for perm in enumerate_class(pair, n):
        quad = stats.adjacency_quadruple(perm)
        quadruples[perm] = distinct.setdefault(quad, quad)
    return quadruples


def check_equidistribution_maps(n_max: int = DEFAULT_N_MAPS) -> list[VerifyReport]:
    """The five statistic-exchange facts, checked pointwise and as multisets.

    * the cut-complement involution swaps (asc, des, mna, mnd) with
      (des, asc, mnd, mna) pointwise on the layered class;
    * complement does the same on the ascending-run class;
    * reverse does the same on the increasing-prefix class {213, 312};
    * the transfer map carries the quadruple from the layered class to the
      swapped quadruple on the ascending-run class, pointwise;
    * consequently the quadruple has the same multiset on both classes.

    Each length computes one member-to-quadruple table per class, shared by
    all five facts; only the current length's tables are kept.  The maps
    are defined from n = 1, so ``n_max``, checked before any member is
    made, must be in 1..18.
    """
    _check_range(n_max, 1, _MAP_PAIRS)
    # a map named by a string is that op of `member_ops` at each length
    checks = [
        ("involution-swaps-quadruple", LAYERED_PAIR, complement_image, LAYERED_PAIR),
        ("complement-swaps-quadruple", RUN_PAIR, "c", RUN_PAIR),
        ("reverse-swaps-quadruple", _PREFIX_PAIR, "r", _PREFIX_PAIR),
        ("transfer-swaps-quadruple", LAYERED_PAIR, transfer_image, RUN_PAIR),
    ]
    cross_name = "cross-class-equidistribution"
    found = {}
    for n in range(1, n_max + 1):
        distinct = {}
        tables = {pair: _quadruples(pair, n, distinct) for pair in _MAP_PAIRS}
        swapped = {(a, d, ya, zd): (d, a, zd, ya) for a, d, ya, zd in distinct}
        ops = member_ops(n)
        for name, src, mapping, dst in checks:
            if name in found:
                continue
            if isinstance(mapping, str):
                mapping = ops[mapping]
            # An image is a fresh member exactly when it is still here to pop.
            unclaimed = dict(tables[dst])
            for perm, quad in tables[src].items():
                image = mapping(perm)
                image_quad = unclaimed.pop(image, None)
                if image_quad is None:
                    found[name] = {"n": n, "perm": list(perm), "image": list(image),
                                   "reason": "image is not a fresh member of the target class"}
                    break
                if image_quad != swapped[quad]:
                    found[name] = {"n": n, "perm": list(perm), "image": list(image),
                                   "reason": "quadruple not swapped"}
                    break
        if cross_name not in found and (
            Counter(tables[LAYERED_PAIR].values()) != Counter(tables[RUN_PAIR].values())
        ):
            found[cross_name] = {"n": n, "reason": "quadruple multisets differ"}
    reports = [_report(name, src, None, (1, n_max), found.get(name))
               for name, src, _, _ in checks]
    reports.append(_report(cross_name, LAYERED_PAIR, None, (1, n_max), found.get(cross_name)))
    return reports


def suite(scope: str = "all", n_max: int | None = None) -> list[VerifyReport]:
    """The reports of one ``avoidpair verify`` run, in the order it prints them.

    ``scope`` is one of :data:`SCOPES`; ``n_max``, when given, replaces
    every default range.  It is then checked once, before any check runs,
    by the rule of the checks the run selects over all of their classes, so
    a bad range throws no work away: at most 18, and at least 1 when the
    maps run.  The default ranges are valid, and each check still checks
    its own.

    ``all`` is the counts check, then family G and family F over the 14
    infinite pairs, then the five maps.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")

    def upto(default: int) -> int:
        return default if n_max is None else n_max

    counts, gf, maps = (scope in ("all", part) for part in ("counts", "gf", "maps"))
    infinite = [pair for pair in all_pairs() if pair != FINITE_PAIR]
    families = (("G", upto(DEFAULT_N_G)), ("F", upto(DEFAULT_N_F)))
    if n_max is not None:
        classes = {*(all_pairs() if counts else ()), *(infinite if gf else ()),
                   *(_MAP_PAIRS if maps else ())}
        _check_range(n_max, 1 if maps else 0, classes)
    reports = []
    if counts:
        reports.append(check_counts(upto(DEFAULT_N_COUNTS)))
    if gf:
        for family, n in families:
            for pair in infinite:
                reports.append(check_gf(pair, family, n))
    if maps:
        reports.extend(check_equidistribution_maps(upto(DEFAULT_N_MAPS)))
    return reports


def run_default_suite() -> list[VerifyReport]:
    """Everything: counts, both families over all pairs, and the five maps."""
    return suite()


def all_passed(reports: Iterable[VerifyReport]) -> bool:
    return all(report.passed for report in reports)
