"""Brute-force oracles tying every stored formula to exhaustive enumeration.

Each check compares an exact polynomial computed from a closed form against
the same polynomial summed over the enumerated class, and reports the first
discrepancy if any.  Default ranges keep the whole suite at desk scale:
counts to n = 12, family G to n = 10, family F to n = 9, maps to n = 12.

Every check computes each class member's statistics once.  The oracle
(:func:`~avoidpair.oracle.brute_distribution`, re-exported here) counts
members by one packed key of all eight statistics and reads a family's
marginal off those counts by masking the key; within one :func:`suite`
call, families G and F share one such table per (pair, n).  The counts
check takes class sizes from :func:`~avoidpair.perms.class_size` without
carrying members over.  The map checks share one member-to-quadruple table
per class and length, swap each distinct quadruple once, and map each
member through its cut positions (see :mod:`avoidpair.bijections`), with
no pattern search.  :func:`suite` lists the reports of one
``avoidpair verify`` run for a scope.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable

from . import SCOPES, catalog, stats
from ._record import Record
from .bijections import LAYERED_PAIR, RUN_PAIR, complement_map, transfer_map
from .perms import (
    FINITE_PAIR,
    Pair,
    all_pairs,
    class_count,
    class_size,
    complement,
    enumerate_class,
    format_pair,
    pattern_pair,
    reverse,
)
# brute_distribution lives in oracle, which table --oracle loads without
# this module, and is re-exported here.
from .oracle import brute_distribution
from .polys import expand

DEFAULT_N_COUNTS = 12
DEFAULT_N_G = 10
DEFAULT_N_F = 9
DEFAULT_N_MAPS = 12


class VerifyReport(Record):
    """Outcome of one check; ``first_discrepancy`` is present iff it failed."""

    _compared = ("name", "pair", "family", "n_range", "status", "first_discrepancy")

    def __init__(self, name: str, pair: str | None, family: str | None,
                 n_range: tuple[int, int], status: str, first_discrepancy: dict | None = None):
        self._set(name=name, pair=pair, family=family, n_range=n_range, status=status,
                  first_discrepancy=first_discrepancy)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_line(self) -> str:
        payload = {
            "name": self.name,
            "pair": self.pair,
            "family": self.family,
            "n_range": list(self.n_range),
            "status": self.status,
            "first_discrepancy": self.first_discrepancy,
        }
        return json.dumps(payload, sort_keys=True)


def _report(name, pair, family, n_range, discrepancy=None) -> VerifyReport:
    return VerifyReport(
        name=name,
        pair=format_pair(pair) if pair is not None else None,
        family=family,
        n_range=n_range,
        status="fail" if discrepancy else "pass",
        first_discrepancy=discrepancy,
    )


def check_gf(pair: Pair, family: str, n_max: int, gf=None, *,
             joint: dict | None = None) -> VerifyReport:
    """Expansion coefficients of the catalogued form vs brute force.

    Passing ``gf`` substitutes a candidate form for the catalogued one,
    which lets the harness prove it would catch a corrupted entry.
    ``joint`` is passed on to :func:`brute_distribution`.
    """
    pair = pattern_pair(*pair)
    if gf is None:
        gf = catalog.gf_for(pair, family)
    table = expand(gf, n_max)
    for n in range(n_max + 1):
        expected = brute_distribution(pair, n, family, joint=joint)
        if table.coeffs[n] != expected:
            discrepancy = {
                "n": n,
                "expected": expected.to_json_terms(),
                "actual": table.coeffs[n].to_json_terms(),
            }
            return _report("gf-vs-enumeration", pair, family, (0, n_max), discrepancy)
    return _report("gf-vs-enumeration", pair, family, (0, n_max))


def check_counts(n_max: int = DEFAULT_N_COUNTS) -> VerifyReport:
    """Enumerated class sizes vs the closed-form counts, all 15 pairs, n = 0..n_max."""
    if n_max < 0:
        raise ValueError(f"the counts check needs n_max >= 0, got {n_max}")
    for pair in all_pairs():
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

    Members share few distinct quadruples, so each distinct one is stored
    once, in ``distinct``, rather than once per member; at n = 12 this keeps
    the three live tables about 0.45 MB smaller.
    """
    quadruples = {}
    for perm in enumerate_class(pair, n):
        vec = stats.stat_vector(perm)
        quad = (vec.asc, vec.des, vec.mna, vec.mnd)
        quadruples[perm] = distinct.setdefault(quad, quad)
    return quadruples


def _require_a_map_length(n_max: int) -> None:
    if n_max < 1:
        raise ValueError("the map checks start at n = 1, so n_max must be at least 1, "
                         f"got {n_max}")


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
    are defined from n = 1, so ``n_max`` must be at least 1.
    """
    _require_a_map_length(n_max)
    prefix_pair = pattern_pair((2, 1, 3), (3, 1, 2))
    checks = [
        ("involution-swaps-quadruple", LAYERED_PAIR, complement_map, LAYERED_PAIR),
        ("complement-swaps-quadruple", RUN_PAIR, complement, RUN_PAIR),
        ("reverse-swaps-quadruple", prefix_pair, reverse, prefix_pair),
        ("transfer-swaps-quadruple", LAYERED_PAIR, transfer_map, RUN_PAIR),
    ]
    cross_name = "cross-class-equidistribution"
    found = {}
    for n in range(1, n_max + 1):
        distinct = {}
        tables = {pair: _quadruples(pair, n, distinct)
                  for pair in (LAYERED_PAIR, RUN_PAIR, prefix_pair)}
        swapped = {(a, d, ya, zd): (d, a, zd, ya) for a, d, ya, zd in distinct}
        for name, src, mapping, dst in checks:
            if name in found:
                continue
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

    ``scope`` is one of :data:`SCOPES`; ``n_max``, when
    given, replaces every default range.  ``all`` is the counts check, then
    family G and family F over the 14 infinite pairs, then the five maps.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")

    def upto(default: int) -> int:
        return default if n_max is None else n_max

    if scope in ("all", "maps"):
        # before any check runs, so a bad map range throws no work away
        _require_a_map_length(upto(DEFAULT_N_MAPS))
    reports = []
    if scope in ("all", "counts"):
        reports.append(check_counts(upto(DEFAULT_N_COUNTS)))
    if scope in ("all", "gf"):
        # G fills one eight-statistic table per (pair, n) and F reads its
        # marginal off the same table; dropped before the maps run.
        joint = {}
        for family, default in (("G", DEFAULT_N_G), ("F", DEFAULT_N_F)):
            for pair in all_pairs():
                if pair != FINITE_PAIR:
                    reports.append(check_gf(pair, family, upto(default), joint=joint))
        del joint
    if scope in ("all", "maps"):
        reports.extend(check_equidistribution_maps(upto(DEFAULT_N_MAPS)))
    return reports


def run_default_suite() -> list[VerifyReport]:
    """Everything: counts, both families over all pairs, and the five maps."""
    return suite()


def all_passed(reports: Iterable[VerifyReport]) -> bool:
    return all(report.passed for report in reports)
