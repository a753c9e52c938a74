"""Exact statistics over permutations avoiding a pair of length-3 patterns.

The library enumerates the fifteen avoidance classes, computes eight
classical statistics, expands the classes' rational generating functions
into exact joint-distribution polynomials, and checks every closed form and
statistic-exchanging map against brute force.
"""

from .bijections import (
    LAYERED_PAIR,
    RUN_PAIR,
    NotInClassError,
    complement_map,
    compositions,
    layered_compose,
    layered_decompose,
    runs_compose,
    runs_decompose,
    transfer_map,
)
from .catalog import (
    CatalogEntry,
    FiniteClassError,
    canonical_gf,
    class_count,
    gf_for,
    single_stat_gf,
)
from .perms import (
    Pair,
    Perm,
    avoids_pair,
    complement,
    contains,
    direct_sum,
    enumerate_class,
    inverse,
    make_permutation,
    pattern_pair,
    reverse,
    skew_sum,
)
from .polys import MultiPoly, RationalGF, SeriesTable, expand
from .stats import StatVector, asc, des, lrmax, lrmin, mna, mnd, rlmax, rlmin, stat_vector
from .verify import VerifyReport, brute_distribution, check_counts, check_gf, run_default_suite

__version__ = "0.1.0"

__all__ = [
    "LAYERED_PAIR",
    "RUN_PAIR",
    "CatalogEntry",
    "FiniteClassError",
    "MultiPoly",
    "NotInClassError",
    "Pair",
    "Perm",
    "RationalGF",
    "SeriesTable",
    "StatVector",
    "VerifyReport",
    "asc",
    "avoids_pair",
    "brute_distribution",
    "canonical_gf",
    "check_counts",
    "check_gf",
    "class_count",
    "complement",
    "complement_map",
    "compositions",
    "contains",
    "des",
    "direct_sum",
    "enumerate_class",
    "expand",
    "gf_for",
    "inverse",
    "layered_compose",
    "layered_decompose",
    "lrmax",
    "lrmin",
    "make_permutation",
    "mna",
    "mnd",
    "pattern_pair",
    "reverse",
    "rlmax",
    "rlmin",
    "run_default_suite",
    "runs_compose",
    "runs_decompose",
    "single_stat_gf",
    "skew_sum",
    "stat_vector",
    "transfer_map",
]
