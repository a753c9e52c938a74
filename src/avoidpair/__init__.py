"""Exact statistics over permutations avoiding a pair of length-3 patterns.

The library enumerates the fifteen avoidance classes, computes eight
classical statistics, expands the classes' rational generating functions
into exact joint-distribution polynomials, and checks every closed form and
statistic-exchanging map against brute force.

Every public name resolves on first use (PEP 562), so ``import avoidpair``
and each ``avoidpair`` command load only the submodules that they run.
"""

import sys

__version__ = "0.1.0"

# The scopes of ``avoidpair verify``, declared here so that building the
# CLI's parser does not import :mod:`avoidpair.verify`.
SCOPES = ("all", "counts", "gf", "maps")

# Each public name, with the submodule that defines it.
_EXPORTS = {
    "LAYERED_PAIR": "bijections",
    "RUN_PAIR": "bijections",
    "CatalogEntry": "catalog",
    "FiniteClassError": "perms",
    "MultiPoly": "polys",
    "NotInClassError": "bijections",
    "Pair": "perms",
    "Perm": "perms",
    "RationalGF": "polys",
    "SeriesTable": "polys",
    "StatVector": "stats",
    "VerifyReport": "verify",
    "asc": "stats",
    "avoids_pair": "perms",
    "brute_distribution": "verify",
    "canonical_gf": "catalog",
    "check_counts": "verify",
    "check_gf": "verify",
    "class_count": "perms",
    "complement": "perms",
    "complement_map": "bijections",
    "compositions": "bijections",
    "contains": "perms",
    "des": "stats",
    "direct_sum": "perms",
    "enumerate_class": "perms",
    "expand": "polys",
    "gf_for": "catalog",
    "inverse": "perms",
    "layered_compose": "bijections",
    "layered_decompose": "bijections",
    "lrmax": "stats",
    "lrmin": "stats",
    "make_permutation": "perms",
    "mna": "stats",
    "mnd": "stats",
    "pattern_pair": "perms",
    "reverse": "perms",
    "rlmax": "stats",
    "rlmin": "stats",
    "run_default_suite": "verify",
    "runs_compose": "bijections",
    "runs_decompose": "bijections",
    "single_stat_gf": "catalog",
    "skew_sum": "perms",
    "stat_vector": "stats",
    "transfer_map": "bijections",
}

_SUBMODULES = ("bijections", "catalog", "cli", "perms", "polys", "stats", "verify")

__all__ = list(_EXPORTS)


def _submodule(name: str):
    # The import statement's machinery, unlike importlib.import_module, is
    # what ``python -X importtime`` reports on.
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(_submodule(_EXPORTS[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
