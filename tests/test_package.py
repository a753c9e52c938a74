"""The package's public names: the same objects, resolved on first use."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import avoidpair
from avoidpair import catalog, oracle, perms, stats, verify

PUBLIC_NAMES = [
    "LAYERED_PAIR", "RUN_PAIR", "CatalogEntry", "FiniteClassError", "MultiPoly",
    "NotInClassError", "Pair", "Perm", "RationalGF", "SeriesTable", "StatVector",
    "VerifyReport", "asc", "avoids_pair", "brute_distribution", "canonical_gf",
    "check_counts", "check_gf", "class_count", "complement", "complement_map",
    "compositions", "contains", "des", "direct_sum", "enumerate_class", "expand",
    "gf_for", "inverse", "layered_compose", "layered_decompose", "lrmax", "lrmin",
    "make_permutation", "mna", "mnd", "pattern_pair", "reverse", "rlmax", "rlmin",
    "run_default_suite", "runs_compose", "runs_decompose", "single_stat_gf",
    "skew_sum", "stat_vector", "transfer_map",
]


def test_public_names_are_unchanged():
    assert avoidpair.__all__ == PUBLIC_NAMES


def test_bare_import_loads_no_submodule_until_one_is_used():
    script = (
        "import sys, avoidpair\n"
        "print(sorted(m for m in sys.modules if m.startswith('avoidpair.')))\n"
        "print(avoidpair.polys is sys.modules['avoidpair.polys'])\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\nTrue\n", "")


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_the_object_its_module_defines(name):
    module = importlib.import_module(f"avoidpair.{avoidpair._EXPORTS[name]}")
    value = getattr(avoidpair, name)
    assert value is getattr(module, name)
    if isinstance(value, (type, FunctionType)):
        # the table names the defining module, not a module that re-exports
        assert value.__module__ == module.__name__


def test_moved_names_are_re_exported_as_the_same_objects():
    assert avoidpair.class_count is perms.class_count is catalog.class_count
    assert avoidpair.FiniteClassError is perms.FiniteClassError is catalog.FiniteClassError
    assert stats.FAMILIES is catalog.FAMILIES and stats.FAMILY_MARKERS is catalog.FAMILY_MARKERS
    assert avoidpair.SCOPES is verify.SCOPES
    # declared in the package root for the CLI, and pinned to the families
    # that stats marks
    assert avoidpair.FAMILIES is stats.FAMILIES == tuple(stats.FAMILY_MARKERS)
    assert avoidpair.brute_distribution is oracle.brute_distribution is verify.brute_distribution


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from avoidpair import *", namespace)
    assert all(namespace[name] is getattr(avoidpair, name) for name in PUBLIC_NAMES)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        avoidpair.no_such_name


def test_dir_lists_public_names_and_submodules():
    listed = dir(avoidpair)
    assert set(PUBLIC_NAMES) <= set(listed)
    assert {"cli", "polys", "verify", "__version__"} <= set(listed)


# A named tuple's own API starts with an underscore but is public.
NAMEDTUPLE_API = {"_asdict", "_field_defaults", "_fields", "_make", "_replace"}


def is_private(name):
    dunder = name.startswith("__") and name.endswith("__")
    return name.startswith("_") and not dunder and name not in NAMEDTUPLE_API


def private_reads(source):
    """Each private name that ``source`` imports from an avoidpair module, and
    each private attribute it reads off a name so imported."""
    tree = ast.parse(source)
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("avoidpair")):
            for alias in node.names:
                imported.add(alias.asname or alias.name)
                if is_private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names if alias.name.startswith("avoidpair"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append(ast.unparse(node))
    return found


def test_the_private_read_finder_finds_each_kind():
    source = ("from .polys import _pack, MultiPoly\nfrom . import stats\n"
              "from ._record import Record\nimport avoidpair.perms as perms\n"
              "MultiPoly._raw({})\nstats.StatVector._fields\nstats.x._y\n"
              "Record.__init__\nperms._private()\nlocal._x\n")
    assert sorted(private_reads(source)) == [
        "MultiPoly._raw", "from .polys import _pack", "perms._private", "stats.x._y"]


@pytest.mark.parametrize("path", sorted(Path(avoidpair.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_each_private_name_is_read_only_by_its_own_module(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []
