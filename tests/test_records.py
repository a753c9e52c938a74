"""The library's value classes: ==, hash, repr, immutability and copies."""

import copy
import pickle

import pytest

from avoidpair.catalog import CatalogEntry
from avoidpair.polys import MultiPoly, RationalGF, SeriesTable
from avoidpair.verify import VerifyReport

X, Q = MultiPoly.var("x"), MultiPoly.var("q")
GF = RationalGF(1 - Q * X, 1 - X - Q * X)
STAGED = RationalGF(1 - Q * X, (1 - X) * (1 - Q * X), (1 - X, 1 - Q * X))

# Each value, the reprs the earlier frozen dataclasses printed, and a value
# that differs from it in one compared field.
CASES = [
    (GF, "RationalGF(num=MultiPoly(1 - q x), den=MultiPoly(1 - x - q x))",
     RationalGF(1 - X, 1 - X - Q * X)),
    (SeriesTable(0, (MultiPoly.one(),)), "SeriesTable(n_max=0, coeffs=(MultiPoly(1),))",
     SeriesTable(0, (MultiPoly.const(2),))),
    (CatalogEntry(GF, GF),
     "CatalogEntry(gf=RationalGF(num=MultiPoly(1 - q x), den=MultiPoly(1 - x - q x)), "
     "raw=RationalGF(num=MultiPoly(1 - q x), den=MultiPoly(1 - x - q x)), "
     "oracle_corrected=False, note='')",
     CatalogEntry(GF, GF, note="n")),
    (VerifyReport("x", None, "G", (0, 1), "pass"),
     "VerifyReport(name='x', pair=None, family='G', n_range=(0, 1), status='pass', "
     "first_discrepancy=None)",
     VerifyReport("x", None, "F", (0, 1), "pass")),
]


@pytest.mark.parametrize("value, text, other", CASES, ids=lambda v: type(v).__name__)
class TestValueClasses:
    def test_repr_names_every_compared_field(self, value, text, other):
        assert repr(value) == text

    def test_equal_values_hash_alike_and_others_differ(self, value, text, other):
        twin = copy.copy(value)
        assert twin is not value and twin == value and hash(twin) == hash(value)
        assert value != other
        # as for a dataclass, a tuple of the same fields is not the same value
        assert value != value._values() and hash(value) == hash(value._values())

    def test_fields_cannot_be_assigned_or_deleted(self, value, text, other):
        for name in list(vars(value)):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = None

    def test_pickle_round_trip(self, value, text, other):
        assert pickle.loads(pickle.dumps(value)) == value


def test_keywords_and_defaults():
    assert RationalGF(num=GF.num, den=GF.den) == GF
    assert SeriesTable(n_max=0, coeffs=(MultiPoly.one(),)) == CASES[1][0]
    entry = CatalogEntry(gf=GF, raw=GF)
    assert (entry.oracle_corrected, entry.note) == (False, "")
    report = VerifyReport(name="x", pair=None, family=None, n_range=(0, 1), status="pass")
    assert report.first_discrepancy is None and report.passed


def test_copies_keep_the_denominator_factors():
    for twin in (copy.copy(STAGED), copy.deepcopy(STAGED), pickle.loads(pickle.dumps(STAGED))):
        assert twin.den_factors == STAGED.den_factors and len(twin.den_factors) == 2
