import doctest

import pytest

from avoidpair import bijections, catalog, oracle, perms, polys, stats, verify


@pytest.mark.parametrize("module", [polys, perms, stats, bijections, catalog, verify, oracle])
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
