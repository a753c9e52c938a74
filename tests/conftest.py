"""Session hooks: the operand-safety tests of ``MultiPoly`` run first.

A ``MultiPoly`` operation that writes into an operand's terms corrupts the
cached closed forms that every later test reads, and those tests then fail
far from the cause or run until the faulthandler timeout ends the session.
So the tests that pin operand safety run before all others, and the first
of them to fail stops the session, with that test reported.
"""

import pytest

OPERAND_SAFETY = "test_polys.py::TestArithmetic::test_a_cancelling_operation_changes_no_operand"


def _checks_operand_safety(item) -> bool:
    return item.nodeid.partition("[")[0].endswith(OPERAND_SAFETY)


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: not _checks_operand_safety(item))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.failed and _checks_operand_safety(item):
        item.session.shouldfail = (f"{item.nodeid} failed: a MultiPoly operation "
                                   "changed an operand, so later tests are not run")
    return report
