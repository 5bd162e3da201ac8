"""Caps only stop, never steer, at the largest scan budget: the `clopen
verify --seed 5` report is the same at --budget 1,024 as at 256, where the
catalog instances set it, on every catalog instance.

With `tests/test_metamorphic.py`, which compares budgets 256 and 512, the
report is the same at 256, 512 and 1,024.  The two modules read each
instance's budget-256 report from one session fixture (`verify_report` in
`tests/conftest.py`), so it runs once.  The relation has a module of its own
because the distance-oracle scans grow every point to depth 1,024, and the
main module's time would pass 3 s with it.
"""

import pytest

from clopen.instances import CATALOG


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_budget_1024_leaves_the_verify_report_alone(name, verify_report):
    runs = [verify_report(name, budget) for budget in (256, 1024)]
    assert runs[0] == runs[1] and runs[0][0] == 0
