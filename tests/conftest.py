import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from clopen.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def oracle():
    """bench/oracle.py, the independent oracle for cylinder tree-pairs."""
    spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "bench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


@pytest.fixture(scope="session")
def verify_report():
    """report(name, budget): the exit status and stdout of `clopen verify
    --instance name --seed 5 --budget budget`, run once a session, so the
    budget relations in two modules share the budget-256 reports."""
    runs = {}

    def report(name, budget):
        if (name, budget) not in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = main(["verify", "--instance", name, "--seed", "5",
                               "--budget", str(budget)])
            runs[name, budget] = status, out.getvalue()
        return runs[name, budget]

    return report


def _in_cell_by_disjointification(sch, x, cell):
    """x in A_cell by its definition: (B_cell minus the earlier B_(parent,i))
    intersected with A_parent."""
    if not cell:
        return True
    parent, k = cell[:-1], cell[-1]
    return (_in_cell_by_disjointification(sch, x, parent)
            and sch.ball_stage(x, cell)
            and not any(sch.ball_stage(x, parent + (i,)) for i in range(k)))


@pytest.fixture(scope="session")
def in_cell_by_disjointification():
    """in_cell(sch, x, cell): x in the Luzin cell A_cell of the scheme by the
    definition, read from plain ball stages, not from the scheme's paths."""
    return _in_cell_by_disjointification
