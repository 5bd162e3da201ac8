import contextlib
import importlib.util
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from clopen.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _bench_module(name):
    """bench/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


@pytest.fixture(scope="session")
def oracle():
    """bench/oracle.py, the independent oracle for cylinder tree-pairs."""
    return _bench_module("oracle")


@pytest.fixture(scope="session")
def layertrace():
    """bench/layertrace.py, the tracer of the benchmark's traced runs."""
    return _bench_module("layertrace")


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


def _ball_stage_by_definition(raw, dense_point):
    """stage(x, cell): x in B_cell by the recursive definition over the raw
    distance, proviso included: x in B_parent, the raw distance d from x to
    r_k rescaled by plain d/(1+d) below the level radius 1/(2^(l+2) + 1) of
    the parent's length l, and r_k in B_parent."""
    memo = {}

    def stage(x, cell):
        if not cell:
            return True
        if (x, cell) not in memo:
            parent, k = cell[:-1], cell[-1]
            d = Fraction(raw(x, k))
            memo[x, cell] = (stage(x, parent)
                             and d / (1 + d) < Fraction(1, 2 ** (len(parent) + 2) + 1)
                             and stage(dense_point(k), parent))
        return memo[x, cell]

    return stage


@pytest.fixture(scope="session")
def ball_stage_by_definition():
    """ball_stage_by_definition(raw, dense_point) -> stage: the Luzin ball
    stages of a presentation by their definition, read from its raw
    distance, not from a scheme."""
    return _ball_stage_by_definition


def _in_cell_by_disjointification(stage, x, cell):
    """x in A_cell by its definition: (B_cell minus the earlier B_(parent,i))
    intersected with A_parent."""
    if not cell:
        return True
    parent, k = cell[:-1], cell[-1]
    return (_in_cell_by_disjointification(stage, x, parent)
            and stage(x, cell)
            and not any(stage(x, parent + (i,)) for i in range(k)))


@pytest.fixture(scope="session")
def in_cell_by_disjointification():
    """in_cell(stage, x, cell): x in the Luzin cell A_cell by the definition,
    read from the ball stages `stage` decides, not from a scheme's paths."""
    return _in_cell_by_disjointification
