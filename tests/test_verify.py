import contextlib
import io
import json
from fractions import Fraction

import pytest

from clopen import verify
from clopen.baire import BairePoint, first_disagreement
from clopen.cli import main
from clopen.coding import quad_code, quad_position
from clopen.instances import CATALOG, build_instance, builtin_instance, parse_instance
from clopen.remetrize import ClosedRepresentation, SumSpace
from clopen.trees import DensePointFamily, full_cantor_tree, validate_pruned
from clopen.verify import (check_interleaved_table, check_two_sided_continuity,
                           run_instance_suite, side_sample_branches)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_instance_suites_pass(name):
    built = build_instance(builtin_instance(name))
    results = run_instance_suite(built, axiom_count=40, seed=0)
    failed = [r.line() for r in results if not r.passed]
    assert not failed, failed


def test_suite_order_is_canonical():
    built = build_instance(builtin_instance("cantor-split-0"))
    results = run_instance_suite(built, axiom_count=20, seed=0)
    names = [r.name for r in results]
    assert names == sorted(names)


@pytest.mark.parametrize("pair, planted, line", [
    # the points of codes 0 and 0 agree below the budget 128, so the distance
    # must lie below 1/128; both FAIL texts are pinned as reports print them
    ((0, 0), Fraction(1, 128), "FAIL distance-oracle:a  AssertionError: (0,0): exact 1/128 "
                               "not below threshold"),
    ((0, 0), Fraction(1, 129), "ok   distance-oracle:a  40x40 index pairs"),
    # the points of codes 0 and 2, stems () and (1,), first disagree at 0
    ((0, 2), Fraction(1, 3), "FAIL distance-oracle:a  AssertionError: (0,2): scan 1 != exact 1/3"),
], ids=["not-below-threshold", "below-threshold", "scan-differs"])
def test_distance_oracle_reports_a_planted_wrong_distance(monkeypatch, pair, planted, line):
    real = verify.dense_pn_distance

    def planting(fam, s, t):
        return planted if (s, t) == pair else real(fam, s, t)

    monkeypatch.setattr(verify, "dense_pn_distance", planting)
    tree = full_cantor_tree()
    validate_pruned(tree, 4)
    result = verify.check_distance_oracle(DensePointFamily(tree), 128, "distance-oracle:a")
    assert result.line() == line


def test_one_point_side_passes_continuity():
    # every stem of the only branch 2, 2, 2, ... names one point: the sample
    # keeps the empty stem alone, and never a labelled point of a 14-entry
    # stem, whose code has more digits than an int prints
    doc = {"format": "instance/1", "id": "one-point",
           "ambient": {"kind": "tree", "tree": {"rule": "cylinders",
                                                "prefixes": [[0], [1], [2]]}},
           "set": {"kind": "tree-pair",
                   "a": {"rule": "dsl", "child_bound": 2, "node": "all i < len : s(i) == 2"},
                   "complement": {"rule": "cylinders", "prefixes": [[0], [1]],
                                  "child_bound": 2}},
           "bounds": {"depth": 2}}
    sp = build_instance(parse_instance(json.dumps(doc))).sum_space
    result = check_two_sided_continuity(sp)
    assert result.line() == "ok   continuity  68 modulus samples"


def test_huge_least_stem_passes_continuity():
    # the point 2, 2, ... of side a has the 14-entry least stem (2,) * 14,
    # whose code has more digits than an int prints; the sample keeps it
    doc = {"format": "instance/1", "id": "huge-stem", "ambient": {"kind": "baire"},
           "set": {"kind": "tree-pair",
                   "a": {"rule": "cylinders", "prefixes": [[2] * 13 + [1], [2] * 14]},
                   "complement": {"rule": "cylinders", "prefixes": [[0], [1]],
                                  "child_bound": 1}},
           "bounds": {"depth": 2}}
    sp = build_instance(parse_instance(json.dumps(doc))).sum_space
    result = check_two_sided_continuity(sp)
    assert result.line() == "ok   continuity  80 modulus samples"


def test_continuity_reads_a_split_at_position_0_as_a_disagreement():
    # the map shifts each branch right by one, so branches that split at
    # position 0 have images that split at position 1; the moduli are sound
    # for that shift, and a reader that took the split at 0 for agreement
    # would call them unsound
    def shifted(branch):
        return BairePoint(lambda n: 0 if n == 0 else branch(n - 1))

    tree = full_cantor_tree()
    validate_pruned(tree, 2)
    shift = ClosedRepresentation(fam=DensePointFamily(tree), map_point=shifted,
                                 map_modulus=lambda k: max(k - 1, 0),
                                 inverse_modulus=lambda branch, k: k + 2)
    sp = SumSpace(part_a=shift, part_c=shift, ambient=DensePointFamily(tree))
    branches = side_sample_branches(shift, 4)
    assert first_disagreement(branches[0], branches[1], 4) == 0
    assert first_disagreement(shifted(branches[0]), shifted(branches[1]), 4) == 1
    result = check_two_sided_continuity(sp)
    assert result.line() == "ok   continuity  128 modulus samples"


# --- the interleave check's window --------------------------------------------

def _probe_window(name):
    """max(2, the largest reduced denominator of the probes - 1): the window
    the interleave check derives from its table (2 or 3 on the catalog)."""
    table = build_instance(builtin_instance(name)).table()
    probe = range(min(table.K, 6))
    return max(2, max(table.dist(i, j).denominator for i in probe for j in probe) - 1)


def _coding(monkeypatch, wrap):
    """Make the interleave check read the code point wrap(real code point)."""
    real = verify.encode_metric
    monkeypatch.setattr(verify, "encode_metric", lambda table: wrap(real(table)))


@pytest.mark.parametrize("offset,fails", [(0, True), (1, False)], ids=["inside", "past"])
def test_a_bit_planted_within_the_derived_window_fails_the_check(monkeypatch, offset, fails):
    # (0, 1) is a cross-side pair, d = 2 at (m, n) = (2, 0); a stray bit in
    # the row m = 1 before it is read up to n = window, and not past it
    window = _probe_window("cantor-split-0")
    planted = quad_code(0, 1, 1, window + offset)
    _coding(monkeypatch, lambda code: BairePoint(lambda t: 1 if t == planted else code(t)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["verify", "--instance", "cantor-split-0", "--seed", "5"])
    line = next(x for x in out.getvalue().splitlines() if x.split()[1] == "interleave")
    if fails:
        assert status == 1
        assert line == "FAIL interleave  AssertionError: code round trip differs at (0,1)"
    else:
        assert status == 0 and line.startswith("ok   interleave")


@pytest.mark.parametrize("name", ["cantor-split-0", "cantor-split-00", "witness-first-bit"])
def test_a_cross_side_probe_reads_window_plus_3_bits(monkeypatch, name):
    # (0, 0), the whole m = 1 row up to the window, then (2, 0): 5 or 6
    # reads here, and 96 + 3 = 99 at the fixed window this one replaces
    reads = []

    def counted(code):
        def rule(t):
            reads.append(quad_position(t))
            return code(t)
        return BairePoint(rule)

    _coding(monkeypatch, counted)
    assert check_interleaved_table(build_instance(builtin_instance(name))).passed
    window = _probe_window(name)
    assert sum(1 for quad in reads if quad[:2] == (0, 1)) == window + 3
