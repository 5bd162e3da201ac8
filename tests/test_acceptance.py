"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either computed by an independent oracle inside the
test or asserted directly from its defining formula; tolerances are exact
(all arithmetic is over rationals and naturals).
"""

import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from clopen.baire import (disagreement_distance, eventually_periodic, exact_distance,
                          first_disagreement)
from clopen.codes import (catalog_table, decode_metric, encode_metric, render_code_file,
                          validate_metric_table)
from clopen.coding import decode, encode, quad_code
from clopen.instances import CATALOG, build_instance, build_tree, builtin_instance
from clopen.luzin import LuzinScheme, cantor_presentation
from clopen.remetrize import OnBoundary, certified_ball_list, interleave, open_ball_distance
from clopen.trees import (DensePointFamily, constant_tree, cylinder_union_tree,
                          dense_pn_distance, full_baire_tree, full_cantor_tree,
                          iter_admissible, validate_pruned)
from clopen.verify import (check_clopen_sides, check_embedding_injective,
                           check_extension_certificates, check_image_tree_pruned,
                           check_luzin_scheme, check_sum_metric_axioms, check_witness_matrix)
from clopen.witness import WitnessClosure, diagonal_matrix, parity_matrix, \
    zero_tail_matrix

INTERLEAVE_CATALOG = ("cantor-split-0", "cantor-split-00", "baire-split-0", "cantor-eq01")


def report(number: int, summary: str):
    print(f"PASS criterion {number}: {summary}")


def interleaved_table(built, count):
    """The instance's interleaved table with count entries, at its enumeration cap."""
    return interleave(built.sum_space, count, cap=built.file.bounds["enumeration_cap"],
                      label=built.file.id)


def built_catalog():
    return {name: build_instance(builtin_instance(name))
            for name in CATALOG if not name.startswith("degenerate")}


# --- criterion 1 --------------------------------------------------------------

def test_criterion_1_coding_round_trips():
    start = time.monotonic()
    count = 0
    for n in range(7):
        for u in itertools.product(range(9), repeat=n):
            assert decode(encode(u)) == u
            count += 1
    elapsed = time.monotonic() - start
    assert count == 597_871
    assert elapsed < 10.0, f"round trips took {elapsed:.1f}s"
    report(1, f"{count} encode/decode round trips exact in {elapsed:.1f}s")


# --- criterion 2 --------------------------------------------------------------

def tree_catalog():
    return [
        full_baire_tree(),
        full_cantor_tree(),
        cylinder_union_tree([[0, 0], [1]], child_floor=1, label="cylinders"),
        constant_tree(3),
        build_tree({"rule": "dsl", "child_bound": 1,
                    "node": "(all i < len : s(i) <= 1) and (len < 2 or s(0) == s(1))"},
                   "tree", label="dsl"),
    ]


def test_criterion_2_dense_families():
    budget = 256
    pairs_checked = 0
    trees = tree_catalog()
    assert len(trees) >= 5
    for tree in trees:
        validate_pruned(tree, 5)
        fam = DensePointFamily(tree)
        for u in iter_admissible(tree, 4):
            point = fam.leftmost(encode(u))
            assert point.prefix(len(u)) == u, f"{tree.label}: branch leaves N_s"
            for n in range(9):
                assert tree.admits(point.prefix(n)), f"{tree.label}: leaves the tree"
        for s in range(200):
            for t in range(200):
                d = dense_pn_distance(fam, s, t)
                k = first_disagreement(fam.leftmost(s), fam.leftmost(t), budget)
                if k is None:
                    assert d == 0
                else:
                    assert disagreement_distance(k) == d
                pairs_checked += 1
    report(2, f"{len(trees)} trees, {pairs_checked} index pairs against the scan oracle")


# --- criteria 3 and 4 -----------------------------------------------------------

def test_criterion_3_metric_axioms():
    instances = built_catalog()
    tables = 0
    for name, built in instances.items():
        start = time.monotonic()
        result = check_sum_metric_axioms(built.sum_space, 150)
        assert result.passed, result.detail
        if name in INTERLEAVE_CATALOG:
            table = interleaved_table(built, 150)
            validate_metric_table(table)
            tables += 1
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
    assert tables == len(INTERLEAVE_CATALOG)
    report(3, f"summed metric on {len(instances)} instances and {tables} "
              f"interleaved tables, triples below 150, zero violations")


def test_criterion_4_clopen_sides():
    instances = built_catalog()
    for name, built in instances.items():
        result = check_clopen_sides(built.sum_space, 150)
        assert result.passed, f"{name}: {result.detail}"
    report(4, f"side recovery by one radius-3/2 ball on {len(instances)} instances, "
              f"codes below 150")


# --- criterion 5 ----------------------------------------------------------------

def test_criterion_5_topology_extension():
    certified_total = 0
    for name, built in built_catalog().items():
        sp = built.sum_space
        if not sp.certifiable:
            continue
        cap = built.file.bounds["enumeration_cap"]
        certified = certified_ball_list(sp, 6, cap)
        assert certified, f"{name}: empty certified list"
        result = check_extension_certificates(sp, cap, certified)
        assert result.passed, f"{name}: {result.detail}"
        certified_total += len(certified)
    assert certified_total > 0
    report(5, f"{certified_total} certified (point, ambient ball) pairs, "
              f"zero certificate failures")


# --- criterion 6 ----------------------------------------------------------------

def test_criterion_6_luzin_scheme(ball_stage_by_definition, in_cell_by_disjointification):
    scheme = LuzinScheme(cantor_presentation(witness_bound=32))
    for result in (check_luzin_scheme(scheme, 4, 30),
                   check_embedding_injective(scheme, 30),
                   check_image_tree_pruned(scheme, 4)):
        assert result.passed, result.detail
    # disjointness and refinement by the definition, on ball stages read from
    # the raw distance: on every level, the probe's path index is the only
    # child index within the bound whose cell holds the probe
    pres = scheme.presentation
    stage = ball_stage_by_definition(lambda x, k: exact_distance(x, pres.dense_point(k)),
                                     pres.dense_point)
    for i in range(30):
        x = pres.dense_point(i)
        path = scheme.embed(x).prefix(4)
        for n in range(4):
            hits = [k for k in range(33)
                    if in_cell_by_disjointification(stage, x, path[:n] + (k,))]
            assert hits == [path[n]], (i, path, n, hits)
    report(6, "scheme properties to depth 4 on 30 dense points, each in exactly "
              "one child cell by the definition; embedding injective; image tree pruned")


# --- criterion 7 ----------------------------------------------------------------

def witness_base_points(label: str, rng: random.Random, count: int):
    points = []
    for _ in range(count):
        if label == "zero-tail":
            pre = [rng.randrange(2) for _ in range(rng.randrange(6))]
            period = [rng.randrange(2) for _ in range(rng.randrange(1, 3))] + [0]
        else:
            pre = [rng.randrange(4) for _ in range(rng.randrange(6))]
            period = [rng.randrange(4) for _ in range(rng.randrange(1, 4))]
        points.append(eventually_periodic(pre, period))
    return points


def test_criterion_7_witness_maps():
    rng = random.Random(2026)
    matrices = (diagonal_matrix(), zero_tail_matrix(), parity_matrix())
    for matrix in matrices:
        closure = WitnessClosure(matrix)
        points = witness_base_points(matrix.label, rng, 100)
        result = check_witness_matrix(closure, points, depth=16, rng=rng,
                                      perturbations=50, name=f"witness:{matrix.label}")
        assert result.passed, f"{matrix.label}: {result.detail}"
    report(7, f"{len(matrices)} matrices, closure to depth 16, perturbed witnesses "
              f"refuted, modulus sound on 100x50 samples")


# --- criterion 8 ----------------------------------------------------------------

def all_value_representations(value: Fraction, limit: int):
    for n in range(limit + 1):
        m = value * (n + 1)
        if m.denominator == 1 and 0 <= m.numerator <= limit:
            yield m.numerator, n


def test_criterion_8_codes():
    instances = {name: build_instance(builtin_instance(name))
                 for name in INTERLEAVE_CATALOG}
    tables = [catalog_table("discrete", k=32), catalog_table("harmonic", k=16)]
    for name, built in instances.items():
        tables.append(interleaved_table(built, 32))
    bits_checked = 0
    for table in tables:
        assert table.K <= 32
        code = encode_metric(table)
        window = max(64, max(v.denominator for _, _, v in table.rows()))
        for i in range(table.K):
            for j in range(table.K):
                assert decode_metric(code, i, j, window=window) == table.dist(i, j)
                for m, n in all_value_representations(table.dist(i, j), 40):
                    assert code(quad_code(i, j, m, n)) == 1
                    bits_checked += 1

    # the code `clopen encode` writes, at K=24, twice from fresh builds
    for name in instances:
        texts = []
        for _ in range(2):
            inst = builtin_instance(name)
            built = build_instance(replace(inst, bounds={**inst.bounds, "table_size": 24}))
            texts.append(render_code_file(built.table(), name))
        assert texts[0] == texts[1]

    from clopen.verify import check_code_matches_sum
    for name, built in instances.items():
        result = check_code_matches_sum(built, matched=12)
        assert result.passed, f"{name}: {result.detail}"
    report(8, f"{len(tables)} tables round-tripped (K <= 32), {bits_checked} "
              f"representation bits set, encode byte-deterministic, code "
              f"distances match the summed presentation")


# --- criterion 9 ----------------------------------------------------------------

def direct_ball_oracle(x: Fraction, y: Fraction) -> Fraction:
    """Independent evaluation: split into base and reciprocal-gap parts."""
    base = max(x, y) - min(x, y)
    rx = Fraction(1, 1 - abs(x))
    ry = Fraction(1, 1 - abs(y))
    return base + (max(rx, ry) - min(rx, ry))


def test_criterion_9_open_ball_metric():
    rng = random.Random(99)
    for _ in range(10_000):
        den = rng.randrange(2, 400)
        x = Fraction(rng.randrange(-den + 1, den), den)
        den = rng.randrange(2, 400)
        y = Fraction(rng.randrange(-den + 1, den), den)
        assert open_ball_distance(x, y) == direct_ball_oracle(x, y)
    for bad in (Fraction(1), Fraction(-1)):
        with pytest.raises(OnBoundary):
            open_ball_distance(bad, Fraction(1, 3))
        with pytest.raises(OnBoundary):
            open_ball_distance(Fraction(1, 3), bad)
    report(9, "10000 random pairs match the direct oracle exactly; boundary "
              "inputs raise OnBoundary")
