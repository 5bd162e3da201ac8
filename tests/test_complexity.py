"""Complexity guards: deterministic counts that grow as the algorithm says.

Each guard runs a command, counts its work through wrappers installed here,
and bounds the ratio of counts between scales, or a count by what the
algorithm needs.  It counts,
never times, so a noisy host cannot fail it, and each bound follows from the
algorithm, as the comment next to it says.

`clopen verify` grows the dense points its distance-oracle scans read to
depth --budget.  On a dsl tree whose node predicate has a position-local
conjunct (`all i < len : φ`, φ reading s only at i), a walk step past an
admitted stem reads that conjunct at the one new entry, so a point grown to
depth n costs O(n) reads, not the O(n^2) of reading each candidate's whole
stem.

Each dense point grows once: the distance-oracle scans read the codes below
40, and every code there holds its least code's entry, so the branches grown
to --budget are the distinct points among them.

Doubling --budget at most doubles the predicate calls of every catalog
instance's trees and the positions stored on its dense points: the budget
enters only through the distance-oracle scans, which grow each distinct
point among the codes below 40 to depth --budget, so both counts are affine
in the budget with a nonnegative constant.

A Luzin probe's search on each level starts at its index on the level above,
since no smaller index can qualify there.

The metric axiom check reads each of a table's K^2 entries once and decides
the triangle inequality on an ultrametric by one row pass, so an instance
table, which is always an ultrametric, never reaches the K^3 exact loop.
"""

import contextlib
import copy
import io
import json
from dataclasses import replace

import pytest

from clopen import codes, dsl, verify
from clopen.cli import main
from clopen.codes import catalog_table, validate_metric_table
from clopen.instances import CATALOG, build_instance, builtin_instance, parse_instance
from clopen.luzin import LuzinScheme, baire_closed_presentation
from clopen.trees import DensePointFamily, PrunedTree

BUDGETS = (128, 256, 512)
# the real compile: monkeypatch undoes a patch only when the test ends, so
# each run wraps this one, not the run before's wrapper
COMPILE = dsl.compile


def _verify_counts(monkeypatch, name, budget):
    """(node-verdict calls, dsl sequence reads) of one `clopen verify --seed 5`
    at the budget: every function dsl.compile makes for the instance's node
    fields, whole predicates and step forms alike, counts its calls and the
    reads of s they make."""
    counts = [0, 0]

    def counting(e, names):
        fn = COMPILE(e, names)

        def verdict(s, *rest):  # a node function's sequence is its first argument
            counts[0] += 1

            def read(i):
                counts[1] += 1
                return s(i)

            return fn(read, *rest)

        return verdict

    monkeypatch.setattr(dsl, "compile", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--instance", name, "--seed", "5", "--budget", str(budget)]) == 0
    return tuple(counts)


def test_dsl_walks_grow_linearly_in_the_budget(monkeypatch):
    counts = [_verify_counts(monkeypatch, "cantor-dsl-eq01", b) for b in BUDGETS]
    for (calls, reads), (more_calls, more_reads) in zip(counts, counts[1:]):
        # node verdicts: every verdict deeper than the validation and the
        # enumeration look is asked by a walk step, a step asks at most
        # child_bound + 1 = 2 of them, and the scans walk the same points to
        # depth --budget, so the count is affine in the budget with a
        # nonnegative constant and at most doubles (1.75 and 1.85 here)
        assert more_calls <= 2 * calls, (BUDGETS, counts)
        # sequence reads: a step verdict reads three entries, s(i), s(0) and
        # s(1), and the whole predicate reads only the stems that validation,
        # admits and least-child queries ask, whatever the budget; so the
        # reads are affine in the budget too and at most double (1.57 and
        # 1.73 here), where reading each candidate's whole stem makes them
        # quadratic, about 4 times per doubling (96,745, 370,601, 1,458,985)
        assert more_reads <= 2 * reads, (BUDGETS, counts)


TREE_PAIRS = ["baire-split-0", "cantor-dsl-eq01", "cantor-eq01", "cantor-split-0",
              "cantor-split-00"]
ORACLE_CODES = 40  # check_distance_oracle compares the codes below 40


def _distinct_points(fam):
    """The distinct points among the codes below 40: their least codes, read
    off a fresh family of a side."""
    return sum(fam.is_least_code(s) for s in range(ORACLE_CODES))


@pytest.mark.parametrize("name", TREE_PAIRS)
def test_verify_grows_each_dense_point_once(monkeypatch, name):
    families = []
    real = verify.check_distance_oracle

    def recording(fam, budget, name):
        families.append((fam, budget))
        return real(fam, budget, name)

    monkeypatch.setattr(verify, "check_distance_oracle", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--instance", name, "--seed", "5"]) == 0
    fresh = build_instance(builtin_instance(name)).sum_space
    assert len(families) == 2
    for (fam, budget), rep in zip(families, (fresh.part_a, fresh.part_c)):
        grown = {id(point) for point, _ in fam._points.values()
                 if len(point._prefix) >= budget}
        distinct = _distinct_points(rep.fam)
        # every code holds its least code's entry, so the branches grown to
        # the budget are one per distinct point; before sharing,
        # cantor-split-0 side a grew 21 branches for 10 distinct points
        assert len(grown) == distinct, (name, len(grown), distinct)


def test_baire_closed_trio_searches_each_level_from_the_parent_index():
    pres = baire_closed_presentation(build_instance(builtin_instance("baire-split-0")).ambient_fam)
    calls = [0]

    def counted(x, i, dist_to_dense=pres.dist_to_dense):
        calls[0] += 1
        return dist_to_dense(x, i)

    scheme = LuzinScheme(replace(pres, dist_to_dense=counted))
    for result in (verify.check_luzin_scheme(scheme, 4, 16),
                   verify.check_embedding_injective(scheme, 16),
                   verify.check_image_tree_pruned(scheme, 4)):
        assert result.passed, result.detail
    # the trio the embed-luzin bench runs on the baire-split-0 ambient: no
    # index below a point's index on one level qualifies on the next, so each
    # level's search starts there; searching from 0 on every level made 3,110
    assert calls[0] <= 1068


def _verify_budget_counts(monkeypatch, name, budget):
    """(predicate calls, stored positions) of one `clopen verify --seed 5` at
    the budget: every PrunedTree's predicate is wrapped at __init__, and the
    positions are summed over the distinct points of every dense family."""
    calls, families = [0], []
    tree_init, family_init = PrunedTree.__init__, DensePointFamily.__init__

    def counted_tree(tree, admits, *args, **kwargs):
        def predicate(u):
            calls[0] += 1
            return admits(u)

        tree_init(tree, predicate, *args, **kwargs)

    def recorded_family(fam, tree):
        family_init(fam, tree)
        families.append(fam)

    with monkeypatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(PrunedTree, "__init__", counted_tree)
        patch.setattr(DensePointFamily, "__init__", recorded_family)
        assert main(["verify", "--instance", name, "--seed", "5",
                     "--budget", str(budget)]) == 0
    points = {id(point): point for fam in families for point, _ in fam._points.values()}
    return calls[0], sum(len(point._prefix) for point in points.values())


@pytest.mark.parametrize("name", list(CATALOG))
def test_verify_counts_at_most_double_with_the_budget(monkeypatch, name):
    counts = [_verify_budget_counts(monkeypatch, name, b) for b in BUDGETS]
    for (calls, stored), (more_calls, more_stored) in zip(counts, counts[1:]):
        # predicate calls: validation, enumeration and the other checks ask a
        # fixed set of stems whatever the budget, and a walk step that grows a
        # point by one position asks a bounded number of fresh stems, so the
        # calls are affine in the budget and at most double
        assert more_calls <= 2 * calls, (name, BUDGETS, counts)
        # stored positions: each distinct point the distance-oracle scans read
        # grows to exactly --budget positions, and every other point's prefix
        # is fixed by the checks, so they too are affine and at most double
        assert more_stored <= 2 * stored, (name, BUDGETS, counts)


def _axiom_check_counts(monkeypatch, table):
    """(dist reads, exact-loop calls) of the axiom check while table() runs."""
    counts = [0, 0]
    check, exact = codes.check_metric_axioms, codes._triangle_exact

    def checking(dist, count, equal=None):
        def read(i, j):
            counts[0] += 1
            return dist(i, j)

        return check(read, count, equal)

    def exact_loop(*args):
        counts[1] += 1
        return exact(*args)

    monkeypatch.setattr(codes, "check_metric_axioms", checking)
    monkeypatch.setattr(codes, "_triangle_exact", exact_loop)
    table()
    return tuple(counts)


@pytest.mark.parametrize("name", TREE_PAIRS)
def test_axiom_check_reads_each_entry_once_and_runs_no_cubic_loop(monkeypatch, name):
    for k in (32, 64, 128):
        doc = copy.deepcopy(CATALOG[name])
        doc["bounds"] = {**doc.get("bounds", {}), "table_size": k}
        built = build_instance(parse_instance(json.dumps(doc)))
        # d(i, j) for i <= j and d(j, i) for i < j: K^2 reads, so doubling
        # the table size quadruples them; the table is an ultrametric, so the
        # row pass decides its triangles and the K^3 exact loop never runs
        assert _axiom_check_counts(monkeypatch, built.table) == (k * k, 0), (name, k)


def test_axiom_check_sends_a_table_that_is_no_ultrametric_to_the_exact_loop(monkeypatch):
    # the harmonic distances are a metric but no ultrametric
    table = catalog_table("harmonic", 12)
    assert _axiom_check_counts(monkeypatch, lambda: validate_metric_table(table)) == (144, 1)
