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

An instance table carries its entries as labels of one K x K matrix, and
the metric axiom check and the code file read those, not dist.  The check
decides the triangle inequality on an ultrametric by one row pass, so an
instance table, which is always an ultrametric, never reaches the K^3 exact
loop; a table given by dist alone has each of its K^2 entries read once.

enumerate_distinct walks a frontier of stems in code order and asks the
tree only about the stems below the cap whose parent it admits, each once
over all the calls on a family: a constant per admissible stem walked.
"""

import contextlib
import copy
import io
import json
from dataclasses import replace
from math import isqrt

import pytest

from clopen import codes, dsl, instances, verify
from clopen.cli import main
from clopen.codes import catalog_table, render_code_file, validate_metric_table
from clopen.instances import CATALOG, build_instance, builtin_instance, parse_instance
from clopen.luzin import LuzinScheme, baire_closed_presentation
from clopen.remetrize import interleave, witness_representation
from clopen.trees import DensePointFamily, PrunedTree, enumerate_distinct
from clopen.witness import MATRIX_CATALOG

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


def _counted_predicates(patch):
    """Wrap the predicate of every PrunedTree made from now on, at __init__ as
    the bench does; the returned list's one entry counts their calls."""
    calls = [0]
    tree_init = PrunedTree.__init__

    def counted_tree(tree, admits, *args, **kwargs):
        def predicate(u):
            calls[0] += 1
            return admits(u)

        tree_init(tree, predicate, *args, **kwargs)

    patch.setattr(PrunedTree, "__init__", counted_tree)
    return calls


def _verify_budget_counts(monkeypatch, name, budget):
    """(predicate calls, stored positions) of one `clopen verify --seed 5` at
    the budget: every PrunedTree's predicate is wrapped at __init__, and the
    positions are summed over the distinct points of every dense family."""
    families = []
    family_init = DensePointFamily.__init__

    def recorded_family(fam, tree):
        family_init(fam, tree)
        families.append(fam)

    with monkeypatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        calls = _counted_predicates(patch)
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


def _axiom_check_counts(monkeypatch, run):
    """(dist reads, exact-loop calls) while run(count) runs, where count(table)
    counts every later read of table.dist and returns the table."""
    counts = [0, 0]
    exact = codes._triangle_exact

    def count(table):
        dist = table.dist

        def read(i, j):
            counts[0] += 1
            return dist(i, j)

        table.dist = read
        return table

    def exact_loop(*args):
        counts[1] += 1
        return exact(*args)

    monkeypatch.setattr(codes, "_triangle_exact", exact_loop)
    run(count)
    return tuple(counts)


@pytest.mark.parametrize("name", TREE_PAIRS)
def test_axiom_check_reads_each_entry_once_and_runs_no_cubic_loop(monkeypatch, name):
    for k in (32, 64, 128):
        doc = copy.deepcopy(CATALOG[name])
        doc["bounds"] = {**doc.get("bounds", {}), "table_size": k}
        built = build_instance(parse_instance(json.dumps(doc)))

        def check_and_render(count):
            monkeypatch.setattr(instances, "interleave", lambda *args, **kwargs: count(
                interleave(*args, **kwargs)))
            table = built.table()
            render_code_file(table, name)
            table.dist(0, 1)  # the one counted read, which shows the count sees dist

        # the table carries each entry as a label of its K x K matrix, which
        # the check and the code file read, so neither reads dist; the table
        # is an ultrametric, so the row pass decides its triangles and the
        # K^3 exact loop never runs
        assert _axiom_check_counts(monkeypatch, check_and_render) == (1, 0), (name, k)


def test_axiom_check_sends_a_table_that_is_no_ultrametric_to_the_exact_loop(monkeypatch):
    # the harmonic distances are a metric but no ultrametric; a table without
    # labels has d(i, j) for i <= j and d(j, i) for i < j read off dist: K^2
    table = catalog_table("harmonic", 12)
    assert _axiom_check_counts(
        monkeypatch, lambda count: validate_metric_table(count(table))) == (144, 1)


def test_enumerate_distinct_asks_a_constant_per_admissible_stem():
    # witness-first-bit side A: 8 points below 100,000, asked one more point
    # a call, as remetrize's index lookups ask them
    fam = witness_representation(MATRIX_CATALOG["first-value-0"](), 1).fam
    tree = fam.tree
    predicate, verdict = tree._admits, tree._asked
    calls, asked = [0], []

    def counted(u):
        calls[0] += 1
        return predicate(u)

    def walked(parent, u):  # the walk's verdict on each stem it pops
        node = verdict(parent, u)
        asked.append((u, node.verdict))
        return node

    tree._admits, tree._asked = counted, walked
    for count in range(1, 9):
        codes = enumerate_distinct(fam, count, 100_000)
    assert codes == [0, 27, 104, 527, 2484, 9869, 33152, 96579]
    admissible = sum(v for _, v in asked)
    assert admissible == 446  # stems to length 438
    # each call resumes the frontier and the codes the calls before it left,
    # so no stem is popped twice; walking from the root on each call pops
    # 2,971 times for 1,351 stems
    assert len({u for u, _ in asked}) == len(asked) == 1351
    # the predicate sees each stem at most once, and the walk pops only the
    # root and the children below the cap of admissible stems: 2 of them for
    # most stems here, and 447 for the root (the code of (k) is
    # 1 + k(k+1)/2), which is about one more per admissible stem, as a stem of
    # length n has a code of at least n(n-1)/2; so at most 4 per admissible
    # stem (1,337 calls)
    assert calls[0] <= 4 * admissible, (calls[0], admissible)


def _first_bit_verify(monkeypatch, tmp_path, bounds):
    """(exit code, FAIL lines, predicate calls) of `clopen verify` on
    witness-first-bit at the bounds."""
    doc = copy.deepcopy(CATALOG["witness-first-bit"])
    doc["bounds"] = bounds
    path = tmp_path / "first-bit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with monkeypatch.context() as patch, contextlib.redirect_stdout(out):
        calls = _counted_predicates(patch)
        code = main(["verify", "--instance", str(path)])
    return code, [line for line in out.getvalue().splitlines() if line.startswith("FAIL")], calls[0]


def test_verify_without_an_enumeration_cap_walks_only_the_stems_below_it(monkeypatch, tmp_path):
    # no enumeration_cap, so 100,000 applies; side c holds one point below
    # it, so the enumerations of interleave and code-vs-sum run to the cap
    code, fails, calls = _first_bit_verify(monkeypatch, tmp_path, {"table_size": 4, "depth": 2})
    short = "InsufficientDensePoints: found 1 distinct dense points of 2 wanted"
    assert (code, fails) == (1, [f"FAIL code-vs-sum  {short} (codes < 100000)",
                                 f"FAIL interleave  {short} (codes < 100000)"])
    _, _, calls_at_1000 = _first_bit_verify(
        monkeypatch, tmp_path, {"table_size": 4, "depth": 2, "enumeration_cap": 1000})
    # the cap enters only through side c's walk, which asks its admissible
    # stems below the cap, one a length and fewer than sqrt(2 cap) of them, as
    # a stem of length n has a code of at least n(n-1)/2, and their children
    # below it: fewer than sqrt(2 cap) for the root, and at most one more for
    # each other stem here.  So raising the cap to 100,000 adds fewer than
    # 3 sqrt(2 cap) = 1,341 predicate calls (597 here)
    assert calls - calls_at_1000 < 3 * isqrt(2 * 100_000), (calls, calls_at_1000)
