import random
import tracemalloc
from collections import Counter
from contextlib import suppress
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest

from clopen.baire import Exact, branch, distance
from clopen import trees
from clopen.coding import decode, encode
from clopen.instances import CATALOG, build_instance, build_tree, builtin_instance
from clopen.trees import (ChildSearchExhausted, DensePointFamily,
                          DownwardClosureViolation, EmptyTreeViolation,
                          InsufficientDensePoints, PrunedTree, PrunednessViolation,
                          constant_tree, cylinder_union_tree, dense_equal, dense_pn_distance,
                          dense_pn_rows, enumerate_distinct, full_baire_tree,
                          full_cantor_tree, iter_admissible, validate_pruned)
from clopen.verify import side_sample_branches
from clopen.witness import MATRIX_CATALOG, pair_tree


def brute_force_leftmost(tree, stem, depth):
    """Independent oracle: extend by scanning children one position at a time."""
    vals = list(stem)
    while len(vals) < depth:
        for k in range(tree.child_bound(tuple(vals)) + 1):
            if tree.admits(tuple(vals) + (k,)):
                vals.append(k)
                break
        else:
            raise AssertionError("oracle found no child")
    return tuple(vals)


def validated(tree, depth=4):
    validate_pruned(tree, depth)
    return tree


def test_validate_full_tree():
    report = validate_pruned(full_baire_tree(), 5)
    assert report.admissible == report.inspected == 5


def test_validate_constant_tree():
    tree = constant_tree(3)
    report = validate_pruned(tree, 4)
    # oracle: admissible nodes are exactly the all-3 stems of length < 4
    assert report.admissible == 4
    assert tree.depth_validated == 4


def test_root_only_tree_is_not_pruned():
    tree = PrunedTree(lambda u: u == (), lambda u: 3, label="tree")
    with pytest.raises(PrunednessViolation) as exc:
        validate_pruned(tree, 3)
    assert exc.value.node == ()


def test_empty_tree_rejected():
    with pytest.raises(EmptyTreeViolation):
        validate_pruned(PrunedTree(lambda u: False, lambda u: 0, label="tree"), 2)


def test_dense_family_of_a_rootless_tree_is_empty_without_recursing():
    # a caller's depth_validated claim on a tree that rejects its root: one
    # predicate call decides it, and no leftmost(0) recurses into itself
    asked = []
    tree = PrunedTree(lambda u: asked.append(u) or False, lambda u: 0, label="tree")
    tree.depth_validated = 1
    with pytest.raises(EmptyTreeViolation):
        DensePointFamily(tree)
    assert asked == [()]


def test_inadmissible_root_with_admissible_child_is_not_empty():
    # the root is dead but (1) is admitted: a closure violation, not an empty tree
    tree = PrunedTree(lambda u: len(u) > 0 and u[0] == 1, lambda u: 1, label="tree")
    with pytest.raises(DownwardClosureViolation):
        validate_pruned(tree, 3)


def test_downward_closure_violation():
    # the zero spine is fine, but (1,0) hangs under the inadmissible (1)
    def admits(u):
        return all(x == 0 for x in u) or (len(u) >= 2 and u[0] == 1)

    tree = PrunedTree(admits, lambda u: 1, label="tree")
    with pytest.raises(DownwardClosureViolation) as exc:
        validate_pruned(tree, 3)
    assert exc.value.node == (1,)
    assert exc.value.k == 0


def test_leftmost_full_tree():
    fam = DensePointFamily(validated(full_baire_tree()))
    assert fam.leftmost(0).prefix(5) == (0, 0, 0, 0, 0)
    assert fam.leftmost(encode((7,))).prefix(5) == (7, 0, 0, 0, 0)


def test_leftmost_constant_tree_matches_oracle():
    tree = validated(constant_tree(3))
    fam = DensePointFamily(tree)
    assert fam.leftmost(0).prefix(6) == brute_force_leftmost(tree, (), 6)
    assert fam.leftmost(0).prefix(6) == (3,) * 6


def test_leftmost_inadmissible_reduces_to_base():
    tree = validated(constant_tree(3))
    fam = DensePointFamily(tree)
    assert fam.tree.node(0)
    assert fam.leftmost(encode((1,))) is fam.leftmost(0)


def test_leftmost_memoizes():
    fam = DensePointFamily(validated(full_cantor_tree()))
    assert fam.leftmost(5) is fam.leftmost(5)


def test_leftmost_searches_each_position_once():
    searched = []
    cantor = full_cantor_tree()
    tree = validated(PrunedTree(cantor.admits, lambda u: searched.append(u) or 1, label="tree"))
    searched.clear()
    stem = (1, 0, 1)
    point = DensePointFamily(tree).leftmost(encode(stem))
    assert point.prefix(12) == stem + (0,) * 9
    assert point.prefix(12) == stem + (0,) * 9
    assert [point(n) for n in range(12)] == list(stem + (0,) * 9)
    # the family searches the rest (1, 0) once to tell that (1, 0, 1) is a
    # least code, and the walk searches each position past the stem once
    assert searched == [stem[:-1]] + [stem + (0,) * k for k in range(12 - len(stem))]


def test_child_search_exhausted_beyond_contract():
    # caller asserts prunedness that does not actually hold
    tree = PrunedTree(lambda u: all(x == 5 for x in u), lambda u: 0, label="tree")
    tree.depth_validated = 1
    fam = DensePointFamily(tree)
    with pytest.raises(ChildSearchExhausted):
        fam.leftmost(0)(0)


def test_dense_equal_cases():
    fam = DensePointFamily(validated(full_cantor_tree()))
    assert dense_equal(fam, encode((0,)), encode((0, 0)))
    assert not dense_equal(fam, encode((0,)), encode((1,)))
    for s in (0, 3, 9, 17):
        assert dense_equal(fam, s, s)


def test_dense_equal_mixed_admissibility():
    fam = DensePointFamily(validated(constant_tree(2)))
    bad = encode((5,))
    assert dense_equal(fam, bad, 0)
    assert dense_equal(fam, bad, encode((7, 7)))
    assert dense_equal(fam, bad, encode((2,)))


def test_first_disagreement_matches_scan():
    fam = DensePointFamily(validated(full_cantor_tree()))
    s, t = encode((0, 1, 1)), encode((0, 1, 0, 1))
    # the distance 1/(i+1) names the least position i where the points differ
    i = dense_pn_distance(fam, s, t).denominator - 1
    a, b = fam.leftmost(s), fam.leftmost(t)
    assert a(i) != b(i)
    assert all(a(j) == b(j) for j in range(i))


def test_dense_distance_relations():
    # the order relations are read off these exact values
    fam = DensePointFamily(validated(full_cantor_tree()))
    s, t = encode((0,)), encode((1,))
    # (0,) and (0, 0) name the same leftmost branch
    assert dense_pn_distance(fam, s, encode((0, 0))) == 0
    # (0,) and (1,) differ at position 0
    assert dense_pn_distance(fam, s, t) == 1
    assert dense_pn_distance(fam, s, s) == 0


def test_dense_distance_agrees_with_budget_oracle():
    for tree in (full_cantor_tree(),
                 cylinder_union_tree([[0, 1], [1]], "cylinders", child_floor=1)):
        fam = DensePointFamily(validated(tree))
        for s in range(60):
            for t in range(60):
                d = dense_pn_distance(fam, s, t)
                res = distance(fam.leftmost(s), fam.leftmost(t), 128)
                if isinstance(res, Exact):
                    assert res.value == d
                else:
                    assert d < res.threshold


def test_leftmost_stays_inside_neighborhood_and_tree():
    tree = validated(cylinder_union_tree([[0, 0], [1, 1]], "cylinders", child_floor=1))
    fam = DensePointFamily(tree)
    for u in iter_admissible(tree, 4):
        point = fam.leftmost(encode(u))
        assert point.prefix(len(u)) == u
        for n in range(9):
            assert tree.admits(point.prefix(n))


def test_enumerate_distinct_orders_and_dedupes():
    fam = DensePointFamily(validated(full_cantor_tree()))
    found = enumerate_distinct(fam, 8, cap=2000)
    assert found == sorted(found)
    for i, s in enumerate(found):
        for t in found[:i]:
            assert not dense_equal(fam, s, t)


def test_enumerate_distinct_insufficient():
    fam = DensePointFamily(validated(constant_tree(1)))
    with pytest.raises(InsufficientDensePoints):
        enumerate_distinct(fam, 2, cap=500)


@pytest.mark.parametrize("seed", range(6))
def test_enumerate_distinct_resumes_the_numeric_scan(seed):
    rng = random.Random(seed)
    fam = DensePointFamily(validated(_random_cylinders(rng)))
    least = [s for s in range(3000) if fam.is_least_code(s)]
    asked, outcomes = [], set()
    for _ in range(16):
        count, cap = rng.randint(0, 40), rng.choice((30, 300, 3000))
        want = [s for s in least if s < cap][:count]
        asked.append((count, cap))
        outcomes.add(len(want) == count)
        if len(want) == count:
            assert enumerate_distinct(fam, count, cap=cap) == want
        else:
            with pytest.raises(InsufficientDensePoints) as exc:
                enumerate_distinct(fam, count, cap=cap)
            assert str(exc.value) == str(InsufficientDensePoints(len(want), count, cap))
    assert outcomes == {True, False}
    calls = []
    fam.is_least_code = lambda s: calls.append(s) or DensePointFamily.is_least_code(fam, s)
    for count, cap in asked:
        try:
            enumerate_distinct(fam, count, cap=cap)
        except InsufficientDensePoints:
            pass
    assert calls == []


def test_enumerate_distinct_keeps_its_scan_when_a_search_raises():
    # past the validated depth, the node (0, 0) has no child within its bound
    # 0, so the least-code test of its admissible child (0, 0, 1) raises
    tree = validated(PrunedTree(lambda u: len(u) < 3 or u[2] != 0,
                                lambda u: 0 if len(u) == 2 else 2, label="tree"), depth=2)
    fam = DensePointFamily(tree)
    bad = encode((0, 0, 1))
    want = [s for s in range(bad) if fam.is_least_code(s)]
    with pytest.raises(ChildSearchExhausted):
        fam.is_least_code(bad)
    for _ in range(2):
        with pytest.raises(ChildSearchExhausted):
            enumerate_distinct(fam, len(want) + 1, cap=bad + 1)
    with pytest.raises(InsufficientDensePoints) as exc:
        enumerate_distinct(fam, len(want) + 1, cap=bad)
    assert (exc.value.found, exc.value.wanted) == (len(want), len(want) + 1)
    assert enumerate_distinct(fam, len(want), cap=bad) == want


def test_tree_error_carries_code():
    # the node, which encode codes; the error keeps no code of its own
    err = PrunednessViolation((1, 2))
    assert err.node == (1, 2)
    assert not hasattr(err, "code")


def test_dense_metric_axioms_exhaustive():
    from clopen.codes import check_metric_axioms

    fam = DensePointFamily(validated(full_cantor_tree()))
    check_metric_axioms(lambda i, j: dense_pn_distance(fam, i, j), 200,
                        equal=lambda i, j: dense_equal(fam, i, j))


# --- the least-code rule against the pairwise comparisons it replaced ----------

def _pairwise_enumerate(fam, count, cap):
    """The first admissible codes not dense_equal to any code kept before."""
    found = []
    for s in range(cap):
        if len(found) == count:
            break
        if fam.tree.node(s) and not any(dense_equal(fam, s, t) for t in found):
            found.append(s)
    return found


def _pairwise_samples(tree, count):
    """Stems a depth-14 walk keeps when it compares each stem with every stem
    kept before.  Two stems name one point when their leftmost branches agree
    to the longer stem's length; the branches come from the scan oracle, as a
    labelled point of a 14-entry stem can carry a code too long to print."""
    kept = []
    for u in iter_admissible(tree, 14):
        if not any(brute_force_leftmost(tree, u, max(len(u), len(v)))
                   == brute_force_leftmost(tree, v, max(len(u), len(v))) for v in kept):
            kept.append(u)
            if len(kept) == count:
                break
    return kept


def _cylinder_prefixes(rng):
    """Seeded cylinder prefixes over 2-5 symbols, and the child floor m - 1."""
    alphabet = rng.randint(2, 5)
    prefixes = [[rng.randrange(alphabet) for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 4))]
    return prefixes, alphabet - 1


def _random_cylinders(rng):
    prefixes, floor = _cylinder_prefixes(rng)
    return cylinder_union_tree(prefixes, "cylinders", child_floor=floor)


def _identity_rule_trees():
    rng = random.Random(8080)
    trees = [(f"cylinders-{i}", _random_cylinders(rng)) for i in range(12)]
    trees.append(("dsl", build_tree({"rule": "dsl", "child_bound": 2,
                                     "node": "all i < len : s(i) <= 2 and (s(i) == 0 or i < 3)"},
                                    "tree", label="dsl")))
    trees.append(("constant-2", constant_tree(2)))
    for name, doc in CATALOG.items():
        if doc["set"]["kind"] == "pi02-pair":
            sp = build_instance(builtin_instance(name)).sum_space
            trees += [(f"{name}:a", sp.part_a.fam.tree), (f"{name}:c", sp.part_c.fam.tree)]
    return trees


@pytest.mark.parametrize("label,tree", [pytest.param(label, tree, id=label)
                                        for label, tree in _identity_rule_trees()])
def test_least_codes_match_the_pairwise_comparisons(label, tree):
    fam = DensePointFamily(validated(tree))
    cap = 400 if label.startswith("witness") else 3000
    want = _pairwise_enumerate(fam, 40, cap)
    if len(want) == 40:
        assert enumerate_distinct(fam, 40, cap=cap) == want
    else:
        with pytest.raises(InsufficientDensePoints) as exc:
            enumerate_distinct(fam, 40, cap=cap)
        assert exc.value.found == len(want)
    assert [s for s in range(cap) if fam.is_least_code(s)][:len(want)] == want
    samples = side_sample_branches(SimpleNamespace(tree=tree, fam=fam), 6)
    assert samples == [fam.leftmost(encode(u)) for u in _pairwise_samples(tree, 6)]


# --- growing branches along the walk trie ---------------------------------------

def _reference_branch(tree, u):
    """The leftmost branch through u, one flat scan of admits per position."""

    def least(vals):
        prefix = tuple(vals)
        bound = tree.child_bound(prefix)
        for k in range(bound + 1):
            if tree.admits(prefix + (k,)):
                return k
        raise ChildSearchExhausted(prefix, f"(bound {bound})")

    return branch(least, stem=u)


_ZERO_TAIL_STEM = (0, 0, 0, 1, 0, 1, 0, 0, 128)  # ROADMAP item 9: no child at position 30


def _walk_trees():
    """(id, tree factory, extra stems) of the trees a walk is compared on:
    seeded cylinder unions, a dsl tree and every catalog pair tree."""
    cases = [(f"cylinders-{seed}", lambda seed=seed: _random_cylinders(random.Random(seed)), ())
             for seed in range(6)]
    cases.append(("dsl", lambda: build_tree(
        {"rule": "dsl", "child_bound": 2,
         "node": "all i < len : s(i) <= 2 and (s(i) == 0 or i < 3)"}, "tree", label="dsl"), ()))
    for name in sorted(MATRIX_CATALOG):
        extra = (_ZERO_TAIL_STEM,) if name == "zero-tail" else ()
        cases.append((f"pairs-{name}",
                      lambda name=name: pair_tree(MATRIX_CATALOG[name](), 1), extra))
    return cases


def _grown(point, length):
    """The first length values of a point, or the search error that stops it."""
    try:
        return point.prefix(length)
    except ChildSearchExhausted as exc:
        return (type(exc), exc.node, str(exc))


@pytest.mark.parametrize("make,extra", [pytest.param(make, extra, id=label)
                                        for label, make, extra in _walk_trees()])
def test_walked_branches_match_the_flat_least_child_search(make, extra):
    tree, twin = validated(make(), 2), validated(make(), 2)
    fam = DensePointFamily(tree)
    stems = list(islice(iter_admissible(tree, 3), 12)) + list(extra)
    for u in stems:
        want = _grown(_reference_branch(twin, u), 300)
        point = fam.leftmost(encode(u))
        assert _grown(point, 300) == want, u
        # a search that raised linked nothing, so it raises again at the same node
        assert _grown(point, 300) == want, u
    if extra:
        assert _grown(fam.leftmost(encode(_ZERO_TAIL_STEM)), 300)[0] is ChildSearchExhausted


def _counting(tree):
    """A copy of the tree whose predicate and step verdict count the stems
    they are asked about, in one counter."""
    asked = Counter()

    def counted(verdict):
        def ask(u):
            asked[u] += 1
            return verdict(u)
        return ask

    copy = PrunedTree(counted(tree._admits), tree.child_bound, tree.label, tree.hint)
    if tree._step_verdict is not None:
        copy._step_verdict = counted(tree._step_verdict)
    return copy, asked


@pytest.mark.parametrize("make,extra", [pytest.param(make, extra, id=label)
                                        for label, make, extra in _walk_trees()])
def test_each_stem_is_asked_once_over_any_mix_of_queries(make, extra):
    tree, asked = _counting(make())
    fam = DensePointFamily(validated(tree, 1))
    stems = list(iter_admissible(validated(make(), 3), 3)) + list(extra)
    queries = [(op, u) for u in stems for op in ("admits", "least_child", "walk")]
    queries += [("admits", u + (k,)) for u in stems for k in range(tree.child_bound(u) + 2)]
    rng = random.Random(17)
    for _ in range(3):
        rng.shuffle(queries)
        for op, u in queries:
            if op == "admits":
                tree.admits(u)
            elif op == "least_child":
                with suppress(ChildSearchExhausted):
                    tree.least_child(u)
            else:
                _grown(fam.leftmost(encode(u)), rng.randrange(len(u), 300))
    assert asked and max(asked.values()) == 1


def test_a_second_branch_along_a_walked_path_asks_nothing():
    asked, bounds = Counter(), Counter()
    cantor = full_cantor_tree()

    def child_bound(u):
        bounds[u] += 1
        return 1

    tree = PrunedTree(lambda u: asked.update([u]) or cantor.admits(u), child_bound,
                      "tree", cantor.hint)
    fam = DensePointFamily(validated(tree, 1))
    first = fam.leftmost(0)
    assert first.prefix(200) == (0,) * 200
    asked.clear()
    bounds.clear()
    second = fam.leftmost(encode((0, 0)))
    # (0, 0) ends in the least child of (0,), which ends in the root's: the
    # code holds the root's entry itself, least stem length 0 included
    assert second is first and fam._entry(encode((0, 0))) is fam._entry(0)
    assert second.prefix(200) == (0,) * 200
    assert sum(asked.values()) == sum(bounds.values()) == 0
    assert dense_equal(fam, 0, encode((0, 0)))


def test_least_child_of_a_walked_stem_asks_nothing():
    base = cylinder_union_tree([[1, 0, 1]], "tree", child_floor=1)
    asked, bounds = Counter(), Counter()

    def child_bound(u):
        bounds[u] += 1
        return base.child_bound(u)

    tree = PrunedTree(lambda u: asked.update([u]) or base.admits(u), child_bound, "tree")
    fam = DensePointFamily(validated(tree))
    assert fam.leftmost(encode((1,))).prefix(8) == (1, 0, 1, 0, 0, 0, 0, 0)
    asked.clear()
    bounds.clear()
    for u, least in (((1,), 0), ((1, 0), 1), ((1, 0, 1, 0, 0), 0)):
        assert tree.least_child(u) == least
    assert sum(asked.values()) == sum(bounds.values()) == 0
    # a stem off the walked path is searched once, and then read from the trie
    for _ in range(2):
        assert tree.least_child((1, 0, 1, 1)) == 0
    assert bounds == {(1, 0, 1, 1): 1}


@pytest.mark.parametrize("admits_first", [True, False], ids=["admits-first", "search-first"])
def test_a_step_verdict_is_asked_only_below_an_admitted_stem(admits_first):
    # cantor-dsl-eq01's complement rejects (2,), and the whole predicate
    # rejects (2, 0) and (2, 1), so (2,) has no child; the step verdict, which
    # rests on its prefix being admitted, reads s(1) <= 1 and s(0) != s(1)
    # and would pass (2, 0)
    tree = builtin_instance("cantor-dsl-eq01").parts[2]
    assert tree._step_verdict((2, 0)) and not tree._admits((2, 0))
    if admits_first:
        assert not tree.admits((2,))
    for _ in range(2):
        with pytest.raises(ChildSearchExhausted):
            tree.least_child((2,))
    # below an admitted stem the walk asks the step verdict, and agrees with
    # a twin that asks only the whole predicate
    counted, asked = _counting(tree)
    steps = Counter()
    step = counted._step_verdict
    counted._step_verdict = lambda u: steps.update([u]) or step(u)
    twin = builtin_instance("cantor-dsl-eq01").parts[2]
    line = _grown(DensePointFamily(validated(counted)).leftmost(encode((0, 1))), 200)
    assert line == _grown(_reference_branch(validated(twin), (0, 1)), 200)
    # the stems to length 4 are in the flat memo from the validation
    assert set(steps) == {line[:n] for n in range(5, 201)} and max(asked.values()) == 1


def _varied_trees():
    """(id, tree factory) of trees whose branches vary along their length: a
    cylinder tree with a long prefix, a dsl tree of alternating 0/1 branches
    and two catalog pair trees."""
    return [
        ("cylinders", lambda: cylinder_union_tree([[2, 0, 1, 3, 1, 2, 0, 3], [1, 1]],
                                                  "cylinders", child_floor=3)),
        ("dsl", lambda: build_tree(
            {"rule": "dsl", "child_bound": 1,
             "node": "all i < len : s(i) <= 1 and (len < i + 2 or s(i) != s(i + 1))"},
            "tree", label="dsl")),
        # a position-local conjunct (1 at the squares, 0 elsewhere) and a rest,
        # so walks past admitted stems ask the step verdict
        ("dsl-step", lambda: build_tree(
            {"rule": "dsl", "child_bound": 1,
             "node": "(all i < len : (s(i) == 0 and not (some j < i + 1 : j * j == i)) "
                     "or (s(i) == 1 and (some j < i + 1 : j * j == i))) "
                     "and (len < 2 or s(0) == s(1))"},
            "tree", label="dsl-step")),
        ("pairs-diagonal", lambda: pair_tree(MATRIX_CATALOG["diagonal"](), 1)),
        ("pairs-first-value-1", lambda: pair_tree(MATRIX_CATALOG["first-value-1"](), 1)),
    ]


@pytest.mark.parametrize("admits_first", [True, False], ids=["admits-first", "walk-first"])
@pytest.mark.parametrize("make", [pytest.param(make, id=label) for label, make in _varied_trees()])
def test_a_deep_stem_reaches_the_predicate_once(make, admits_first):
    # the children of the root branch's length-120 stem, the branch's own
    # among them, are asked through admits deeper than any walk has gone,
    # then a walk passes through them (or the other way round); least_child
    # and admits read the whole line after
    twin = validated(make(), 2)
    line = _grown(_reference_branch(twin, ()), 300)
    tree, asked = _counting(make())
    fam = DensePointFamily(validated(tree, 2))
    deep = [line[:120] + (k,) for k in range(tree.child_bound(line[:120]) + 1)]
    assert line[:121] in deep
    if admits_first:
        assert fam.leftmost(0).prefix(50) == line[:50]
        assert [tree.admits(u) for u in deep] == [twin.admits(u) for u in deep]
        assert all(asked[u] == 1 for u in deep)
    assert fam.leftmost(0).prefix(300) == line
    for n in range(300):
        assert tree.least_child(line[:n]) == line[n]
        assert tree.admits(line[:n + 1])
    for u in deep:
        tree.admits(u)
    assert asked and max(asked.values()) == 1


@pytest.mark.parametrize("make", [pytest.param(make, id=label) for label, make in _varied_trees()])
def test_branches_switching_between_known_and_fresh_nodes_match_the_reference(make):
    # each walk below reads the trie nodes the walks before it searched, then
    # nodes nobody searched: fresh, known, fresh, known, fresh along one line
    # (codes of stems this long are too large to build, so the branches are
    # made as DensePointFamily makes them, from the tree's walk)
    twin = validated(make(), 2)
    tree, asked = _counting(make())
    validated(tree, 2)
    stems = list(iter_admissible(twin, 3))
    for u in (stems[0], stems[-1]):
        line = _grown(_reference_branch(twin, u), 300)
        n = len(u)
        for start, stop in ((n + 80, n + 100), (n + 10, n + 30), (n, 300), (n + 5, 300),
                            (n + 150, 300)):
            point = branch(tree._walk(line[:start]), stem=line[:start])
            assert _grown(point, stop) == line[:stop], (u, start, stop)
        # stems off the walked line, below a walked node
        for k in range(tree.child_bound(line[:n + 3]) + 1):
            v = line[:n + 3] + (k,)
            if v != line[:n + 4] and tree.admits(v):
                want = _grown(_reference_branch(twin, v), 300)
                assert _grown(branch(tree._walk(v), stem=v), 300) == want, v
    assert max(asked.values()) == 1


SHARE_CODES = 80


def _sharing_trees():
    """(id, tree factory, cylinder prefixes and floor or None): seeded
    cylinder unions, the dsl-step tree and two catalog pair trees."""
    cases = []
    for seed in range(4):
        prefixes, floor = _cylinder_prefixes(random.Random(seed))
        cases.append((f"cylinders-{seed}", lambda p=prefixes, f=floor: cylinder_union_tree(
            p, "cylinders", child_floor=f), (prefixes, floor)))
    varied = dict(_varied_trees())
    for label in ("dsl-step", "pairs-diagonal", "pairs-first-value-1"):
        cases.append((label, varied[label], None))
    return cases


def _walked_codes(make, seed):
    """A family whose codes below SHARE_CODES were each grown to 300 in a
    seeded order; the codes whose point another code holds too; and the
    codes whose first 300 values differ from a plain reference walk on a
    twin tree."""
    tree, twin = validated(make(), 2), validated(make(), 2)
    fam = DensePointFamily(tree)
    codes = list(range(SHARE_CODES))
    random.Random(seed).shuffle(codes)
    wrong, refs = [], {}
    for s in codes:
        u = decode(s)
        u = u if twin.admits(u) else ()
        if u not in refs:
            refs[u] = _grown(_reference_branch(twin, u), 300)
        if _grown(fam.leftmost(s), 300) != refs[u]:
            wrong.append(s)
    holders = Counter(id(fam.leftmost(s)) for s in codes)
    shared = [s for s in codes if holders[id(fam.leftmost(s))] > 1]
    return fam, twin, shared, wrong


def _oracle_distance(side, s, t, seq_of_code):
    """The oracle's first-disagreement distance of the dense points s and t
    of a cylinder side: an inadmissible code names the root's branch."""
    u, v = (w if side.admits(w) else () for w in (seq_of_code(s), seq_of_code(t)))
    length = max(len(u), len(v)) + side.max_len + 1
    a, b = side.branch(u, length), side.branch(v, length)
    return next((Fraction(1, k + 1) for k in range(length) if a[k] != b[k]), Fraction(0))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("make,cylinders", [pytest.param(make, cyl, id=label)
                                            for label, make, cyl in _sharing_trees()])
def test_shared_branches_match_the_reference_walk(make, cylinders, seed, oracle):
    fam, _, shared, wrong = _walked_codes(make, seed)
    assert shared and not wrong
    if cylinders is not None:
        side = oracle.CylinderSide(*cylinders)
        for s in range(40):
            for t in range(40):
                assert dense_pn_distance(fam, s, t) == _oracle_distance(
                    side, s, t, oracle.seq_of_code), (s, t)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("make", [pytest.param(make, id=label)
                                  for label, make, _ in _sharing_trees()])
def test_every_code_holds_its_least_codes_entry(make, seed):
    fam, twin, _, _ = _walked_codes(make, seed)
    lines = {}
    for s in range(SHARE_CODES):
        u = decode(s)
        u = u if twin.admits(u) else ()
        lines[s] = _grown(_reference_branch(twin, u), 300)
        # the least code of s's point, by dropping last entries that the
        # reference walk takes from the rest
        while u and _reference_branch(twin, u[:-1])(len(u) - 1) == u[-1]:
            u = u[:-1]
        assert fam._entry(s) is fam._entry(encode(u)), s
    for s in range(SHARE_CODES):
        for t in range(SHARE_CODES):
            assert dense_equal(fam, s, t) == (lines[s] == lines[t]), (s, t)


def test_a_stem_ending_in_a_searched_nonzero_least_child_shares_its_rest():
    # (0,) is off the tree, so the root's least child is 1: (1,) names the
    # root's point, and the family searches the root to tell, so (1,) takes
    # the root's entry whether it or the root is asked first
    for first in (encode((1,)), 0):
        fam = DensePointFamily(validated(cylinder_union_tree([[1, 0, 1]], "tree",
                                                             child_floor=1)))
        fam.leftmost(first)
        root = fam.leftmost(0)
        assert root.prefix(4) == (1, 0, 1, 0)
        assert fam._entry(encode((1,))) is fam._entry(encode((1, 0))) is fam._entry(0)
        assert fam.leftmost(encode((1, 0, 1, 1))) is not root


@pytest.mark.parametrize("make", [pytest.param(make, id=label)
                                  for label, make, _ in _sharing_trees() if label != "dsl-step"])
def test_sharing_a_stem_that_ends_off_the_least_child_is_caught(monkeypatch, make):
    # the mutant's least child equals every entry, so an admitted stem
    # ending in any other entry takes its rest's entry, which leaves the stem
    # at its last position; a tree with no such stem below the codes cannot
    # tell the mutant apart (dsl-step has one branch, so every stem ends in
    # its rest's only child, and it is left out)
    class Every:
        def __eq__(self, entry):
            return True

    least_child = PrunedTree.least_child
    monkeypatch.setattr(PrunedTree, "least_child", lambda self, prefix: Every())
    _, twin, _, wrong = _walked_codes(make, 0)
    off = {s for s in range(1, SHARE_CODES) if twin.admits(decode(s))
           and decode(s)[-1] != least_child(twin, decode(s)[:-1])}
    assert off <= set(wrong) and bool(off) == bool(wrong)


def test_a_long_walk_keeps_no_prefix_tuples():
    fam = DensePointFamily(validated(cylinder_union_tree([[1, 0, 1]], "tree", child_floor=1)))
    point = fam.leftmost(encode((1,)))
    tracemalloc.start()
    try:
        point.prefix(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert point.prefix(4) == (1, 0, 1, 0)
    assert peak < 2 ** 20


# --- dense_pn_rows: every distance of a code list at once ----------------------

def _split_pair(rng):
    """A seeded cylinder tree-pair: the cylinder of a word over m symbols and
    the cylinders of its siblings."""
    m = rng.randint(2, 5)
    word = [rng.randrange(m) for _ in range(rng.randint(1, 2))]
    siblings = [word[:i] + [c] for i in range(len(word)) for c in range(m) if c != word[i]]
    return [cylinder_union_tree(p, "side", child_floor=m - 1) for p in ([word], siblings)]


def _dsl_pair(rng):
    """A seeded dsl tree-pair over m symbols: s(p) == s(q) and s(p) != s(q)."""
    m, p = rng.randint(2, 3), rng.randint(0, 2)
    q = rng.randint(p + 1, 3)
    return [build_tree({"rule": "dsl", "child_bound": m - 1,
                        "node": f"(all i < len : s(i) <= {m - 1}) and "
                                f"(len < {q + 1} or s({p}) {op} s({q}))"}, "tree", label=op)
            for op in ("==", "!=")]


@pytest.mark.parametrize("make", [_split_pair, _dsl_pair])
@pytest.mark.parametrize("seed", range(8))
def test_dense_pn_rows_match_the_pair_rule(make, seed):
    # K = 16 to 128 interleaved entries, K/2 distinct points a side; the
    # reference runs on a family of its own, so it reads no branch the rows grew
    count = (16, 32, 64, 128)[seed % 4] // 2
    for tree in make(random.Random(seed)):
        fam = DensePointFamily(validated(tree))
        codes = enumerate_distinct(fam, count, cap=1 << 13)
        rows = dense_pn_rows(fam, codes)
        ref = DensePointFamily(tree)
        assert rows == [[dense_pn_distance(ref, s, t) for t in codes] for s in codes]


def test_dense_pn_rows_grow_a_short_stem_against_a_longer_one(monkeypatch):
    # the point of (0,) has stored [0] only; it agrees there with (0, 0, 0, 1),
    # so the first disagreement lies past its stored values and it grows
    fam = DensePointFamily(validated(full_cantor_tree()))
    short, long = encode((0,)), encode((0, 0, 0, 1))
    assert fam.leftmost(short).prefix(1) == (0,) and len(fam.leftmost(short)._prefix) == 1
    asked = []
    real = trees.first_disagreement
    monkeypatch.setattr(trees, "first_disagreement",
                        lambda a, b, bound: asked.append(a is b) or real(a, b, bound))
    assert dense_pn_rows(fam, [short, long]) == [[0, Fraction(1, 4)], [Fraction(1, 4), 0]]
    assert len(fam.leftmost(short)._prefix) == 4
    assert sorted(asked) == [False, False, True, True]  # two grown pairs, two diagonals


def test_dense_pn_rows_diagonal_and_equal_points_are_zero():
    # (0,), (0, 0), the inadmissible (5,), code 0 and (0, 0) again all name
    # 0, 0, 0, ...; an all-false row's argmax is 0, which must not read as a
    # disagreement at 0, and a repeated code's rows differ only in their pads
    fam = DensePointFamily(validated(full_cantor_tree()))
    codes = [encode((0,)), encode((0, 0)), encode((5,)), 0, encode((0, 0)), encode((1,))]
    assert dense_pn_rows(fam, codes) == [[0] * 5 + [1]] * 5 + [[1] * 5 + [0]]
    assert dense_pn_rows(fam, [encode((1, 1))]) == [[0]]
    assert dense_pn_rows(fam, []) == []


def test_dense_pn_rows_relabel_any_natural():
    big = 2 ** 70
    stems = [(), (big,), (big, 1), (big, 0, big), (big + 1,), (0, big), (big, 0, 0, 0, 1)]
    fam = DensePointFamily(validated(full_baire_tree()))
    codes = [encode(u) for u in stems]
    rows = dense_pn_rows(fam, codes)
    ref = DensePointFamily(validated(full_baire_tree()))
    assert rows == [[dense_pn_distance(ref, s, t) for t in codes] for s in codes]
    assert rows[1][2:5] == [Fraction(1, 2), Fraction(1, 3), 1]
    assert rows[1][6] == Fraction(1, 5)
