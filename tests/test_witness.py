import random
from dataclasses import replace
from functools import partial

import pytest

from clopen.baire import BairePoint, eventually_periodic, slice_point
from clopen.coding import pair_code, pair_count, pair_position
from clopen.instances import build_matrix
from clopen.trees import DensePointFamily, validate_pruned
from clopen.witness import (MATRIX_CATALOG, Pi02Matrix, UseBoundViolation, WitnessClosure,
                            WitnessSearchExhausted, diagonal_matrix,
                            first_value_matrix, pair_tree, parity_matrix,
                            zero_tail_matrix)


def oracle_witness(matrix, a, n):
    """Independent least-m search, straight off the definition."""
    for m in range(matrix.per_n_budget + 1):
        if matrix.r(a, n, m):
            return m
    raise AssertionError("oracle found no witness")


def test_diagonal_witness_is_the_point_itself():
    w = WitnessClosure(diagonal_matrix())
    a = eventually_periodic((3, 1), (0, 2))
    beta = w.witness_point(a)
    assert beta.prefix(10) == a.prefix(10)


def test_zero_tail_witness_matches_oracle():
    matrix = zero_tail_matrix()
    w = WitnessClosure(matrix)
    a = eventually_periodic((), (0, 1))
    beta = w.witness_point(a)
    expected = tuple(oracle_witness(matrix, a, n) for n in range(8))
    assert beta.prefix(8) == expected == (0, 1, 0, 1, 0, 1, 0, 1)


def test_witness_search_exhausted():
    w = WitnessClosure(replace(zero_tail_matrix(), per_n_budget=100))
    ones = eventually_periodic((), (1,))
    with pytest.raises(WitnessSearchExhausted) as exc:
        w.witness_point(ones)(0)
    assert exc.value.n == 0


def test_check_closure_accepts_own_witness():
    for matrix in (diagonal_matrix(), zero_tail_matrix(), parity_matrix()):
        w = WitnessClosure(matrix)
        a = eventually_periodic((1, 0), (0, 1))
        assert w.check_closure(a, w.witness_point(a), 12)


def test_check_closure_refutes_perturbations():
    w = WitnessClosure(zero_tail_matrix())
    a = eventually_periodic((1,), (0, 1))  # witness at level 0 is 1
    beta = w.witness_point(a)
    assert beta(0) == 1
    above = BairePoint(lambda n: beta(n) + 1 if n == 0 else beta(n))
    below = BairePoint(lambda n: beta(n) - 1 if n == 0 else beta(n))
    assert not w.check_closure(a, above, 1)
    assert not w.check_closure(a, below, 1)


def test_continuity_modulus_example():
    w = WitnessClosure(zero_tail_matrix())
    a = eventually_periodic((0, 1), (0,))
    beta = w.witness_point(a)
    assert beta.prefix(2) == (0, 1)
    # bound = max over n < 2, m <= beta(n) of n + m + 1
    assert w.continuity_modulus(a, 2) == 3
    assert w.continuity_modulus(a, 0) == 0


def test_continuity_modulus_soundness():
    rng = random.Random(11)
    w = WitnessClosure(zero_tail_matrix())
    for _ in range(40):
        pre = [rng.randrange(2) for _ in range(rng.randrange(4))]
        a = eventually_periodic(pre, (0,))
        depth = 4
        want = w.witness_point(a).prefix(depth)
        modulus = w.continuity_modulus(a, depth)
        for _ in range(50):
            pos = modulus + rng.randrange(32)
            val = rng.randrange(2)
            moved = BairePoint(lambda i, pos=pos, val=val: val if i == pos else a(i))
            assert w.witness_point(moved).prefix(depth) == want


def test_use_bound_is_enforced():
    cheater = Pi02Matrix(r=lambda a, n, m: a(n + 5) == 0,
                         use_bound=lambda n, m: 1, per_n_budget=4, label="cheater")
    with pytest.raises(UseBoundViolation):
        cheater.check(eventually_periodic((), (0,)), 0, 0)


def test_pair_tree_is_pruned_and_carries_the_closure():
    matrix = first_value_matrix(0)
    tree = pair_tree(matrix, alphabet_bound=1)
    report = validate_pruned(tree, 12)
    assert report.admissible > 0
    fam = DensePointFamily(tree)
    w = WitnessClosure(matrix)
    for s in (0, 27):
        branch = fam.leftmost(s)
        alpha = slice_point(branch, 0)
        beta = slice_point(branch, 1)
        assert alpha(0) == 0
        assert w.check_closure(alpha, beta, 6)


def test_pair_tree_rejects_wrong_first_value_early():
    tree = pair_tree(first_value_matrix(0), alphabet_bound=1)
    # position 3 carries the point's first value; 1 is doomed and dies at once
    assert tree.admits((0, 0, 0, 0))
    assert not tree.admits((0, 0, 0, 1))


def test_pair_tree_diagonal_forces_witness_entries():
    tree = pair_tree(replace(diagonal_matrix(), per_n_budget=4), alphabet_bound=1)
    validate_pruned(tree, 10)
    fam = DensePointFamily(tree)
    branch = fam.leftmost(0)
    alpha, beta = slice_point(branch, 0), slice_point(branch, 1)
    assert beta.prefix(4) == alpha.prefix(4)


def reference_admits(matrix, alphabet_bound, stem):
    """pair_tree's node predicate as a full scan of the stem, without a memo."""
    avail = pair_count(0, len(stem))
    witness_at = {}
    for t, v in enumerate(stem):
        kind = pair_position(t)
        if kind is None:
            if v != 0:
                return False
        elif kind[0] == 0:
            if v > alphabet_bound:
                return False
        else:
            if v > matrix.per_n_budget:
                return False
            witness_at[kind[1]] = v

    def prefix(i):
        if i >= avail:
            raise UseBoundViolation(f"{matrix.label}: R read position {i} past its use bound")
        return stem[pair_code(0, i)]

    def decided(n, m):
        return matrix.use_bound(n, m) <= avail

    for n, m in witness_at.items():
        if decided(n, m) and not matrix.r(prefix, n, m):
            return False
        for k in range(m):
            if decided(n, k) and matrix.r(prefix, n, k):
                return False
    for n in range(len(stem)):
        if n in witness_at:
            continue
        if all(decided(n, m) and not matrix.r(prefix, n, m)
               for m in range(matrix.per_n_budget + 1)):
            return False
    return True


# the fuzz suite's use-bound-lie matrix: r reads a(n + 1) but declares n
USE_BOUND_LIE = {"rule": "dsl", "r": "a(n + 1) == m", "use_bound": "n", "per_n_budget": 1}


def _verdict(admits, stem):
    try:
        return admits(stem)
    except UseBoundViolation as exc:
        return "raises", str(exc)


def _random_walk(rng, admits, matrix, alphabet_bound, length):
    """A seeded walk down the full-scan tree: mostly a random child that is
    admitted or raises, else any entry, a fifth of the time one past its cap."""
    stem = ()
    while len(stem) < length:
        kind = pair_position(len(stem))
        cap = 0 if kind is None else alphabet_bound if kind[0] == 0 else matrix.per_n_budget
        if rng.random() < 0.9:
            open_ = [v for v in range(cap + 1) if _verdict(admits, stem + (v,)) is not False]
            if open_:
                stem += (rng.choice(open_),)
                continue
        stem += (rng.randrange(cap + 2) if rng.random() < 0.2 else rng.randrange(cap + 1),)
    return stem


@pytest.mark.parametrize("name", [*sorted(MATRIX_CATALOG), "use-bound-lie"])
def test_memoised_pair_tree_matches_the_full_scan(name):
    matrix = build_matrix(USE_BOUND_LIE, "set.a") if name == "use-bound-lie" \
        else MATRIX_CATALOG[name]()
    rng = random.Random(f"pairs-{name}")
    outcomes = set()
    for bound in (1, 2):
        tree = pair_tree(matrix, alphabet_bound=bound)
        full_scan = partial(reference_admits, matrix, bound)
        stems = sorted({branch[:k] for _ in range(12)
                        for branch in [_random_walk(rng, full_scan, matrix, bound, 60)]
                        for k in range(61)})
        rng.shuffle(stems)  # the memo is filled in no particular order
        for stem in stems + stems[:40]:  # a raising stem is not cached, and raises again
            want = _verdict(full_scan, stem)
            assert _verdict(tree.admits, stem) == want, (bound, stem)
            outcomes.add(want if isinstance(want, bool) else want[0])
    assert {True, False} <= outcomes
    if name == "use-bound-lie":
        assert "raises" in outcomes


def test_extending_a_pair_tree_branch_calls_the_matrix_linearly_often():
    """The full scan re-checks every level below a stem's length, so a branch
    of length L cost about L^2/2 matrix calls; the level memo leaves a few per
    position."""
    calls = []
    base = first_value_matrix(0)
    counted = replace(base, r=lambda a, n, m: calls.append(n) or base.r(a, n, m))
    tree = pair_tree(counted, alphabet_bound=1)
    stem = ()
    while len(stem) < 256:
        stem += (tree.least_child(stem),)
    assert stem[pair_code(0, 0)] == 0
    assert len(calls) <= 8 * 256


# catalog matrices and their dsl spellings: (name, r, use_bound, per_n_budget)
DSL_TWINS = [
    ("diagonal", "a(n) == m", "n + 1", 16),
    ("zero-tail", "a(n + m) == 0", "n + m + 1", 128),
    ("first-value-0", "a(0) == 0", "1", 4),
    ("first-value-1", "a(0) == 1", "1", 4),
]


def _witness_outcome(matrix, a, levels):
    closure = WitnessClosure(matrix)
    try:
        return closure.witness_point(a).prefix(levels), closure.continuity_modulus(a, levels)
    except WitnessSearchExhausted as exc:
        return "exhausted", exc.n


@pytest.mark.parametrize("name,r,use_bound,budget", DSL_TWINS, ids=[t[0] for t in DSL_TWINS])
def test_a_dsl_matrix_behaves_like_its_catalog_twin(name, r, use_bound, budget):
    catalog = build_matrix({"rule": "catalog", "name": name}, "set.a")
    spelled = build_matrix({"rule": "dsl", "r": r, "use_bound": use_bound,
                            "per_n_budget": budget}, "set.a")
    for a in (eventually_periodic((), (0,)), eventually_periodic((1,), (0,)),
              eventually_periodic((1, 0), (0, 1)), eventually_periodic((0, 2, 1), (1, 0, 0))):
        assert _witness_outcome(spelled, a, 8) == _witness_outcome(catalog, a, 8), a
    # every stem to length 12 within the child bounds: 100 to 2,084 of them
    trees = [pair_tree(matrix, 1) for matrix in (catalog, spelled)]
    stems, verdicts = [()], set()
    for stem in stems:
        want = trees[0].admits(stem)
        assert trees[1].admits(stem) == want, stem
        verdicts.add(want)
        if len(stem) < 12:
            stems += [stem + (v,) for v in range(trees[0].child_bound(stem) + 1)]
    assert verdicts == {True, False} and len(stems) >= 100
