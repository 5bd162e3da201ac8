import random
from fractions import Fraction

import pytest

from clopen.baire import (BairePoint, branch, disagreement_distance, eventually_periodic,
                          exact_distance, first_disagreement, pair_points, slice_point)
from clopen.coding import encode, pair_code


def test_query_and_memo():
    calls = []

    def rule(n):
        calls.append(n)
        return n % 2

    p = BairePoint(rule)
    assert p.prefix(4) == (0, 1, 0, 1)
    # a stored prefix is never recomputed, by a query or by a slice
    assert [p(3), p(0), p(3)] == [1, 0, 1]
    assert p.prefix(4) == (0, 1, 0, 1)
    assert p.prefix(2) == (0, 1)
    assert calls == [0, 1, 2, 3]


def test_far_query_runs_the_rule_once():
    calls = []

    def rule(n):
        calls.append(n)
        return n % 2

    p = BairePoint(rule)
    assert p(10 ** 9) == 0
    assert calls == [10 ** 9]
    # the far value was not stored, and filled nothing before it
    assert p.prefix(3) == (0, 1, 0)
    assert calls == [10 ** 9, 0, 1, 2]


def test_pair_points_far_position():
    g = pair_points(eventually_periodic((), (0,)), eventually_periodic((), (1, 2)))
    assert g(pair_code(1, 10 ** 6)) == 1
    assert g(pair_code(0, 10 ** 6)) == 0


def test_branch_follows_stem_then_steps():
    seen = []

    def step(prefix):
        seen.append(tuple(prefix))  # the point's own list, read at each call
        return len(prefix)

    p = branch(step, stem=(7, 7), tail_hint=(2, 1))
    assert p.prefix(5) == (7, 7, 2, 3, 4)
    assert p(1) == 7 and p(4) == 4
    assert seen == [(7, 7), (7, 7, 2), (7, 7, 2, 3)]
    assert p.tail_hint == (2, 1)


def test_constant_point():
    z = eventually_periodic((), (0,))
    assert z(17) == 0
    assert z.tail_hint == (0, 1)


def test_distance_examples():
    a = eventually_periodic((), (0,))
    b = eventually_periodic((0, 1), (0,))
    assert disagreement_distance(first_disagreement(a, b, 10)) == Fraction(1, 2)
    c = eventually_periodic((1,), (0,))
    assert disagreement_distance(first_disagreement(a, c, 10)) == Fraction(1)
    assert first_disagreement(a, eventually_periodic((), (0,)), 4) is None


def test_below_threshold_holds_when_the_disagreement_is_at_the_budget():
    a = eventually_periodic((), (0,))
    b = eventually_periodic((0, 0, 0, 0, 1), (0,))  # first disagreement at position 4
    assert exact_distance(a, b) == Fraction(1, 5)
    # no disagreement below the budget puts the distance below 1/budget
    for budget in range(1, 5):
        assert first_disagreement(a, b, budget) is None
        assert exact_distance(a, b) < Fraction(1, budget)


def test_first_disagreement_bounds():
    zeros = eventually_periodic((), (0,))
    calls = []
    late = BairePoint(lambda n: calls.append(n) or (1 if n == 4 else 0))
    # bound 0 reads nothing and finds no disagreement
    assert first_disagreement(zeros, late, 0) is None
    assert calls == []
    # a disagreement at position bound - 1 is found; one at bound is not
    assert first_disagreement(zeros, late, 5) == 4
    assert first_disagreement(zeros, BairePoint(lambda n: 1 if n == 5 else 0), 5) is None
    # agreeing points read 0 at every bound, and the scan stops at the bound
    assert first_disagreement(zeros, eventually_periodic((), (0,)), 7) is None
    assert calls == [0, 1, 2, 3, 4]


def _stored_point(stem, tail=0):
    """A point with stem stored; past it, the rule gives tail and records
    each position it computes."""
    computed = []

    def step(prefix):
        computed.append(len(prefix))
        return tail

    return branch(step, stem=stem), computed


def test_first_disagreement_compares_stored_values_without_rule_calls():
    a, a_calls = _stored_point((0, 1, 2, 3, 4, 5))
    # a disagreement inside both stored parts
    c, c_calls = _stored_point((0, 1, 9, 3))
    assert first_disagreement(a, c, 10) == 2
    # a bound shorter than both stored parts hides a disagreement at k >= bound
    d, d_calls = _stored_point((0, 1, 2, 7, 4))
    assert first_disagreement(a, d, 3) is None
    assert first_disagreement(a, d, 4) == 3
    assert first_disagreement(a, a, 6) is None
    assert a_calls == c_calls == d_calls == []


def test_first_disagreement_scans_past_the_shorter_stored_part():
    a, a_calls = _stored_point((0, 1, 2, 3, 4, 5))
    b, b_calls = _stored_point((0, 1))
    # b agrees with a on its stored part, then its tail 0 meets a(2) = 2
    assert first_disagreement(a, b, 10) == 2
    assert first_disagreement(b, a, 10) == 2
    assert a_calls == [] and b_calls == [2]
    # equal stems: the disagreement lies beyond both stored parts
    x, x_calls = _stored_point((0, 0), tail=0)
    y, y_calls = _stored_point((0, 0), tail=1)
    assert first_disagreement(x, y, 10) == 2
    assert x_calls == y_calls == [2]


def test_first_disagreement_at_bound_minus_one_and_nowhere():
    x, x_calls = _stored_point((0, 0, 0), tail=0)
    y, y_calls = _stored_point((0, 0, 0), tail=1)
    assert first_disagreement(x, y, 3) is None
    assert x_calls == y_calls == []
    assert first_disagreement(x, y, 4) == 3
    assert x_calls == y_calls == [3]
    z, z_calls = _stored_point((0,), tail=0)
    assert first_disagreement(x, z, 6) is None
    assert x_calls == [3, 4, 5] and z_calls == [1, 2, 3, 4, 5]


def test_first_disagreement_never_calls_a_rule_past_the_disagreement():
    def rule(n):  # like an image embedding past its depth
        if n > 4:
            raise IndexError(n)
        return 0

    other = eventually_periodic((0, 0, 1), (0,))
    assert first_disagreement(BairePoint(rule), other, 100) == 2
    assert first_disagreement(other, BairePoint(rule), 100) == 2
    stored = BairePoint(rule)
    assert stored.prefix(4) == (0, 0, 0, 0)
    assert first_disagreement(stored, other, 100) == 2
    with pytest.raises(IndexError):
        first_disagreement(BairePoint(rule), eventually_periodic((), (0,)), 100)


class _SliceCounting(list):
    """A stored prefix that counts the slices taken of it."""

    slices = 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            _SliceCounting.slices += 1
        return super().__getitem__(i)


def _counted_point(stored, tail):
    """A point holding stored as a slice-counting prefix; past it the value at
    n is tail(n), and each computed position is recorded."""
    computed = []
    point = BairePoint(lambda n: computed.append(n) or tail(n))
    point._prefix = _SliceCounting(stored)
    return point, computed


def _scan(a, b, bound):
    """first_disagreement with the number of stored-prefix slices it took."""
    _SliceCounting.slices = 0
    return first_disagreement(a, b, bound), _SliceCounting.slices


def test_first_disagreement_on_one_shared_list_slices_nothing():
    stored = [0, 1, 2, 3, 4, 5]
    for bound, grown in ((4, []), (6, []), (9, [6, 7, 8])):
        a, computed = _counted_point(stored, lambda n: n)
        b = BairePoint(a._rule)
        b._prefix = a._prefix
        assert _scan(a, b, bound) == (None, 0)
        assert _scan(a, a, bound) == (None, 0)
        # a self-scan grows the point to the bound, one rule call a position
        assert computed == grown and a._prefix == list(range(max(bound, 6)))


@pytest.mark.parametrize("bound,want", [(3, None), (4, None), (5, 4), (6, 4), (9, 4)])
def test_first_disagreement_on_equal_stored_lengths_slices_nothing(bound, want):
    # stored lengths 6 against bounds below, at and above them; the lists
    # differ at 4 only, and the tails at 7 only
    a, a_computed = _counted_point([0, 1, 2, 3, 4, 5], lambda n: 0)
    b, b_computed = _counted_point([0, 1, 2, 3, 9, 5], lambda n: 0)
    assert _scan(a, b, bound) == (want, 0)
    assert _scan(b, a, bound) == (want, 0)
    assert a_computed == b_computed == []
    c, c_computed = _counted_point([0, 1, 2, 3, 4, 5], lambda n: 1 if n == 7 else 0)
    assert _scan(a, c, bound) == ((7 if bound > 7 else None), 0)
    assert a_computed == c_computed == list(range(6, min(bound, 8)))


@pytest.mark.parametrize("split", [1, 3, 4, 6])
@pytest.mark.parametrize("bound", [2, 4, 5, 7, 12])
def test_first_disagreement_on_unequal_stored_lengths_slices_the_longer_once(split, bound):
    # the shorter list holds 4 values; the points first differ at split:
    # inside it (1), at its last value (3), at its end (4) and past it (6)
    values = [10 * n for n in range(12)]
    longer = values[:8]
    other = values[:split] + [-1] + values[split + 1:]
    for shorter_first in (True, False):
        a, a_computed = _counted_point(other[:4], lambda n: other[n])
        b, b_computed = _counted_point(longer, lambda n: values[n])
        got = _scan(a, b, bound) if shorter_first else _scan(b, a, bound)
        assert got == ((split if split < bound else None), 1)
        # only the shorter point computes, up to the disagreement or the bound
        assert a_computed == list(range(4, min(split + 1, bound)))
        assert b_computed == []


def test_first_disagreement_agrees_with_a_plain_scan():
    rng = random.Random(25)
    for _ in range(2000):
        pick = rng.randrange(8)
        values = [[rng.randrange(2) for _ in range(16)] for _ in range(2)]
        lengths = [rng.randrange(12) for _ in range(2)]
        bound = rng.randrange(14)
        want = next((k for k in range(bound) if values[0][k] != values[1][k]), None)
        pa, pb = (BairePoint(lambda n, v=v: v[n]) for v in values)
        pa._prefix, pb._prefix = (v[:n] for v, n in zip(values, lengths))
        if pick == 0:  # one point twice
            pb, want = pa, None
        assert first_disagreement(pa, pb, bound) == want


def test_a_self_scan_raises_where_the_rule_raises():
    def step(vals):
        if len(vals) == 5:
            raise IndexError(5)
        return 0

    point = branch(step, stem=(0, 0))
    assert first_disagreement(point, point, 5) is None
    assert point._prefix == [0] * 5
    for _ in range(2):
        with pytest.raises(IndexError):
            first_disagreement(point, point, 8)
        assert point._prefix == [0] * 5


def test_distance_never_decides_equality():
    # a point against itself agrees below every budget: None, never a claim of 0
    a = eventually_periodic((), (0, 1))
    for budget in (1, 3, 10):
        assert first_disagreement(a, a, budget) is None


def _random_point(rng):
    pre = [rng.randrange(3) for _ in range(rng.randrange(3))]
    period = [rng.randrange(3) for _ in range(rng.randrange(1, 4))]
    return eventually_periodic(pre, period)


def test_distance_symmetry_and_ultrametric():
    rng = random.Random(7)
    for _ in range(1000):
        a, b, c = (_random_point(rng) for _ in range(3))
        kab, kba = first_disagreement(a, b, 64), first_disagreement(b, a, 64)
        assert kab == kba
        kac, kbc = first_disagreement(a, c, 64), first_disagreement(b, c, 64)
        if None not in (kab, kac, kbc):
            vals = sorted(map(disagreement_distance, (kab, kac, kbc)))
            # every side is at most the maximum of the other two, which
            # forces the two largest to coincide
            assert vals[2] == vals[1]
            assert max(vals[0], vals[1]) >= vals[2]


def test_exact_distance_sees_through_representations():
    a = eventually_periodic((0,), (1, 0))
    b = eventually_periodic((), (0, 1))
    assert exact_distance(a, b) == 0
    c = eventually_periodic((), (1, 0))
    assert exact_distance(a, c) == Fraction(1)
    assert exact_distance(b, c) == Fraction(1)


def test_exact_distance_needs_hints():
    with pytest.raises(ValueError):
        exact_distance(BairePoint(lambda n: 0), eventually_periodic((), (0,)))


def test_pair_points_and_slice():
    a = eventually_periodic((), (0, 1))
    b = eventually_periodic((), (2,))
    g = pair_points(a, b)
    for n in range(12):
        assert slice_point(g, 0)(n) == a(n)
        assert slice_point(g, 1)(n) == b(n)
        assert g(pair_code(3, n)) == 0
    # positions that do not code a component pair are zero
    for t in (0, 1, 2, encode((0, 1, 2)), encode((4,))):
        assert g(t) == 0


def test_slice_reads_pair_positions():
    g = BairePoint(lambda t: t + 1)
    for n in range(6):
        assert slice_point(g, 3)(n) == g(pair_code(3, n))


def test_disagreement_distance_is_one_over_k_plus_one():
    assert disagreement_distance(None) == 0
    assert disagreement_distance(None) is disagreement_distance(None)
    for k in range(300):
        assert disagreement_distance(k) == Fraction(1, k + 1)
    for k in (0, 1, 7, 100):
        assert disagreement_distance(k) is disagreement_distance(k)
