"""Points of Baire space as query-able streams that keep their computed prefix.

A point is a total rule position -> natural together with the prefix of
values computed so far, so a repeated query is one list index; points that
grow by a choice rule are built by branch.  Equality of points is only
semi-decidable; every comparison takes an explicit depth budget, scanned by
first_disagreement for a position k, or None when the points agree below the
budget, which never claims they are equal.  disagreement_distance is the one
place k becomes the distance 1/(k+1).
Points that are known to be eventually periodic carry a tail hint, which
makes their pairwise distance exactly computable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Optional, Sequence

from .coding import pair_code, pair_position


class BairePoint:
    """A lazily evaluated infinite sequence of naturals.

    A query past the stored prefix is computed and not stored, so probing a
    far position (a pair code near 10^9) fills nothing before it.

    tail_hint, when present, is a pair (preperiod_len, period_len) promising
    that the sequence is periodic with the given period length from the given
    position on.  The hint is metadata used by exact comparisons; the rule
    itself is always the source of truth.
    """

    __slots__ = ("_rule", "_prefix", "tail_hint")

    def __init__(self, rule: Callable[[int], int], tail_hint: Optional[tuple[int, int]] = None):
        self._rule = rule
        self._prefix: list[int] = []
        self.tail_hint = tail_hint

    def __call__(self, n: int) -> int:
        prefix = self._prefix
        if n < len(prefix):
            return prefix[n]
        v = self._rule(n)
        if n == len(prefix):
            prefix.append(v)
        return v

    def prefix(self, n: int) -> tuple[int, ...]:
        for i in range(len(self._prefix), n):
            self(i)
        return tuple(self._prefix[:n])

    def __repr__(self) -> str:
        shown = ",".join(str(self(i)) for i in range(6))
        return f"<point {shown},...>"


def branch(step: Callable[[list[int]], int], stem: Sequence[int] = (),
           tail_hint: Optional[tuple[int, int]] = None) -> BairePoint:
    """The point that follows stem, then takes step(values so far) at each position.

    step is called once per position, in order, with the point's own list of
    values, which it reads and never changes; copying it is the step's choice.
    The rule grows that list and closes over it, not the point, so a dropped
    branch is freed by reference counting.
    """
    vals = list(stem)

    def rule(n: int) -> int:
        while len(vals) <= n:
            vals.append(step(vals))
        return vals[n]

    pt = BairePoint(rule, tail_hint=tail_hint)
    pt._prefix = vals
    return pt


def eventually_periodic(pre: Sequence[int], period: Sequence[int]) -> BairePoint:
    """The point pre[0], ..., pre[-1], period[0], period[1], ... (repeating)."""
    if not period:
        raise ValueError("period must be nonempty")
    pre_t = tuple(pre)
    per_t = tuple(period)
    np = len(pre_t)
    q = len(per_t)

    def rule(n: int) -> int:
        return pre_t[n] if n < np else per_t[(n - np) % q]

    return BairePoint(rule, tail_hint=(np, q))


def first_disagreement(a: BairePoint, b: BairePoint, bound: int) -> Optional[int]:
    """The least k < bound with a(k) != b(k), or None when the points agree
    below the bound; k may be 0, so callers test the result against None.

    The values both points have stored are read first, as one list compare
    over the shorter stored list, whatever the bound: it slices nothing when
    the lists have one length or are one list, and only the longer list
    otherwise.  A disagreement found there at or past the bound reads as
    None.  Only past the stored values does the scan query the points, one
    position at a time, so a point scanned against itself grows to the
    bound.  No rule is called at a position past the first disagreement or
    at the bound or beyond: some rules (an embedding past its last cell,
    `CellSearchExhausted`) raise there.
    """
    pa, pb = a._prefix, b._prefix
    stored = min(len(pa), len(pb))
    if pa is not pb:
        if len(pa) > stored:
            pa = pa[:stored]
        elif len(pb) > stored:
            pb = pb[:stored]
        if pa != pb:
            k = 0
            while pa[k] == pb[k]:
                k += 1
            return k if k < bound else None
    for k in range(stored, bound):
        if a(k) != b(k):
            return k
    return None


_ZERO = Fraction(0)


@lru_cache(maxsize=256)
def _reciprocal(n: int) -> Fraction:
    return Fraction(1, n)


def disagreement_distance(k: Optional[int]) -> Fraction:
    """The first-disagreement distance for a first disagreement at k: 1/(k+1),
    or 0 for None (no disagreement).  The values are shared Fraction
    constants, 1/(k+1) from a small bounded cache."""
    return _ZERO if k is None else _reciprocal(k + 1)


def exact_distance(a: BairePoint, b: BairePoint) -> Fraction:
    """Exact first-disagreement distance of two eventually periodic points.

    Requires tail hints on both points: the scan bound
    max(preperiods) + lcm(periods) is provably sufficient, so a clean pass
    certifies genuine equality (distance 0).
    """
    if a.tail_hint is None or b.tail_hint is None:
        raise ValueError("exact_distance needs tail hints on both points")
    bound = max(a.tail_hint[0], b.tail_hint[0]) + lcm(a.tail_hint[1], b.tail_hint[1])
    return disagreement_distance(first_disagreement(a, b, bound))


def pair_points(a: BairePoint, b: BairePoint) -> BairePoint:
    """The point g with g(pair_code(0,n)) = a(n), g(pair_code(1,n)) = b(n).

    Positions that do not code a two-entry sequence starting with 0 or 1
    are 0.
    """

    def rule(t: int) -> int:
        pos = pair_position(t)
        if pos is None:
            return 0
        i, n = pos
        return a(n) if i == 0 else b(n)

    return BairePoint(rule)


def slice_point(g: BairePoint, i: int) -> BairePoint:
    """The i-th component of g under the pairing convention."""
    return BairePoint(lambda n: g(pair_code(i, n)))
