"""Least-witness closed representations of forall-exists sets.

A set A(a) <-> for all n there is m with R(a, n, m), R decidable, is carried
by the closed relation

    F(a, b) <-> for all n: R(a, n, b(n)) and not R(a, n, k) for k < b(n),

which pairs each member of A with its unique least-witness point.  R must
declare a use bound: the prefix length of the point it may inspect for given
(n, m).  That bound is what makes the witness map's continuity modulus an
explicit, testable number instead of an abstract claim.

Membership in A is only semi-decided here: the witness search runs to a
budget, and exhaustion is an error rather than a negative answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .baire import BairePoint
from .coding import pair_position
from .trees import PrunedTree


class WitnessSearchExhausted(Exception):
    def __init__(self, n: int, budget: int):
        self.n, self.budget = n, budget
        super().__init__(f"no witness for level {n} within budget {budget}")


class UseBoundViolation(Exception):
    pass


@dataclass(frozen=True)
class Pi02Matrix:
    """A decidable matrix R with its declared access bound.

    r(a, n, m) may inspect a only at positions < use_bound(n, m); the guard
    wrapper enforces this when the matrix is evaluated through the library.
    """

    r: Callable[[Callable[[int], int], int, int], bool]
    use_bound: Callable[[int, int], int]
    per_n_budget: int
    label: str

    def check(self, a: BairePoint, n: int, m: int) -> bool:
        limit = self.use_bound(n, m)

        def guarded(i: int) -> int:
            if i >= limit:
                raise UseBoundViolation(
                    f"{self.label}: R({n},{m}) read position {i} >= use bound {limit}")
            return a(i)

        return bool(self.r(guarded, n, m))


class WitnessClosure:
    """The closed least-witness relation of a matrix."""

    def __init__(self, matrix: Pi02Matrix):
        self.matrix = matrix

    def witness_point(self, a: BairePoint) -> BairePoint:
        """The least-witness point of a, computed lazily level by level."""
        matrix = self.matrix

        def rule(n: int) -> int:
            for m in range(matrix.per_n_budget + 1):
                if matrix.check(a, n, m):
                    return m
            raise WitnessSearchExhausted(n, matrix.per_n_budget)

        return BairePoint(rule)

    def check_closure(self, a: BairePoint, b: BairePoint, depth: int) -> bool:
        """Verify the least-witness condition for all levels below depth.

        A refutation at finite depth is conclusive; a pass only certifies the
        inspected levels.
        """
        matrix = self.matrix
        for n in range(depth):
            m = b(n)
            if not matrix.check(a, n, m):
                return False
            if any(matrix.check(a, n, k) for k in range(m)):
                return False
        return True

    def continuity_modulus(self, a: BairePoint, n_levels: int) -> int:
        """Prefix length of a that pins the witness point on [0, n_levels).

        Any point agreeing with a on [0, L) has the same witness values below
        n_levels, because every matrix query involved reads at most L
        positions.
        """
        beta = self.witness_point(a)
        matrix = self.matrix
        bound = 0
        for n in range(n_levels):
            for m in range(beta(n) + 1):
                bound = max(bound, matrix.use_bound(n, m))
        return bound


def pair_tree(matrix: Pi02Matrix, alphabet_bound: int) -> PrunedTree:
    """The tree of paired (point, witness) branches of the closure.

    Branches are pair points: position pair_code(0, i) holds a(i), position
    pair_code(1, n) holds the witness value b(n), and every other position is
    0.  A finite stem is admitted while no conjunct of the least-witness
    condition that it already determines is violated; levels whose witness
    search is refutable from the available prefix alone are rejected too, so
    doomed stems die as early as the information allows.

    alphabet_bound caps the point entries (1 for two-symbol instances); the
    witness entries are capped by the matrix budget.

    The level verdicts are memoised, and the memo is exact.  Whether a level
    n without a placed witness is refuted reads only n and the point entries
    the stem holds: `decided` uses their count and `prefix` raises past it.
    So the verdicts are kept per tuple of point entries, {n: refuted}, and
    every stem holding those entries shares them; without the memo each new
    stem re-checked every level below its length.  A stem is still checked
    in the full scan's order: its entries, then its placed witnesses, then
    its other levels upwards.  A level whose check raises is not stored, so
    a matrix that breaks its use bound raises at the same point every time.
    """
    budget = matrix.per_n_budget
    kinds: list = []  # pair_position(t) for t < len(kinds)
    verdicts: dict[tuple[int, ...], dict[int, bool]] = {}  # point entries -> {n: refuted}

    def admits(stem: tuple[int, ...]) -> bool:
        while len(kinds) < len(stem):
            kinds.append(pair_position(len(kinds)))
        point: list[int] = []  # a(0), a(1), ...: pair_code(0, i) grows with i
        witness: list[int] = []  # b(0), b(1), ...: pair_code(1, n) grows with n
        for kind, v in zip(kinds, stem):
            if kind is None:
                if v != 0:
                    return False
            elif kind[0] == 0:
                if v > alphabet_bound:
                    return False
                point.append(v)
            else:
                if v > budget:
                    return False
                witness.append(v)
        avail = len(point)

        def prefix(i: int) -> int:
            if i >= avail:  # a decided R reads only below its use bound, so below avail
                raise UseBoundViolation(f"{matrix.label}: R read position {i} past its use bound")
            return point[i]

        def decided(n: int, m: int) -> bool:
            return matrix.use_bound(n, m) <= avail

        for n, m in enumerate(witness):
            if decided(n, m) and not matrix.r(prefix, n, m):
                return False
            for k in range(m):
                if decided(n, k) and matrix.r(prefix, n, k):
                    return False
        known = verdicts.setdefault(tuple(point), {})
        for n in range(len(witness), len(stem)):  # the levels without a placed witness
            refuted = known.get(n)
            if refuted is None:
                refuted = known[n] = all(decided(n, m) and not matrix.r(prefix, n, m)
                                         for m in range(budget + 1))
            if refuted:
                return False
        return True

    def child_bound(stem: tuple[int, ...]) -> int:
        kind = pair_position(len(stem))
        if kind is None:
            return 0
        return alphabet_bound if kind[0] == 0 else matrix.per_n_budget

    return PrunedTree(admits, child_bound, label=f"pairs[{matrix.label}]")


# --- matrix catalog ---------------------------------------------------------

def diagonal_matrix() -> Pi02Matrix:
    """R(a, n, m) <-> m = a(n); the witness point is the point itself."""
    return Pi02Matrix(
        r=lambda a, n, m: a(n) == m,
        use_bound=lambda n, m: n + 1,
        per_n_budget=16,
        label="diagonal",
    )


def zero_tail_matrix() -> Pi02Matrix:
    """R(a, n, m) <-> a(n + m) = 0; total exactly on points with 0s cofinally."""
    return Pi02Matrix(
        r=lambda a, n, m: a(n + m) == 0,
        use_bound=lambda n, m: n + m + 1,
        per_n_budget=128,
        label="zero-tail",
    )


def parity_matrix() -> Pi02Matrix:
    """R(a, n, m) <-> m and a(n) have the same parity; witness is a(n) mod 2."""
    return Pi02Matrix(
        r=lambda a, n, m: m % 2 == a(n) % 2,
        use_bound=lambda n, m: n + 1,
        per_n_budget=16,
        label="parity",
    )


def first_value_matrix(value: int) -> Pi02Matrix:
    """R(a, n, m) <-> a(0) = value; describes a depth-one cylinder."""
    return Pi02Matrix(
        r=lambda a, n, m: a(0) == value,
        use_bound=lambda n, m: 1,
        per_n_budget=4,
        label=f"first-value-{value}",
    )


MATRIX_CATALOG: dict[str, Callable[[], Pi02Matrix]] = {
    "diagonal": diagonal_matrix,
    "zero-tail": zero_tail_matrix,
    "parity": parity_matrix,
    "first-value-0": lambda: first_value_matrix(0),
    "first-value-1": lambda: first_value_matrix(1),
}
