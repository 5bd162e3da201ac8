"""Re-metrization by pulling back the branch metric through closed representations.

A set and its complement, each carried injectively by a pruned tree, induce
new side-local metrics: the distance of two points on one side is the
first-disagreement distance of their branches, and points on opposite sides
are at distance 2.  Under the summed metric both sides become clopen, the
topology extends the ambient one, and the presentation relations of the new
space are decided exactly on the interleaved dense family.

Moduli of continuity replace the abstract two-sided continuity claims: each
representation declares how long a branch prefix pins the mapped point to a
requested ambient precision, and conversely.  Certificates computed from
those moduli are checked by sampling, never asserted blindly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from .baire import BairePoint, disagreement_distance, exact_distance, pair_points, slice_point
from .codes import RationalMetricTable
from .coding import pair_code, pair_count, pair_position
from .luzin import rescale
from .trees import (DensePointFamily, PrunedTree, dense_pn_distance, dense_pn_rows,
                    enumerate_distinct, validate_pruned)
from .witness import WitnessClosure, pair_tree

Side = int  # 0 for the designated set, 1 for its complement

CROSS_DISTANCE = Fraction(2)  # the distance between points on opposite sides


class NotInterior(Exception):
    """A dense point does not lie strictly inside the ball it is certified for."""


class CertificateFailure(Exception):
    """A sampled point of the new-metric ball lands outside the ambient ball."""


class OnBoundary(Exception):
    """A point with norm exactly 1: the ball re-metrization formula is singular."""


@dataclass
class ClosedRepresentation:
    """A closed set of branches with an injective map into the ambient space.

    map_point       -- branch point -> ambient point handle
    map_modulus     -- precision index k -> branch prefix length L such that
                       branches agreeing on [0, L) map within 1/(k+1)
    inverse_modulus -- (branch point, k) -> ambient precision index m such
                       that ambient distance < 1/(m+1) forces the branches
                       within 1/(k+1); point-dependent because inverses of
                       injective maps are continuous but not uniformly so
    """

    fam: DensePointFamily
    map_point: Callable[[BairePoint], Any]
    map_modulus: Callable[[int], int]
    inverse_modulus: Callable[[BairePoint, int], int]
    closure: Any = None  # the WitnessClosure behind a witness side; None on an identity side

    def dense_image(self, s: int) -> Any:
        return self.map_point(self.fam.leftmost(s))


def identity_representation(tree: PrunedTree) -> ClosedRepresentation:
    """A closed subset of the ambient sequence space, carried by itself.

    The ambient metric is the rescaled first-disagreement distance, so prefix
    agreement on k+1 positions already lands within 1/(k+2) < 1/(k+1).
    """
    fam = DensePointFamily(tree)
    return ClosedRepresentation(
        fam=fam,
        map_point=lambda branch: branch,
        map_modulus=lambda k: k + 1,
        inverse_modulus=lambda branch, k: k + 1,
    )


@dataclass
class SumSpace:
    """The direct sum of the two pulled-back sides over an ambient space,
    given by its dense family."""

    part_a: ClosedRepresentation
    part_c: ClosedRepresentation
    ambient: DensePointFamily

    def side(self, tag: Side) -> ClosedRepresentation:
        return self.part_a if tag == 0 else self.part_c

    def ambient_distance(self, x: BairePoint, i: int) -> Fraction:
        """The ambient metric, the rescaled first-disagreement distance, from
        an eventually periodic point to the ambient's i-th dense point, its
        leftmost branch: exact when the ambient tree has a periodicity hint."""
        return rescale(exact_distance)(x, self.ambient.leftmost(i))

    @property
    def certifiable(self) -> bool:
        """Whether extension certificates apply: they need exact ambient
        distances of branch points, i.e. identity sides and an ambient tree,
        all with tail hints."""
        return self.ambient.tree.hint is not None and all(
            rep.closure is None and rep.fam.tree.hint is not None
            for rep in (self.part_a, self.part_c))


def sum_distance(sp: SumSpace, p: tuple[Side, int], q: tuple[Side, int]) -> Fraction:
    """2 across the partition; within a side, the first-disagreement distance
    of the side's branches, pulled back to the dense indices."""
    if p[0] != q[0]:
        return CROSS_DISTANCE
    return dense_pn_distance(sp.side(p[0]).fam, p[1], q[1])


def tag_of_index(t: int) -> tuple[Side, int]:
    """Decode an index of the pair-code layout, which the summed-space checks
    range over, into (side, family code).

    Indices coding a pair (i, s) with i in {0, 1} name the s-th dense point
    of side i; every other index falls back to the root's branch (code 0) of
    the set side.
    """
    return pair_position(t) or (0, 0)


def interleaved_tag(sp: SumSpace, u: int, cap: int) -> tuple[Side, int]:
    """The point at index u of the interleaved layout, as (side, family code).

    Even indices are the set side's distinct dense points, odd indices the
    complement side's, each side in increasing code order: index u is side
    u % 2's (u // 2)-th least code below cap, the instance's
    enumeration_cap.  A side with too few such codes raises
    InsufficientDensePoints.
    """
    side, i = u % 2, u // 2
    return side, enumerate_distinct(sp.side(side).fam, i + 1, cap=cap)[i]


def interleave(sp: SumSpace, count: int, cap: int, label: str) -> RationalMetricTable:
    """The summed space's metric on its interleaved dense points
    (interleaved_tag), as a table serialized below count; the tail rule is
    interleave:label.  The table extends past count on demand.

    Below count the table is one count x count label matrix over its distinct
    values: each side's dense_pn_rows labels on that side's entries, renumbered
    into one value list, and CROSS_DISTANCE's label on every cross-side
    entry.  The axiom check, the code file and dist read that matrix, so each
    entry is computed once; d(u, v) comes from row u and d(v, u) from row v,
    so the symmetry check still compares two computations.  The matrix dies
    with the table.  A same-side pair at count or beyond is sum_distance of
    its two points, computed on demand and not kept.  A cross-side pair is
    CROSS_DISTANCE at any index, with no point enumerated.
    """
    import numpy as np

    # one call per side, so a side short of points raises wanting all of them
    codes = [enumerate_distinct(sp.side(side).fam, len(range(side, count, 2)), cap)
             for side in (0, 1)]
    index = {CROSS_DISTANCE: 0}  # each distinct value: its label
    matrix = np.zeros((count, count), dtype=np.intp)  # cross-side until a side's labels land
    for side in (0, 1):
        labels, values = dense_pn_rows(sp.side(side).fam, codes[side])
        renumber = np.array([index.setdefault(d, len(index)) for d in values], dtype=np.intp)
        matrix[side::2, side::2] = renumber[labels]
    values = list(index)

    def dist(u: int, v: int) -> Fraction:
        if u < count and v < count:
            return values[matrix[u, v]]
        if u % 2 != v % 2:
            return CROSS_DISTANCE
        return sum_distance(sp, interleaved_tag(sp, u, cap), interleaved_tag(sp, v, cap))

    return RationalMetricTable(dist=dist, K=count, tail_rule=f"interleave:{label}",
                               label=label, matrix=matrix, values=values)


def epsilon_code(sp: SumSpace) -> BairePoint:
    """The combined 0/1 parameter pairing the two node predicates."""
    char_a = BairePoint(lambda s: 1 if sp.part_a.fam.tree.node(s) else 0)
    char_c = BairePoint(lambda s: 1 if sp.part_c.fam.tree.node(s) else 0)
    return pair_points(char_a, char_c)


def membership_in_a(sp: SumSpace, p: tuple[Side, int]) -> bool:
    """Decide side membership by one ball query against the set's root branch.

    Distances within a side stay at most 1 and the cross distance is 2, so
    the radius-3/2 ball around any set-side point contains exactly the set.
    """
    return sum_distance(sp, (0, 0), p) < Fraction(3, 2)


SAMPLE_CAP = 150


def extension_certificate(sp: SumSpace, side: Side, s: int,
                          center: int, radius: Fraction) -> int:
    """Certify that an ambient ball strictly containing a dense point is a
    new-metric neighborhood of it.

    Returns k such that the new-metric ball of radius 1/(k+1) around the
    point lies inside the ambient ball, derived from the representation's
    declared map modulus at the strict margin.  The certificate is then
    checked by sampling: every dense point of the side with code below
    SAMPLE_CAP that the new ball contains must verifiably lie in the ambient
    ball, at exact-rational precision.
    """
    rep = sp.side(side)
    if sp.ambient.tree.hint is None:
        raise CertificateFailure(f"ambient tree {sp.ambient.tree.label!r} has no "
                                 "periodicity hint, so no exact point distance")
    d0 = sp.ambient_distance(rep.dense_image(s), center)
    if d0 >= radius:
        raise NotInterior(f"point {s} on side {side} is not strictly inside "
                          f"the ball ({d0} >= {radius})")
    margin = radius - d0
    # least precision index whose radius fits inside the margin
    k_target = -(-margin.denominator // margin.numerator) - 1
    prefix_len = rep.map_modulus(max(k_target, 0))
    k_cert = max(prefix_len - 1, 0)
    new_radius = disagreement_distance(k_cert)
    for t in range(SAMPLE_CAP):
        if not rep.fam.tree.node(t):
            continue
        if not dense_pn_distance(rep.fam, t, s) < new_radius:
            continue
        d = sp.ambient_distance(rep.dense_image(t), center)
        if d >= radius:
            raise CertificateFailure(
                f"sampled point {t} at new-distance < 1/{k_cert + 1} of {s} "
                f"lands outside the ambient ball ({d} >= {radius})")
    return k_cert


def certified_ball_list(sp: SumSpace, per_side: int,
                        cap: int) -> list[tuple[int, int, int, Fraction]]:
    """(side, dense code, ambient center, radius) pairs with strict interiors.

    The list is the instance's certified extension catalog, over each side's
    first per_side least codes below cap, the instance's enumeration_cap: for
    each listed pair the certificate must succeed.  Strictness of the interior
    is checked here with exact arithmetic; pairs that are not strictly
    interior are not certifiable and are left out.
    """
    out = []
    for side in (0, 1):
        rep = sp.side(side)
        codes = enumerate_distinct(rep.fam, per_side, cap)
        for s in codes:
            x = rep.dense_image(s)
            for center in range(4):
                d0 = sp.ambient_distance(x, center)
                for radius in (Fraction(1, 2), Fraction(1, 4)):
                    if d0 < radius:
                        out.append((side, s, center, radius))
    return out


def witness_representation(matrix, alphabet_bound: int) -> ClosedRepresentation:
    """A side carried by the paired (point, least-witness) branches of a matrix.

    The map projects a pair branch to its point component; its modulus comes
    from the pairing layout (which pair positions a prefix covers), and the
    inverse modulus combines that layout with the witness map's own
    continuity modulus at the branch.
    """
    tree = pair_tree(matrix, alphabet_bound)
    validate_pruned(tree, 10)
    fam = DensePointFamily(tree)
    closure = WitnessClosure(matrix)

    def map_point(branch: BairePoint) -> BairePoint:
        return slice_point(branch, 0)

    def map_modulus(k: int) -> int:
        if k == 0:
            return 0
        return pair_code(0, k - 1) + 1

    def inverse_modulus(branch: BairePoint, k: int) -> int:
        point_prefix = pair_count(0, k + 1)
        witness_levels = pair_count(1, k + 1)
        alpha = map_point(branch)
        stability = closure.continuity_modulus(alpha, witness_levels)
        return max(point_prefix, stability)

    return ClosedRepresentation(
        fam=fam,
        map_point=map_point,
        map_modulus=map_modulus,
        inverse_modulus=inverse_modulus,
        closure=closure,
    )


# --- direct re-metrization of an open unit ball ------------------------------

def distance_to_sphere(x: Fraction) -> Fraction:
    """Distance from a point of the open unit interval ball to its complement."""
    a = abs(x)
    if a >= 1:
        raise OnBoundary(f"|{x}| >= 1")
    return 1 - a


def open_ball_distance(x: Fraction, y: Fraction) -> Fraction:
    """The completed metric on the open unit ball of the rational line.

    Adds to the base distance the gap of the reciprocal distances to the
    complement, which blows up toward the missing boundary and makes the
    ball complete; exact on rationals and singular exactly on the sphere.
    """
    return abs(x - y) + abs(Fraction(1, distance_to_sphere(x))
                            - Fraction(1, distance_to_sphere(y)))

