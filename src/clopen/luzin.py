"""Clopen refining schemes on zero-dimensional spaces and the induced embedding.

A zero-dimensional presentation supplies a dense family with an exact
rational distance oracle bounded by 1, plus exactly decidable membership of
instance points in rational balls around dense points.  The scheme assigns
to every finite sequence of dense indices a cell:

    root cell       = the whole space
    ball stage      B_(s,k) = B_s intersect ball(r_k, 1/(2^(len(s)+2) + 1)),
                     provided r_k lies in B_s, else empty
    disjoint stage  A_(s,k) = (B_(s,k) minus the earlier B_(s,i), i < k)
                     intersect A_s

Cells on one level are pairwise disjoint, refine their parents, and have
diameter below 2^-level, so reading off the unique cell indices of a point
embeds the space into Baire space.  A point's cell index below A_s is its
least ball index, the least k with the point in B_(s,k), so the scheme keeps
one path of least indices per point.  That path never descends: an index k
below the point's index p on one level fails on the next level too, since
either the point is at least the old radius from r_k, and radii shrink, or
r_k lies outside the old stage, which every longer stage requires.  So the
search on each level starts at the parent's index.  Indices are searched up
to a witness bound, the honest computable stand-in for an existential the
source construction leaves at limit level two: a point with no ball index
within the bound has no cell on that level, and a cell with an entry above
the bound holds no point.

Ball memberships at fixed radii are clopen only for ultrametric distances,
which is why the catalog keeps to two-symbol sequence spaces, closed subsets
of Baire space, and finite discrete spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import ceil
from typing import Any, Callable, Optional

from .baire import BairePoint, branch, disagreement_distance, eventually_periodic, exact_distance
from .trees import DensePointFamily, PrunedTree, dense_pn_distance


class CellSearchExhausted(Exception):
    def __init__(self, depth: int, bound: int):
        self.depth, self.bound = depth, bound
        super().__init__(f"no child cell contains the point at depth {depth} (bound {bound})")


def rescale(dist: Callable[..., Fraction]) -> Callable[..., Fraction]:
    """Turn a distance oracle d into d / (1 + d), exact on rationals.

    The rescaled oracle is bounded by 1, strictly below 1 on finite values,
    and preserves the ultrametric inequality.  For d = p/q in lowest terms the
    value is p/(p + q), again in lowest terms, since gcd(p, p + q) = gcd(p, q).
    """

    def scaled(*args) -> Fraction:
        d = dist(*args)
        p = d.numerator
        return Fraction(p, p + d.denominator)

    return scaled


@dataclass(frozen=True)
class ZeroDimPresentation:
    """A presented space: dense points with exact distance comparisons.

    dense_point    -- index -> point handle; handles must be hashable, and the
                      same index must give the same handle on every call, so
                      the scheme's memos keyed by handle are hit again
    dist           -- exact distance on dense indices
    dist_to_dense  -- exact distance from a point handle to r_i
    witness_bound  -- scan ceiling for dense witnesses in a cell
    """

    name: str
    dense_point: Callable[[int], Any]
    dist: Callable[[int, int], Fraction]
    dist_to_dense: Callable[[Any, int], Fraction]
    witness_bound: int

    def ball_member(self, x: Any, i: int, radius: Fraction) -> bool:
        """Exactly decide d(x, r_i) < radius."""
        return self.dist_to_dense(x, i) < radius


class LuzinScheme:
    """The refining clopen cell family over a presentation.

    Each point handle has one path, its cell index on each level: the least
    i <= witness_bound with the point in B_(path + (i,)).  Cell membership,
    the embedding and the image tree all read it.
    """

    def __init__(self, presentation: ZeroDimPresentation):
        self.presentation = presentation
        self._ball: dict[tuple[Any, tuple[int, ...]], bool] = {}
        self._paths: dict[Any, list[Optional[int]]] = {}
        # the ball radius below a parent of length n, built as levels are reached
        self._radii: list[Fraction] = []

    def ball_stage(self, x: Any, cell: tuple[int, ...]) -> bool:
        """Membership in the undisjointified stage B_cell."""
        if not cell:
            return True
        key = (x, cell)
        memo = self._ball
        v = memo.get(key)
        if v is not None:
            return v
        parent, k = cell[:-1], cell[-1]
        radii = self._radii
        while len(radii) <= len(parent):
            radii.append(Fraction(1, 2 ** (len(radii) + 2) + 1))
        pres = self.presentation
        v = (self.ball_stage(x, parent)
             and pres.ball_member(x, k, radii[len(parent)])
             and self.ball_stage(pres.dense_point(k), parent))
        memo[key] = v
        return v

    def _index(self, x: Any, level: int) -> Optional[int]:
        """x's cell index on a level; None from the first level without one.

        The search on level L + 1 starts at the level-L index p, since no
        i < p can qualify there.  On level L, i failed because d(x, r_i) is
        at least that level's radius, which exceeds the next one, or because
        r_i is not in B_(path[:L]), which B_(path[:L+1] + (i,)) requires.
        """
        path = self._paths.setdefault(x, [])
        while len(path) <= level and (not path or path[-1] is not None):
            path.append(next((i for i in range(path[-1] if path else 0,
                                               self.presentation.witness_bound + 1)
                              if self.ball_stage(x, (*path, i))), None))
        return path[level] if level < len(path) else None

    def cell_member_seq(self, x: Any, cell: tuple[int, ...]) -> bool:
        """Membership in the disjointified cell A_cell: x's path starts with cell."""
        return all(self._index(x, n) == k for n, k in enumerate(cell))

    def embed(self, x: Any) -> BairePoint:
        """The point reading off x's path, its cell index on each level."""

        def index(prefix: list[int]) -> int:
            i = self._index(x, len(prefix))
            if i is None:
                raise CellSearchExhausted(len(prefix), self.presentation.witness_bound)
            return i

        return branch(index)

    def image_tree(self) -> PrunedTree:
        """The tree of the embedded image: a cell of length n is a node when it
        is the length-n prefix of the path of a dense point i <= witness_bound.
        Each level's prefixes are collected once, the first time a cell of
        that length is asked; a cell with an entry above the bound is none."""
        pres = self.presentation
        bound = pres.witness_bound
        levels = [{()} if bound >= 0 else set()]

        def admits(cell: tuple[int, ...]) -> bool:
            while len(levels) <= len(cell):
                n = len(levels)
                handles = map(pres.dense_point, range(bound + 1))
                levels.append({tuple(self._paths[x][:n]) for x in handles
                               if self._index(x, n - 1) is not None})
            return cell in levels[len(cell)]

        return PrunedTree(admits, lambda cell: bound, label=f"image[{pres.name}]")


def split_level(delta: Fraction) -> int:
    """The least depth n with 1/2^n <= delta, for delta > 0: cells of depth n
    have diameter below 1/2^n, so no such cell holds two points delta apart."""
    return (ceil(1 / delta) - 1).bit_length()


# --- presentation catalog ----------------------------------------------------

def _bit_distance(i: int, j: int) -> Fraction:
    """Distance of the dense points r_i, r_j whose entries are the bits of i, j:
    they first disagree at the lowest bit where i and j differ."""
    x = i ^ j
    return disagreement_distance((x & -x).bit_length() - 1 if x else None)


def cantor_presentation(witness_bound: int) -> ZeroDimPresentation:
    """The two-symbol sequence space with the rescaled first-disagreement metric.

    Dense point i is the finite-support point whose k-th entry is bit k of i,
    an injective enumeration; instance points are any eventually periodic
    two-symbol points.  The rescale keeps every distance at most 1/2, so all
    diameters are strictly below the level bounds, root included.
    """

    points: dict[int, BairePoint] = {}

    def dense_point(i: int) -> BairePoint:
        pt = points.get(i)
        if pt is None:
            bits = tuple((i >> k) & 1 for k in range(i.bit_length()))
            pt = points[i] = eventually_periodic(bits, (0,))
        return pt

    return ZeroDimPresentation(
        "cantor", dense_point, dist=rescale(_bit_distance),
        dist_to_dense=rescale(lambda x, i: exact_distance(x, dense_point(i))),
        witness_bound=witness_bound)


def discrete_presentation(n: int) -> ZeroDimPresentation:
    """n isolated points with the rescaled two-valued metric."""
    if n < 1:
        raise ValueError("need at least one point")

    def dist_to_dense(x: int, i: int) -> Fraction:
        return Fraction(0) if x == i % n else Fraction(1)

    return ZeroDimPresentation(
        f"discrete-{n}", lambda i: i % n, dist=rescale(lambda i, j: dist_to_dense(i % n, j)),
        dist_to_dense=rescale(dist_to_dense), witness_bound=n)


def baire_closed_presentation(fam: DensePointFamily,
                              witness_bound: int = 64) -> ZeroDimPresentation:
    """A closed subset of Baire space, presented through its dense family.

    Point handles are dense-family codes, so every distance reduces to the
    exactly decidable comparisons of the family; the metric is the rescaled
    first-disagreement distance.
    """
    dist = rescale(partial(dense_pn_distance, fam))
    return ZeroDimPresentation(f"closed[{fam.tree.label}]", lambda i: i, dist,
                               dist_to_dense=dist, witness_bound=witness_bound)
