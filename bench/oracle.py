"""Independent oracle for interleaved tables of cylinder tree-pairs.

Recomputes table entries from an instance's prefixes alone: its own Cantor
unpairing, its own admissibility and leftmost-branch rules, and no import of
the program under test.  Entry (u, v) of the interleaved table is 2 across
sides and 1/(k+1) at the first disagreement k of the two leftmost branches.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def _unpair(z: int) -> tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    a = z - w * (w + 1) // 2
    return a, w - a


def seq_of_code(s: int) -> tuple[int, ...]:
    """The finite sequence with length-tagged iterated-pairing code s."""
    if s == 0:
        return ()
    tag, fold = _unpair(s - 1)
    out = []
    for _ in range(tag):
        head, fold = _unpair(fold)
        out.append(head)
    out.append(fold)
    return tuple(out)


class CylinderSide:
    """One side of a tree-pair: the union of cylinders over its prefixes."""

    def __init__(self, prefixes: list[list[int]], child_floor: int):
        self.prefixes = [tuple(p) for p in prefixes]
        self.child_floor = child_floor
        self.max_len = max(len(p) for p in self.prefixes)

    def admits(self, u: tuple[int, ...]) -> bool:
        return any(u[:len(p)] == p[:len(u)] for p in self.prefixes)

    def branch(self, u: tuple[int, ...], length: int) -> tuple[int, ...]:
        """The first `length` entries of the leftmost branch through stem u."""
        vals = list(u)
        while len(vals) < length:
            stem = tuple(vals)
            bound = max([self.child_floor] + [p[len(stem)] for p in self.prefixes
                                               if len(p) > len(stem)
                                               and p[:len(stem)] == stem])
            vals.append(next(k for k in range(bound + 1) if self.admits(stem + (k,))))
        return tuple(vals[:length])

    def distinct_stems(self, count: int, cap: int) -> list[tuple[int, ...]]:
        """Stems of the first `count` admissible codes naming distinct branches."""
        found: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        for s in range(cap):
            if len(found) == count:
                break
            u = seq_of_code(s)
            if not self.admits(u):
                continue
            # every leftmost branch is constant 0 past its stem and all prefixes
            key = list(self.branch(u, len(u) + self.max_len))
            while key and key[-1] == 0:
                key.pop()
            key = tuple(key)
            if key in seen:
                continue
            seen.add(key)
            found.append(u)
        if len(found) < count:
            raise ValueError(f"only {len(found)} distinct branches below code {cap}")
        return found


class InterleavedOracle:
    """Expected entries of the interleaved table of a cylinder tree-pair."""

    def __init__(self, doc: dict, count: int):
        cap = doc["bounds"].get("enumeration_cap", 100_000)
        sides = []
        for key in ("a", "complement"):
            desc = doc["set"][key]
            sides.append(CylinderSide(desc["prefixes"], desc.get("child_bound", 0)))
        self.sides = sides
        self.stems = (sides[0].distinct_stems((count + 1) // 2, cap),
                      sides[1].distinct_stems(count // 2, cap))

    def entry(self, u: int, v: int) -> Fraction:
        if u % 2 != v % 2:
            return Fraction(2)
        side = self.sides[u % 2]
        su, sv = self.stems[u % 2][u // 2], self.stems[v % 2][v // 2]
        length = max(len(su), len(sv)) + side.max_len + 1
        bu, bv = side.branch(su, length), side.branch(sv, length)
        for k in range(length):
            if bu[k] != bv[k]:
                return Fraction(1, k + 1)
        return Fraction(0)
