"""Bit-exact codes of rational-valued metrics on the naturals.

A metric on the naturals with rational values is coded by the 0/1 point that
holds a 1 exactly at the positions coding a quadruple (i, j, m, n) with
d(i, j) = m/(n+1) -- at every representation of the value, not just the
reduced one, so a decoder that reads the reduced positions alone finds
every value.  Completed, such a code names a complete separable metric
space; the summed space of a re-metrized instance arrives here as the table
remetrize.interleave builds on its two dense families.

Files carry the reduced-fraction table for indices below K plus a tail-rule
descriptor rather than raw code bits: the code is infinite and redundant,
the table is the minimal bit-exact carrier, and any individual bit stays
derivable on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

from .baire import BairePoint
from .coding import quad_code, quad_position


class MalformedCode(Exception):
    pass


class MetricAxiomViolation(Exception):
    def __init__(self, kind: str, where: tuple[int, ...], detail: str = ""):
        self.kind, self.where = kind, where
        super().__init__(f"{kind} fails at {where} {detail}".rstrip())


@dataclass
class RationalMetricTable:
    """A rational-valued metric given as an oracle with a serialized prefix.

    The first K indices are the serialized, axiom-validated prefix and
    tail_rule names how the rest is generated.  Past K, dist is what its
    maker gives: remetrize.interleave continues its two enumerations on
    demand (and raises InsufficientDensePoints past the cap), the catalog
    tables are closed formulas, and a degenerate instance's K 0 table has no
    entry, so its dist raises MalformedCode on every pair.
    """

    dist: Callable[[int, int], Fraction]
    K: int
    tail_rule: str
    label: str

    def rows(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, self.dist(i, j)) for i in range(self.K) for j in range(i, self.K)]


def check_metric_axioms(dist: Callable[[int, int], Fraction], count: int,
                        equal: Optional[Callable[[int, int], bool]] = None) -> None:
    """Exhaustively verify the metric axioms on all index triples below count.

    equal decides which index pairs name the same point (identity on indices
    by default); identity of indiscernibles is checked relative to it.  Each
    value is read once, as its reduced ratio (numerator, denominator), so
    equal values are equal pairs of ints, and the triangle inequality runs
    over integer cross-products: the whole check is exact.  Both d(i, j) and
    d(j, i) are asked for, so symmetry compares two separate answers' ratios.
    """
    num = [[0] * count for _ in range(count)]
    den = [[1] * count for _ in range(count)]
    for i in range(count):
        num_i, den_i = num[i], den[i]
        for j in range(i, count):
            d = dist(i, j)
            p, q = ratio = d.as_integer_ratio()
            if p < 0:
                raise MetricAxiomViolation("nonnegativity", (i, j), f"value {d}")
            if (p == 0) != (i == j if equal is None else equal(i, j)):
                raise MetricAxiomViolation("identity-of-indiscernibles", (i, j),
                                           f"value {d}")
            if i != j and dist(j, i).as_integer_ratio() != ratio:
                raise MetricAxiomViolation("symmetry", (i, j))
            num_i[j] = num[j][i] = p
            den_i[j] = den[j][i] = q
    _check_triangle(num, den, count)


TRIANGLE_BLOCK = 8


def _check_triangle(num: list[list[int]], den: list[list[int]], count: int) -> None:
    """The triangle inequality on a symmetric, nonnegative table that is 0 on
    its diagonal, reporting the first violation (i, j, k) in index order.

    That violation has i < k: d(i, i) = 0 breaks no triangle, and a violation
    at (i, j, k) with i > k mirrors, by symmetry, one at (k, j, i), which
    comes earlier.  So a row i need only be checked against columns k >= i,
    or, a block of rows at a time, k >= the block's first row.  The arrays
    run whenever _triangle_dtype finds a dtype, and the exact loop otherwise."""
    max_num = max((max(row) for row in num), default=0)
    max_den = max((max(row) for row in den), default=0)
    if _triangle_dtype(max_num, max_den) is None:
        _triangle_exact(num, den, count)
    else:
        _triangle_numpy(num, den, count)


def _triangle_dtype(max_num: int, max_den: int):
    """The narrowest of int16, int32 and int64 that holds 2 * max_num * max_den^2,
    the largest value any product or sum of the triangle check reaches, or
    None when int64 does not."""
    import numpy as np

    bound = 2 * max_num * max_den * max_den
    return next((dt for dt in (np.int16, np.int32, np.int64) if np.iinfo(dt).max >= bound), None)


def _triangle_numpy(num: list[list[int]], den: list[list[int]], count: int) -> None:
    """The integer check below on arrays of _triangle_dtype, so no product
    wraps, TRIANGLE_BLOCK values of i at a time against the columns k >= the
    block's first row: memory is O(TRIANGLE_BLOCK * count^2), and blocks run
    in ascending i, so the first violation is the one the exact loop finds.
    A block is searched for its violation only when it holds one."""
    import numpy as np

    p = np.array(num, dtype=np.int64)
    q = np.array(den, dtype=np.int64)
    dtype = _triangle_dtype(int(p.max(initial=0)), int(q.max(initial=0)))
    p, q = p.astype(dtype), q.astype(dtype)
    # three block-sized buffers, reshaped and written in place by every block
    size = min(count, TRIANGLE_BLOCK) * count * count
    bufs = [np.empty(size, dtype=dtype) for _ in range(3)]
    for lo in range(0, count, TRIANGLE_BLOCK):
        p_ij, q_ij = p[lo:lo + TRIANGLE_BLOCK], q[lo:lo + TRIANGLE_BLOCK]
        p_ik, q_ik = p_ij[:, lo:], q_ij[:, lo:]
        p_jk, q_jk = p[:, lo:], q[:, lo:]
        rows, width = len(p_ij), count - lo
        lhs, rhs, tmp = (buf[:rows * count * width].reshape(rows, count, width) for buf in bufs)
        # lhs[i,j,k] = p[i,k] q[i,j] q[j,k], rhs[i,j,k] = (p[i,j] q[j,k] + p[j,k] q[i,j]) q[i,k]
        np.multiply(p_ik[:, None, :], q_ij[:, :, None], out=lhs)
        lhs *= q_jk
        np.multiply(p_ij[:, :, None], q_jk, out=rhs)
        np.multiply(p_jk, q_ij[:, :, None], out=tmp)
        rhs += tmp
        rhs *= q_ik[:, None, :]
        bad = lhs > rhs
        if bad.any():
            i, j, k = (int(v) for v in np.argwhere(bad)[0])
            raise MetricAxiomViolation("triangle", (lo + i, lo + k), f"via {j}")


def _triangle_exact(num: list[list[int]], den: list[list[int]], count: int) -> None:
    # d(i,k) <= d(i,j) + d(j,k), cross-multiplied to integers
    for i in range(count):
        for j in range(count):
            for k in range(count):
                lhs = num[i][k] * den[i][j] * den[j][k]
                rhs = (num[i][j] * den[j][k] + num[j][k] * den[i][j]) * den[i][k]
                if lhs > rhs:
                    raise MetricAxiomViolation("triangle", (i, k), f"via {j}")


def validate_metric_table(table: RationalMetricTable) -> None:
    check_metric_axioms(table.dist, table.K)


def encode_metric(table: RationalMetricTable) -> BairePoint:
    """The lazily evaluated code point of a metric table.

    Position quad_code(i, j, m, n) is 1 exactly when d(i, j) = m/(n+1);
    positions not coding a quadruple are 0.  The rule reads (i, j, m, n) off
    a position with quad_position, then compares d(i, j) with m/(n+1) by
    cross-multiplying: no decode, and no Fraction built.
    """
    dist = table.dist

    def rule(t: int) -> int:
        quad = quad_position(t)
        if quad is None:
            return 0
        i, j, m, n = quad
        p, q = dist(i, j).as_integer_ratio()
        return 1 if p * (n + 1) == m * q else 0

    return BairePoint(rule)


def decode_metric(point: BairePoint, i: int, j: int, window: int) -> Fraction:
    """Read d(i, j) back off a code point.

    Scans the quadruple positions for (i, j) in increasing (m, n) order, m and
    n up to the caller's window, reading only those with m/(n+1) in lowest
    terms, gcd(m, n+1) = 1 (in row m = 0, (0, 0) alone), and returns the value
    of the first set bit; no set bit read is a MalformedCode.

    A code point sets the bit of every representation of d(i, j), and the
    reduced one has the smallest m and n of them, so on every point
    encode_metric builds this returns the value, or raises, as a scan of all
    positions would.  It reads 1 bit for 0, k+2 for 1/(k+1) and window+3 for
    2, where that scan reads 1, window+k+2 and 2*window+3.  On a point that is
    not a metric code, one that sets a non-reduced bit without its reduced
    form, the two can differ: this scan passes such a bit by.
    """
    for m in range(window + 1):
        for n in range(window + 1):
            if gcd(m, n + 1) == 1 and point(quad_code(i, j, m, n)):
                return Fraction(m, n + 1)
    raise MalformedCode(f"no value witnessed for pair ({i},{j}) within window {window}")


# --- file format --------------------------------------------------------------

FORMAT_LINE = "format space-code/1"


def entry_line(i: int, j: int, value: Fraction) -> str:
    """The code file's line of the entry d(i, j): 'i j p/q', p/q reduced."""
    return f"{i} {j} {value.numerator}/{value.denominator}"


def render_code_file(table: RationalMetricTable, instance_id: str) -> str:
    """The canonical textual form of a table's code: header, reduced table,
    tail rule."""
    lines = [FORMAT_LINE, f"instance {instance_id}", f"K {table.K}"]
    lines += [entry_line(*row) for row in table.rows()]
    lines.append(f"tail {table.tail_rule}")
    return "\n".join(lines) + "\n"


def parse_code_file(text: str) -> tuple[str, int, dict[tuple[int, int], Fraction], str]:
    """Parse a rendered code file back into (instance id, K, table, tail rule).

    The entry lines are exactly the pairs i <= j < K in rows() order, each
    once, with d(i, j) >= 0 and 0 exactly when i == j.  A line out of
    render_code_file's layout, or out of this, is a MalformedCode naming it."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_LINE:
        raise MalformedCode("line 1: missing or unknown format line")
    values = []  # lines 2 and 3 and the last, counted from 1
    for n, key in ((2, "instance "), (3, "K "), (max(len(lines), 4), "tail ")):
        if n > len(lines) or not lines[n - 1].startswith(key):
            raise MalformedCode(f"line {n}: expected '{key}...'")
        values.append(lines[n - 1][len(key):].strip())
    instance_id, k_text, tail = values
    try:
        k = int(k_text)
    except ValueError:
        k = -1
    if k < 0:
        raise MalformedCode("line 3: K must be a natural number")
    wi, wj = 0, 0  # the pair the next entry line must hold; wi == k asks for the tail
    entries: dict[tuple[int, int], Fraction] = {}
    parsed: dict[str, tuple[Fraction, int]] = {}  # each distinct value text: value, sign
    for n, line in enumerate(lines[3:-1], start=4):
        try:
            i_s, j_s, frac = line.split()
            i, j, known = int(i_s), int(j_s), parsed.get(frac)
            if known is None:
                p_s, q_s = frac.split("/")
                value = Fraction(int(p_s), int(q_s))
                known = parsed[frac] = value, (value > 0) - (value < 0)
        except (ValueError, ZeroDivisionError):
            raise MalformedCode(f"line {n}: expected an entry 'i j p/q'") from None
        if wi == k:
            raise MalformedCode(f"line {n}: expected the tail line")
        if i != wi or j != wj:
            raise MalformedCode(f"line {n}: expected the entry of pair {(wi, wj)}")
        value, sign = known
        if sign < 0 or (sign == 0) != (i == j):
            raise MalformedCode(f"line {n}: d{(i, j)} = {value} is not a metric value")
        entries[i, j] = value
        wj += 1
        if wj == k:
            wi += 1
            wj = wi
    if wi < k:
        raise MalformedCode(f"line {len(lines)}: expected the entry of pair {(wi, wj)}")
    return instance_id, k, entries, tail


def catalog_table(name: str, k: int) -> RationalMetricTable:
    """Small built-in tables used by tests and the malformed-code paths."""
    if name == "discrete":
        return RationalMetricTable(
            dist=lambda i, j: Fraction(0) if i == j else Fraction(1),
            K=k, tail_rule="discrete", label="discrete")
    if name == "harmonic":
        # d(i, j) = |1/(i+1) - 1/(j+1)| = |j - i|/((i+1)(j+1)): the convergent
        # sequence with its limit gap, one Fraction per entry
        return RationalMetricTable(
            dist=lambda i, j: Fraction(abs(j - i), (i + 1) * (j + 1)),
            K=k, tail_rule="harmonic", label="harmonic")
    raise KeyError(name)
