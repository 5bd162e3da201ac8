"""Bit-exact codings of finite sequences.

Every finite sequence of naturals is coded by a single natural through a
length-tagged iterated Cantor pairing:

    encode(())            = 0
    encode(u0, ..., u_{n-1}) = 1 + C(n - 1, C(u0, C(u1, ... C(u_{n-2}, u_{n-1}))))

with C(a, b) = (a + b)(a + b + 1)/2 + a.  The scheme is a bijection between
the naturals and all finite sequences, so every natural decodes; there is no
"non-code" branch.  Codes are a wire format: they appear verbatim in instance
and output files and must never change between releases.

Arbitrary-precision integers are required throughout; codes of short
sequences with small entries stay small, but they grow quickly with length.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Optional, Sequence, Tuple

SeqCode = int


def pair(a: int, b: int) -> int:
    """Cantor pairing C(a, b), a bijection from pairs of naturals to naturals."""
    s = a + b
    return s * (s + 1) // 2 + a


def unpair(z: int) -> Tuple[int, int]:
    """Inverse of pair()."""
    w = (isqrt(8 * z + 1) - 1) // 2
    a = z - w * (w + 1) // 2
    return a, w - a


def encode(u: Sequence[int]) -> SeqCode:
    """Code of a finite sequence of naturals; 0 codes the empty sequence."""
    n = len(u)
    if n == 0:
        return 0
    fold = u[n - 1]
    for i in range(n - 2, -1, -1):
        fold = pair(u[i], fold)
    return 1 + pair(n - 1, fold)


def code_below(u: Sequence[int], cap: int) -> Optional[SeqCode]:
    """encode(u) when it is below cap, else None.

    encode's fold, stopped as soon as a value reaches cap: C(a, b) >= max(a, b)
    and the code exceeds every fold, so a stopped fold never builds the
    doubly exponential code of a long stem."""
    n = len(u)
    if n == 0:
        return 0 if cap > 0 else None
    fold = u[n - 1]
    for i in range(n - 2, -1, -1):
        if fold >= cap:
            return None
        fold = pair(u[i], fold)
    code = 1 + pair(n - 1, fold)
    return code if code < cap else None


@lru_cache(maxsize=1 << 16)
def decode(s: SeqCode) -> Tuple[int, ...]:
    """The sequence coded by s.  Total: every natural is a valid code."""
    if s == 0:
        return ()
    tag, fold = unpair(s - 1)
    out = []
    for _ in range(tag):
        a, fold = unpair(fold)
        out.append(a)
    out.append(fold)
    return tuple(out)


def lh(s: SeqCode) -> int:
    """Length of the sequence coded by s."""
    if s == 0:
        return 0
    return unpair(s - 1)[0] + 1


def pair_code(i: int, n: int) -> SeqCode:
    """Code of the two-entry sequence (i, n)."""
    return 1 + pair(1, pair(i, n))


def pair_position(t: SeqCode) -> Optional[Tuple[int, int]]:
    """(i, n) when t = pair_code(i, n) with i in {0, 1}, else None.

    The tag is unpaired first: only a two-entry code reads its entries.
    """
    if t == 0:
        return None
    tag, fold = unpair(t - 1)
    if tag != 1:
        return None
    i, n = unpair(fold)
    return (i, n) if i <= 1 else None


def pair_count(i: int, length: int) -> int:
    """The number of n with pair_code(i, n) < length: how many entries of
    component i a prefix of that length holds."""
    n = 0
    while pair_code(i, n) < length:
        n += 1
    return n


def quad_code(i: int, j: int, m: int, n: int) -> SeqCode:
    """Code of the four-entry sequence (i, j, m, n): encode's pairings, inline."""
    s = m + n
    z = s * (s + 1) // 2 + m
    s = j + z
    z = s * (s + 1) // 2 + j
    s = i + z
    z = s * (s + 1) // 2 + i
    s = 3 + z
    return 1 + s * (s + 1) // 2 + 3


def quad_position(t: SeqCode) -> Optional[Tuple[int, int, int, int]]:
    """(i, j, m, n) when t = quad_code(i, j, m, n), else None.

    The tag is unpaired first: only a four-entry code reads its entries.
    Each unpairing is unpair's, inline.
    """
    if t == 0:
        return None
    z = t - 1
    w = (isqrt(8 * z + 1) - 1) // 2
    tag = z - w * (w + 1) // 2
    if tag != 3:
        return None
    z = w - 3
    w = (isqrt(8 * z + 1) - 1) // 2
    i = z - w * (w + 1) // 2
    z = w - i
    w = (isqrt(8 * z + 1) - 1) // 2
    j = z - w * (w + 1) // 2
    z = w - j
    w = (isqrt(8 * z + 1) - 1) // 2
    m = z - w * (w + 1) // 2
    return i, j, m, w - m
