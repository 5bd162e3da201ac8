import itertools
import random

from clopen.coding import (decode, encode, lh, pair, pair_code, pair_count, pair_position,
                           quad_code, quad_position, unpair)


def test_empty_sequence_codes_to_zero():
    assert encode(()) == 0
    assert decode(0) == ()


def test_singleton_zero_codes_to_one():
    assert encode((0,)) == 1


def test_round_trip_examples():
    assert decode(encode((1, 2, 3))) == (1, 2, 3)
    assert decode(encode((7, 4))) == (7, 4)
    assert decode(encode([7, 4])) == (7, 4)


def test_round_trip_exhaustive_small():
    for n in range(5):
        for u in itertools.product(range(5), repeat=n):
            assert decode(encode(u)) == u


def test_decode_total_and_injective():
    seen = set()
    for s in range(3000):
        u = decode(s)
        assert u not in seen
        seen.add(u)
        assert encode(u) == s


def test_pair_unpair_inverse():
    for z in range(500):
        a, b = unpair(z)
        assert pair(a, b) == z


def test_lh():
    assert lh(0) == 0
    assert lh(encode((7, 4))) == 2
    for n in range(5):
        for u in itertools.product(range(5), repeat=n):
            assert lh(encode(u)) == n


def test_codes_grow_under_extension():
    # the least-code rule for dense points rests on this: a point's shortest
    # stem has a smaller code than every longer stem of it
    for n in range(4):
        for u in itertools.product(range(5), repeat=n):
            for x in range(6):
                assert encode(u + (x,)) > encode(u)
    rng = random.Random(2024)
    for _ in range(300):
        u = tuple(rng.randrange(rng.choice((2, 5, 1000))) for _ in range(rng.randrange(12)))
        assert encode(u + (rng.randrange(50),)) > encode(u)


def test_pair_and_quad_codes_match_encode():
    for i in range(5):
        for n in range(5):
            assert pair_code(i, n) == encode((i, n))
    assert quad_code(1, 2, 3, 4) == encode((1, 2, 3, 4))


def _pair_position_by_decode(t):
    u = decode(t)
    return (u[0], u[1]) if len(u) == 2 and u[0] in (0, 1) else None


def test_pair_position_matches_the_decode_rule():
    # large codes with short sequences: a random t near 10^12 codes a sequence
    # of about a million entries, too long for the reference to decode
    rng = random.Random(15)
    large = [1 + pair(rng.randrange(4), rng.randrange(10 ** 6, 10 ** 12)) for _ in range(2000)]
    large += [pair_code(i, n) + d for i in range(3) for n in (10 ** 5, 10 ** 9)
              for d in (-1, 0, 1)]
    for t in [*range(5000), *large]:
        assert pair_position(t) == _pair_position_by_decode(t), t


def _quad_position_by_decode(t):
    u = decode(t)
    return u if len(u) == 4 else None


def test_quad_position_matches_the_decode_rule():
    # the positions cover lengths 0-6 (tags 0-5); quadruples with entries of
    # 2^20 and more, and their neighbours, stay short enough for decode
    rng = random.Random(21)
    big = [tuple(rng.randrange(1 << 20, 1 << 40) for _ in range(4)) for _ in range(300)]
    mixed = [tuple(rng.choice((rng.randrange(4), rng.randrange(1 << 20, 1 << 24)))
                   for _ in range(4)) for _ in range(300)]
    positions = [*range(5000), *(quad_code(*q) + d for q in big + mixed for d in (-1, 0, 1))]
    positions += [encode(u) for u in ((1 << 20,), (0, 1 << 21), (5, 6, 1 << 20),
                                      (1, 2, 3, 4, 1 << 20), (7,) * 6)]
    lengths = set()
    for t in positions:
        lengths.add(lh(t))
        assert quad_position(t) == _quad_position_by_decode(t), t
    assert {0, 1, 2, 3, 4, 5, 6} <= lengths


def test_quad_position_inverts_quad_code():
    rng = random.Random(22)
    for _ in range(2000):
        q = tuple(rng.randrange(1 << rng.randrange(1, 64)) for _ in range(4))
        assert quad_code(*q) == encode(q)
        assert quad_position(quad_code(*q)) == q


def test_pair_count_counts_the_pair_codes_below_a_length():
    for i in (0, 1):
        codes = [pair_code(i, n) for n in range(500)]
        for length in range(500):
            assert pair_count(i, length) == sum(c < length for c in codes), (i, length)
