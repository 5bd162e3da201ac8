"""The library and `clopen encode` against the benchmark's independent oracle.

`bench/oracle.py` recomputes the interleaved table of a cylinder tree-pair
from its prefixes alone, without importing `clopen`: its own unpairing, its
own admissibility and leftmost-branch rules, its own enumeration of distinct
branches.  Each layer is compared with it on seeded cylinder sides over 2-5
symbols: sequence decoding, `cylinder_union_tree`, leftmost branches, dense
distances, `enumerate_distinct`, and the table `encode` writes through the
command line and the code-file reader.  Most sides set `child_bound` to the
largest symbol, m - 1; one seeded pair sets it higher.  Where the oracle
finds too few distinct points below the enumeration cap, the library must
raise `InsufficientDensePoints` and `encode` must exit 1.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from clopen.cli import main
from clopen.codes import parse_code_file
from clopen.coding import decode, encode
from clopen.trees import (DensePointFamily, InsufficientDensePoints, cylinder_union_tree,
                          dense_pn_distance, enumerate_distinct, validate_pruned)

TABLE_SIZE = 16
CAP = 2000
ALPHABETS = (2, 3, 4, 5)


def _split(rng, m):
    """A word w of length 1-3 over m symbols, and the sibling cylinders
    w[:i] + (c,) with c != w[i] that make up the rest of the space."""
    length = rng.randint(1, 3)
    word = [rng.randrange(m) for _ in range(length)]
    return [word], [word[:i] + [c] for i in range(length) for c in range(m) if c != word[i]]


def _partition(rng, m):
    """The words of one length over m symbols, shuffled and cut in two: prefix
    sets that are not the halves of a split word."""
    words = [list(w) for w in itertools.product(range(m), repeat=rng.randint(1, 2))]
    rng.shuffle(words)
    cut = rng.randint(1, len(words) - 1)
    return sorted(words[:cut]), sorted(words[cut:])


def _sides(m):
    """Seeded cylinder sides over m symbols: the whole space, and both halves
    of three split words and of three partitions."""
    rng = random.Random(6061 + m)
    sides = [[[c] for c in range(m)]]
    for draw in (_split, _split, _split, _partition, _partition, _partition):
        sides += draw(rng, m)
    return sides


def _pairs(m, oracle):
    """The library's validated tree and the oracle's side, for each seeded
    side over m symbols."""
    for prefixes in _sides(m):
        tree = cylinder_union_tree(prefixes, "side", child_floor=m - 1)
        validate_pruned(tree, 4)
        yield tree, oracle.CylinderSide(prefixes, m - 1)


def _stems(side, m, length):
    """The stems over m symbols of length <= length that the oracle admits."""
    return [u for n in range(length + 1) for u in itertools.product(range(m), repeat=n)
            if side.admits(u)]


def test_decode_matches_the_oracle(oracle):
    for s in range(5000):
        assert decode(s) == oracle.seq_of_code(s), s


@pytest.mark.parametrize("m", ALPHABETS)
def test_cylinder_trees_admit_what_the_oracle_admits(oracle, m):
    for tree, side in _pairs(m, oracle):
        for n in range(5):
            for u in itertools.product(range(m + 1), repeat=n):
                assert tree.admits(u) == side.admits(u), (side.prefixes, u)


def _check_branches(tree, side, stems):
    fam = DensePointFamily(tree)
    for u in stems:
        assert fam.leftmost(encode(u)).prefix(8) == side.branch(u, 8), (side.prefixes, u)


def _check_distances(tree, side, stems):
    fam = DensePointFamily(tree)
    for u, v in itertools.product(stems, repeat=2):
        length = max(len(u), len(v)) + side.max_len + 1
        split = next((k for k, (a, b) in enumerate(zip(side.branch(u, length),
                                                       side.branch(v, length)))
                      if a != b), None)
        want = Fraction(0) if split is None else Fraction(1, split + 1)
        assert dense_pn_distance(fam, encode(u), encode(v)) == want, (side.prefixes, u, v)


@pytest.mark.parametrize("m", ALPHABETS)
def test_leftmost_branches_match_the_oracle(oracle, m):
    for tree, side in _pairs(m, oracle):
        _check_branches(tree, side, _stems(side, m, 3))


@pytest.mark.parametrize("m", ALPHABETS)
def test_dense_distances_match_the_oracle(oracle, m):
    for tree, side in _pairs(m, oracle):
        _check_distances(tree, side, _stems(side, m, 2))


@pytest.mark.parametrize("m", ALPHABETS)
def test_enumerate_distinct_matches_the_oracle_stems(oracle, m):
    outcomes = set()
    for tree, side in _pairs(m, oracle):
        fam = DensePointFamily(tree)  # shared, so later counts extend the kept scan
        for count in (1, 4, 9, 24):
            try:
                want = side.distinct_stems(count, CAP)
            except ValueError:
                with pytest.raises(InsufficientDensePoints):
                    enumerate_distinct(fam, count, CAP)
                outcomes.add("short")
                continue
            assert [decode(s) for s in enumerate_distinct(fam, count, CAP)] == want, \
                (side.prefixes, count)
            outcomes.add("listed")
    assert "listed" in outcomes


def _pair_doc(inst_id, m, a, c, child_bound=None):
    """A tree-pair over m symbols whose sides search children up to
    child_bound, m - 1 unless given."""
    bound = m - 1 if child_bound is None else child_bound
    ambient = ({"kind": "cantor"} if m == 2 else
               {"kind": "tree", "tree": {"rule": "cylinders",
                                         "prefixes": [[k] for k in range(m)],
                                         "child_bound": m - 1}})
    return {"format": "instance/1", "id": inst_id, "ambient": ambient,
            "set": {"kind": "tree-pair",
                    "a": {"rule": "cylinders", "prefixes": a, "child_bound": bound},
                    "complement": {"rule": "cylinders", "prefixes": c,
                                   "child_bound": bound}},
            "bounds": {"table_size": TABLE_SIZE, "enumeration_cap": CAP}}


def _encode_against(oracle, doc, tmp_path, capsys):
    """Entries of doc's written table checked against the oracle; 0 when the
    oracle finds too few points and encode exits 1."""
    path, out = tmp_path / f"{doc['id']}.json", tmp_path / f"{doc['id']}.code"
    path.write_text(json.dumps(doc), encoding="utf-8")
    status = main(["encode", "--instance", str(path), "--out", str(out)])
    capsys.readouterr()
    try:
        want = oracle.InterleavedOracle(doc, TABLE_SIZE)
    except ValueError:
        assert status == 1, f"{doc}: the oracle finds too few points, encode exits {status}"
        return 0
    assert status == 0, doc
    inst_id, k, entries, tail = parse_code_file(out.read_text(encoding="utf-8"))
    assert (inst_id, k, tail) == (doc["id"], TABLE_SIZE, f"interleave:{doc['id']}")
    for (i, j), value in entries.items():
        assert value == want.entry(i, j), f"{doc}: entry ({i},{j})"
    return len(entries)


def test_encode_matches_the_oracle_on_seeded_cylinder_pairs(oracle, tmp_path, capsys):
    rng = random.Random(6061)
    checked = short = 0
    for index in range(60):
        m = rng.randint(2, 5)
        sides = list(_split(rng, m))
        if rng.random() < 0.5:
            sides.reverse()
        entries = _encode_against(oracle, _pair_doc(f"split-{index}", m, *sides),
                                  tmp_path, capsys)
        checked += entries
        short += not entries
    # both outcomes were drawn
    assert checked and short


@pytest.mark.parametrize("m", ALPHABETS)
def test_encode_matches_the_oracle_on_prefix_partitions(oracle, m, tmp_path, capsys):
    rng = random.Random(7079 + m)
    checked = 0
    for index in range(8):
        doc = _pair_doc(f"partition-{m}-{index}", m, *_partition(rng, m))
        checked += _encode_against(oracle, doc, tmp_path, capsys)
    assert checked


def test_a_child_bound_above_the_alphabet_matches_the_oracle(oracle, tmp_path, capsys):
    # a seeded split over m symbols whose sides search children up to m + 1
    # or more: the least admissible child is found before the search passes
    # m - 1, so branches, distances and the written table are the oracle's
    # at the same child floor, stems with the extra symbols included
    rng = random.Random(8087)
    m = rng.randint(2, 5)
    bound = m - 1 + rng.randint(2, 4)
    sides = _split(rng, m)
    for prefixes in sides:
        tree = cylinder_union_tree(prefixes, "side", child_floor=bound)
        validate_pruned(tree, 4)
        side = oracle.CylinderSide(prefixes, bound)
        # one entry past the longest prefix, where every symbol is admitted
        stems = _stems(side, bound + 1, side.max_len + 1)
        assert any(max(u, default=0) >= m for u in stems)
        _check_branches(tree, side, stems)
        _check_distances(tree, side, stems)
    doc = _pair_doc("wide-bound", m, *sides, child_bound=bound)
    assert _encode_against(oracle, doc, tmp_path, capsys) == TABLE_SIZE * (TABLE_SIZE + 1) // 2
