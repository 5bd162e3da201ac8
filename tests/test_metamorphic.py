"""Metamorphic relations: a value must change as the mathematics says when
the input changes.

Swapping the sides.  The summed space of (a, complement) and of
(complement, a) is one space with its sides relabelled, and the interleaved
table puts side a at even indices and the complement at odd ones.  So
swapping `a` and `complement` permutes the table by u <-> u xor 1: entry
(u, v) of one table is entry (u ^ 1, v ^ 1) of the other.  Checked on every
non-degenerate catalog entry at its table size and on seeded cylinder
tree-pairs.
"""

import copy
import json
import random

import pytest

from clopen.instances import CATALOG, build_instance, parse_instance
from clopen.verify import instance_table

NON_DEGENERATE = [name for name in CATALOG if not name.startswith("degenerate")]


def _swapped(doc):
    doc = copy.deepcopy(doc)
    sides = doc["set"]
    sides["a"], sides["complement"] = sides["complement"], sides["a"]
    return doc


def _table(doc):
    return instance_table(build_instance(parse_instance(json.dumps(doc))))


def _cylinder_pair(seed):
    """A seeded cylinder tree-pair over m symbols: the cylinder of a word of
    length 1 or 2 and the cylinders of its siblings, at table size 32."""
    rng = random.Random(seed)
    m = rng.randint(2, 4)
    word = [rng.randrange(m) for _ in range(rng.randint(1, 2))]
    siblings = [word[:i] + [c] for i in range(len(word)) for c in range(m) if c != word[i]]
    ambient = {"kind": "tree", "tree": {"rule": "cylinders", "prefixes": [[c] for c in range(m)],
                                        "child_bound": m - 1}}
    return {"format": "instance/1", "id": f"swap-{seed}", "ambient": ambient,
            "set": {"kind": "tree-pair",
                    "a": {"rule": "cylinders", "prefixes": [word], "child_bound": m - 1},
                    "complement": {"rule": "cylinders", "prefixes": siblings,
                                   "child_bound": m - 1}},
            "bounds": {"table_size": 32, "enumeration_cap": 1 << 13}}


@pytest.mark.parametrize("doc", [pytest.param(CATALOG[name], id=name) for name in NON_DEGENERATE]
                         + [pytest.param(_cylinder_pair(seed), id=f"cylinders-{seed}")
                            for seed in range(8)])
def test_swapping_the_sides_permutes_the_table_by_xor_1(doc):
    table, swapped = _table(doc), _table(_swapped(doc))
    assert table.K == swapped.K and table.K % 2 == 0
    k = table.K
    assert [[table.dist(u, v) for v in range(k)] for u in range(k)] == \
        [[swapped.dist(u ^ 1, v ^ 1) for v in range(k)] for u in range(k)]
