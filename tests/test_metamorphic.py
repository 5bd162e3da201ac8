"""Metamorphic relations: a value must change as the mathematics says when
the input changes.

Swapping the sides.  The summed space of (a, complement) and of
(complement, a) is one space with its sides relabelled, and the interleaved
table puts side a at even indices and the complement at odd ones.  So
swapping `a` and `complement` permutes the table by u <-> u xor 1: entry
(u, v) of one table is entry (u ^ 1, v ^ 1) of the other.  Checked on every
non-degenerate catalog entry at its table size and on seeded cylinder
tree-pairs.

Caps only stop, never steer.  A cap that a run does not reach must not
change its answer: every entry of a catalog table decodes to the same value
at a window that covers the table and at twice that window, and the code
file `clopen encode` writes is the same at the instance's enumeration_cap
and at twice it, and the `clopen verify` report at scan budget 256 and at
512.  `clopen embed` prints the same cell indices at witness bounds 16, 64
and 256, on the two-symbol space and on a closed subset of Baire space:
every printed index lies within the smallest bound.  A dsl pi02-pair prints
the same `encode`, `remetrize` and `verify` output at every per_n_budget
that holds each level's least witness, and a budget below one exits 1.

No hash-order dependence.  The code file is the same under two values of
PYTHONHASHSEED, each in a fresh interpreter.
"""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import clopen
from clopen.cli import main
from clopen.codes import FORMAT_LINE, decode_metric, encode_metric
from clopen.instances import CATALOG, DEFAULT_BOUNDS, build_instance, parse_instance

NON_DEGENERATE = [name for name in CATALOG if not name.startswith("degenerate")]


def _swapped(doc):
    doc = copy.deepcopy(doc)
    sides = doc["set"]
    sides["a"], sides["complement"] = sides["complement"], sides["a"]
    return doc


def _table(doc):
    return build_instance(parse_instance(json.dumps(doc))).table()


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


@pytest.mark.parametrize("name", NON_DEGENERATE)
def test_a_wider_decode_window_reads_the_same_values(name):
    table = _table(CATALOG[name])
    code = encode_metric(table)
    pairs = [(u, v) for u in range(table.K) for v in range(table.K)]
    values = [table.dist(u, v) for u, v in pairs]
    window = max(max(d.denominator - 1, d.numerator) for d in values)
    for w in (window, 2 * window):
        assert [decode_metric(code, u, v, w) for u, v in pairs] == values


def _encode(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    text = out.getvalue()
    assert text.startswith(FORMAT_LINE + "\n")
    return text


@pytest.mark.parametrize("name", NON_DEGENERATE)
def test_doubling_the_enumeration_cap_leaves_the_code_file_alone(name, tmp_path):
    # 100,000 on the tree-pairs, 2,000 on witness-first-bit, each doubled
    cap = {**DEFAULT_BOUNDS, **CATALOG[name].get("bounds", {})}["enumeration_cap"]
    texts = []
    for bound in (cap, 2 * cap):
        doc = copy.deepcopy(CATALOG[name])
        doc["bounds"] = {**doc.get("bounds", {}), "enumeration_cap": bound}
        path = tmp_path / f"cap-{bound}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        texts.append(_encode(["encode", "--instance", str(path)]))
    assert texts[0] == texts[1]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_doubling_the_scan_budget_leaves_the_verify_report_alone(name, verify_report):
    # every distance-oracle scan grows its points past budget 256, where the
    # catalog instances set it, to 512; the 256 report is shared with
    # tests/test_metamorphic_budget.py
    runs = [verify_report(name, budget) for budget in (256, 512)]
    assert runs[0] == runs[1] and runs[0][0] == 0


@pytest.mark.parametrize("space", [["--space", "cantor", "--count", "8"],
                                   ["--space", "baire-closed", "--instance", "baire-split-0"]])
def test_a_wider_witness_bound_leaves_the_embedding_alone(space):
    runs = [_run(["embed", *space, "--witness-bound", str(bound)]) for bound in (16, 64, 256)]
    assert runs[0] == runs[1] == runs[2] and runs[0][0] == 0


def _pi02_twins(r, use_bound, budget):
    """A pi02-pair over the two-symbol space whose sides are the dsl matrix r
    at v = 0 and at v = 1, each searching witnesses up to the budget."""
    def side(v):
        return {"rule": "dsl", "r": r.replace("v", str(v)), "use_bound": use_bound,
                "per_n_budget": budget}

    return {"format": "instance/1", "id": "pi02-twins", "ambient": {"kind": "cantor"},
            "set": {"kind": "pi02-pair", "a": side(0), "complement": side(1),
                    "alphabet_bound": 1},
            "bounds": {"table_size": 2, "enumeration_cap": 2000}}


# (matrix, use bound, the budgets that hold every least witness, the largest
# budget that does not, or None): the least witness of each level is 0, then
# a(n) <= 1, then a(n) + 2 <= 3
PI02_TWINS = [
    ("a(0) == v", "1", (4, 8, 16), None),
    ("a(n) == m and a(0) == v", "n + 1", (4, 8, 16), None),
    ("m == a(n) + 2 and a(0) == v", "n + 1", (3, 4, 8), 2),
]


@pytest.mark.parametrize("r,use_bound,budgets,short", PI02_TWINS,
                         ids=[r for r, *_ in PI02_TWINS])
@pytest.mark.parametrize("command", [["encode"], ["remetrize"], ["verify", "--seed", "5"]],
                         ids=lambda command: command[0])
def test_a_larger_per_n_budget_leaves_the_output_alone(tmp_path, command, r, use_bound,
                                                       budgets, short):
    def run(budget):
        path = tmp_path / f"budget-{budget}.json"
        path.write_text(json.dumps(_pi02_twins(r, use_bound, budget)), encoding="utf-8")
        return _run(command + ["--instance", str(path)])

    runs = [run(budget) for budget in budgets]
    assert runs[0][0] == 0 and all(each == runs[0] for each in runs)
    if short is not None:
        # a witness past the budget leaves a pair-tree node without a child
        assert run(short)[0] == 1


def test_encode_does_not_depend_on_the_hash_seed():
    src = str(Path(clopen.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "clopen.cli", "encode", "--instance", "cantor-dsl-eq01"]
    runs = [subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src})
            for seed in ("0", "12345")]
    texts = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert texts[0] == texts[1] and texts[0].startswith(FORMAT_LINE + "\n")
