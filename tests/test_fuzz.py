"""Seeded fuzz of the command line: mutated instance documents and flag values.

Every case must end inside the exit-code contract: exit 0, 1 or 2, no
uncaught exception (in process, the form a traceback takes), and an
`error:` line on stderr with every exit 2.  The bounds of every generated
document are small, so each case runs in milliseconds; the few `verify`
runs take about 0.2 s each.
"""

import contextlib
import copy
import io
import json
import random

import pytest

from clopen.cli import main
from clopen.coding import pair
from clopen.instances import CATALOG
from clopen.witness import MATRIX_CATALOG

SMALL_BOUNDS = {"depth": 2, "budget": 16, "witness_bound": 4, "enumeration_cap": 2000,
                "table_size": 4}

_CYLINDERS_0 = {"rule": "cylinders", "prefixes": [[0]], "child_bound": 1}
_CYLINDERS_1 = {"rule": "cylinders", "prefixes": [[1]], "child_bound": 1}
_DSL_AMBIENT = {"kind": "tree",
                "tree": {"rule": "dsl", "node": "all i < len : s(i) <= 1", "child_bound": 1}}


def _doc(inst_id, set_desc, ambient=None, bounds=None):
    return {"format": "instance/1", "id": inst_id, "ambient": ambient or {"kind": "cantor"},
            "set": set_desc, "bounds": dict(bounds or SMALL_BOUNDS)}


def _tree_pair(a, c):
    return {"kind": "tree-pair", "a": a, "complement": c}


def _dsl_matrix(r):
    return {"rule": "dsl", "r": r, "use_bound": "1", "per_n_budget": 1}


# the catalog documents at small bounds, and three that reach the dsl
# matrices, explicit trees and a hint-free ambient tree
BASE_DOCS = [_doc(name, doc["set"], doc["ambient"]) for name, doc in CATALOG.items()] + [
    _doc("dsl-matrices", {"kind": "pi02-pair", "a": _dsl_matrix("a(0) == 0 and m == 0"),
                          "complement": _dsl_matrix("a(0) == 1 and m == 0"),
                          "alphabet_bound": 1}),
    _doc("explicit", _tree_pair({"rule": "explicit", "nodes": [0, 1], "depth": 1,
                                 "continuation": {"rule": "cantor"}},
                                {"rule": "constant", "value": 1})),
    _doc("dsl-ambient", _tree_pair(_CYLINDERS_0, _CYLINDERS_1), ambient=_DSL_AMBIENT),
]

ODD_VALUES = [None, True, False, -1, 0, 2, "3", "x", 1.5, [], [1], {}, {"rule": "nope"}]
BAD_NUMBERS = [-3, -1, 0, True, False, "2", "-1", 2.0]
BAD_DSL = ["", "s(", "1 +", "x == 1", "q + 1", "m + 1", "t(0) == 0", "len(0) == 1",
           "all i : s(i) <= 1", "all s < 2 : s(0) == 0", "s(0) == 1 $", "not", "(((",
           "a(n) == m and", "1 < 2", "n + 1", "s(0) + 1", "some i < len : s(i) == 1",
           "a(n + 1) == m"]
EXPRESSION_FIELDS = {"node", "r", "use_bound", "rule"}


def _paths(node):
    """Every (container, key) position in a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from _paths(value)


def _mutate(doc, rng):
    """The document with one field dropped, retyped, renumbered, renamed or its
    expression text broken."""
    doc = copy.deepcopy(doc)
    slots = list(_paths(doc))
    kind = rng.choice(("drop", "retype", "number", "rule", "dsl"))
    fits = {
        "number": [s for s in slots if isinstance(s[0][s[1]], int)],
        "rule": [s for s in slots if s[1] in ("rule", "kind", "name")],
        "dsl": [s for s in slots if s[1] in EXPRESSION_FIELDS and isinstance(s[0][s[1]], str)],
    }.get(kind, slots) or slots
    container, key = rng.choice(fits)
    if kind == "drop":
        del container[key]
    elif kind == "number":
        container[key] = rng.choice(BAD_NUMBERS)
    elif kind == "rule":
        container[key] = rng.choice(["nope", "", 7, None])
    elif kind == "dsl":
        container[key] = rng.choice(BAD_DSL)
    else:
        container[key] = rng.choice(ODD_VALUES)
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - on the command line, a traceback
            pytest.fail(f"{argv}: uncaught {type(exc).__name__}: {exc}")
    return code, err.getvalue()


def _check_contract(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert any("error:" in line for line in err.splitlines()), (argv, err)
    return code


def _write(tmp_path, doc, name="instance.json"):
    """Write a document, or a text kept as it is."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return str(path)


DOC_COMMANDS = [["validate"]] * 4 + [["remetrize"]] * 3 + [["encode"]] * 3 + [["verify"]] \
    + [["embed", "--space", "baire-closed"]]


def test_mutated_instance_documents_stay_inside_the_exit_contract(tmp_path):
    rng = random.Random(20261018)
    codes = []
    for _ in range(300):
        doc = rng.choice(BASE_DOCS)
        for _ in range(rng.choice((1, 1, 2))):
            doc = _mutate(doc, rng)
        path = _write(tmp_path, doc)
        codes.append(_check_contract(rng.choice(DOC_COMMANDS) + ["--instance", path]))
    # the mutations reach past the parser as well as into it
    assert {0, 2} <= set(codes)


def _flag_table(tmp_path):
    small = [_write(tmp_path, doc, f"{doc['id']}.json") for doc in BASE_DOCS]
    instances = small + ["no-such-instance", str(tmp_path / "missing.json"), str(tmp_path)]
    cheap = instances + ["cantor-split-0", "baire-split-0", "degenerate-empty"]
    depths = ["-2", "0", "1", "3", "x", ""]
    outs = [str(tmp_path / "out.txt"), str(tmp_path / "no-dir" / "out.txt"), str(tmp_path)]
    formats = ["table", "full-report", "csv"]
    points = ['{"pre": [1], "period": [0]}', '{"rule": "n + 1"}', '{"rule": "m + 1"}',
              "notjson", "[1,2]", '{"rule": 5}', '{"pre": [true], "period": [0]}',
              '{"pre": [-1], "period": [1]}', '{"period": []}', "{}", "null", '"x"']
    seqs = [[], ["0"], ["1", "0"], ["-1"], ["x"], ["2", "2", "2"]]
    return {
        "validate": {"--instance": cheap, "--depth": depths, "--format": formats,
                     "--out": outs},
        "embed": {"--space": ["cantor", "discrete:3", "discrete:0", "discrete:x", "discrete:",
                              "baire-closed", "nope"],
                  "--count": ["-1", "0", "3", "x"], "--depth": depths,
                  "--witness-bound": ["-1", "0", "2", "8", "x"], "--instance": instances,
                  "--out": outs},
        "witness": {"--matrix": sorted(MATRIX_CATALOG) + ["nope"], "--preperiod": seqs,
                    "--period": seqs, "--point": points, "--depth": depths, "--out": outs},
        "remetrize": {"--instance": cheap, "--depth": depths,
                      "--epsilon-prefix": ["-1", "0", "8", "x"], "--out": outs},
        "encode": {"--instance": instances, "--depth": depths, "--out": outs},
        "verify": {"--instance": instances, "--depth": depths,
                   "--budget": ["-1", "0", "1", "16", "x"], "--seed": ["0", "3", "x"],
                   "--axiom-count": ["-1", "0", "1", "4", "x"], "--format": formats,
                   "--out": outs},
    }


# flags some subcommand takes and others refuse, and one none takes
FOREIGN_FLAGS = [["--budget", "4"], ["--seed", "1"], ["--witness-bound", "3"],
                 ["--matrix", "diagonal"], ["--space", "cantor"], ["--bogus"]]


def test_flag_values_stay_inside_the_exit_contract(tmp_path):
    rng = random.Random(1018)
    table = _flag_table(tmp_path)
    codes = []
    for _ in range(150):
        command = rng.choice(sorted(table))
        argv = [command]
        for flag, values in table[command].items():
            if rng.random() < (0.15 if flag == "--out" else 0.5):
                value = rng.choice(values)
                argv += [flag] + (value if isinstance(value, list) else [value])
        if rng.random() < 0.1:
            argv += rng.choice(FOREIGN_FLAGS)
        codes.append(_check_contract(argv))
    assert {0, 1, 2} <= set(codes)


_DSL_X = {"rule": "dsl", "node": "x == 1", "child_bound": 1}


def _explicit(nodes, depth=1):
    return {"rule": "explicit", "nodes": nodes, "depth": depth,
            "continuation": {"rule": "cantor"}}


_FIXED_DOCS = {
    "dsl-tree-unbound": _doc("u", _tree_pair(_DSL_X, {"rule": "cantor"})),
    "dsl-ambient-unbound": _doc("u", _tree_pair(_CYLINDERS_0, _CYLINDERS_1),
                                ambient={"kind": "tree", "tree": _DSL_X}),
    "use-bound-unbound": _doc("u", {"kind": "pi02-pair",
                                    "a": dict(_dsl_matrix("m == 0"), use_bound="q + 1"),
                                    "complement": _dsl_matrix("m == 0")}),
    "explicit-string-node": _doc("u", _tree_pair(_explicit(["a"]), {"rule": "cantor"})),
    "explicit-negative-node": _doc("u", _tree_pair(_explicit([-3]), {"rule": "cantor"})),
    # a length tag of about 5.2e18, and a node of length 1e12 under depth 1e12: each
    # is rejected before it is decoded, which would loop once per entry
    "explicit-huge-tag": _doc("u", _tree_pair(_explicit([0, 2**128]), _CYLINDERS_1)),
    "explicit-long-node": _doc("u", _tree_pair(
        _explicit([0, 1 + pair(10**12 - 1, 0)], depth=10**12), _CYLINDERS_1)),
    "boolean-depth": _doc("u", _tree_pair(_CYLINDERS_0, _CYLINDERS_1), bounds={"depth": True}),
    "boolean-child-bound": _doc("u", _tree_pair(dict(_CYLINDERS_0, child_bound=True),
                                                _CYLINDERS_1)),
    "boolean-value": _doc("u", _tree_pair({"rule": "constant", "value": True}, _CYLINDERS_1)),
    "boolean-budget": _doc("u", {"kind": "pi02-pair",
                                 "a": dict(_dsl_matrix("m == 0"), per_n_budget=False),
                                 "complement": _dsl_matrix("m == 0")}),
    "boolean-alphabet": _doc("u", {"kind": "pi02-pair", "a": _dsl_matrix("m == 0"),
                                   "complement": _dsl_matrix("m == 0"),
                                   "alphabet_bound": True}),
    "use-bound-lie": _doc("u", {"kind": "pi02-pair",  # r reads a(n + 1), declares n
                                "a": dict(_dsl_matrix("a(n + 1) == m"), use_bound="n"),
                                "complement": _dsl_matrix("m == 0")}),
    "hint-free-ambient": _doc("u", _tree_pair(_CYLINDERS_0, _CYLINDERS_1), ambient=_DSL_AMBIENT,
                              bounds=dict(SMALL_BOUNDS, depth=4)),
    # integers past the interpreter's 4,300-digit conversion limit, as JSON text
    # (json.dumps refuses them too) and as a dsl numeral; JSON nested past the
    # recursion limit; a superscript digit, which str.isdigit takes and int refuses
    "huge-depth": json.dumps(_doc("u", _tree_pair(_CYLINDERS_0, _CYLINDERS_1),
                                  bounds={"depth": 1})).replace('"depth": 1',
                                                                '"depth": ' + "9" * 5001),
    "huge-numeral": _doc("u", _tree_pair({"rule": "dsl", "child_bound": 1,
                                          "node": "len < " + "9" * 5000}, _CYLINDERS_1)),
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "superscript-numeral": _doc("u", _tree_pair({"rule": "dsl", "child_bound": 1,
                                                 "node": "len < \u00b2"}, _CYLINDERS_1)),
    # a catalog entry over a tree ambient, named by a file with the cantor ambient
    "catalog-other-ambient": {"format": "instance/1", "id": "mine", "ambient": {"kind": "cantor"},
                              "set": {"kind": "catalog", "name": "baire-split-0"}},
    # dsl fields nested past the recursion limit, in the parser and in the sort check
    "deep-parentheses": _doc("u", _tree_pair({"rule": "dsl", "child_bound": 1,
                                              "node": "(" * 300 + "len < 1" + ")" * 300},
                                             _CYLINDERS_1)),
    "long-and-chain": _doc("u", _tree_pair({"rule": "dsl", "child_bound": 1,
                                            "node": " and ".join(["len < 9"] * 2000)},
                                           _CYLINDERS_1)),
    # a key that no reader reads, misspelt from child_bound
    "misspelt-child-bound": _doc("u", _tree_pair(dict(_CYLINDERS_0, child_bounds=3),
                                                 _CYLINDERS_1)),
    # ids that the code file's line reader would split or strip
    **{f"id-{name}": _doc(inst_id, _tree_pair(_CYLINDERS_0, _CYLINDERS_1))
       for name, inst_id in (("newline", "a\nb"), ("line-separator", "a\u2028b"),
                             ("form-feed", "a\x0cb"), ("padded", " padded "))},
}

_HUGE_POINT = '{"pre": [1' + "0" * 5000 + '], "period": [0]}'

FIXED_CASES = [
    *[(cmd, "dsl-tree-unbound", 2) for cmd in (["validate"], ["verify"], ["encode"])],
    (["embed", "--space", "baire-closed"], "dsl-ambient-unbound", 2),
    (["validate"], "use-bound-unbound", 2),
    (["validate"], "explicit-string-node", 2),
    (["validate"], "explicit-negative-node", 2),
    (["validate"], "explicit-huge-tag", 2),
    (["validate"], "explicit-long-node", 2),
    (["validate"], "boolean-depth", 2),
    (["validate"], "boolean-child-bound", 2),
    (["validate"], "boolean-value", 2),
    (["validate"], "boolean-budget", 2),
    (["validate"], "boolean-alphabet", 2),
    (["validate"], "use-bound-lie", 1),
    (["encode"], "use-bound-lie", 1),
    (["verify"], "hint-free-ambient", 0),
    (["remetrize"], "hint-free-ambient", 0),
    (["witness", "--point", '{"rule": "m + 1"}'], None, 2),
    (["witness", "--point", "notjson"], None, 2),
    (["witness", "--point", "[1,2]"], None, 2),
    (["verify", "--instance", "cantor-split-0", "--axiom-count", "0"], None, 2),
    (["embed", "--space", "cantor", "--count", "-1"], None, 2),
    (["remetrize", "--instance", "cantor-split-0", "--epsilon-prefix", "-1"], None, 2),
    (["witness", "--matrix", "zero-tail", "--period", "-1"], None, 2),
    (["witness", "--matrix", "zero-tail", "--preperiod", "0", "-2"], None, 2),
    (["validate"], "huge-depth", 2),
    (["validate", "--instance", "baire-split-0", "--depth", "12"], None, 2),
    (["validate"], "huge-numeral", 2),
    (["validate"], "deep-nesting", 2),
    (["validate"], "superscript-numeral", 2),
    *[(cmd, doc, 2) for doc in ("deep-parentheses", "long-and-chain")
      for cmd in (["validate"], ["verify"])],
    (["remetrize"], "catalog-other-ambient", 2),
    *[(cmd, "misspelt-child-bound", 2) for cmd in (["validate"], ["verify"], ["encode"])],
    (["witness", "--matrix", "diagonal", "--point", _HUGE_POINT], None, 2),
    *[(["encode"], doc, 2) for doc in ("id-newline", "id-line-separator", "id-form-feed",
                                        "id-padded")],
]


@pytest.mark.parametrize("argv,doc,want", FIXED_CASES,
                         ids=[f"{argv[0]}-{doc or argv[-1][:32]}" for argv, doc, _ in FIXED_CASES])
def test_fixed_inputs_stay_inside_the_exit_contract(tmp_path, argv, doc, want):
    if doc is not None:
        argv = argv + ["--instance", _write(tmp_path, _FIXED_DOCS[doc])]
    assert _check_contract(argv) == want
