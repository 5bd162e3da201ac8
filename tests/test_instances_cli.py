import copy
import gc
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import clopen
from clopen import cli, dsl, instances
from clopen.cli import build_parser, main
from clopen.codes import parse_code_file, render_code_file
from clopen.coding import pair
from clopen.dsl import ParseError
from clopen.instances import (CATALOG, DEFAULT_BOUNDS, UnknownCatalogName, build_instance,
                              builtin_instance, parse_instance)
from clopen.remetrize import CertificateFailure, extension_certificate
from clopen.trees import VALIDATION_CAP
from clopen.verify import run_instance_suite

MINIMAL = """
{
  "format": "instance/1",
  "id": "mini",
  "ambient": {"kind": "cantor"},
  "set": {
    "kind": "tree-pair",
    "a": {"rule": "cylinders", "prefixes": [[0]], "child_bound": 1},
    "complement": {"rule": "cylinders", "prefixes": [[1]], "child_bound": 1}
  },
  "bounds": {"depth": 3, "table_size": 8}
}
"""


def test_parse_minimal_instance():
    inst = parse_instance(MINIMAL)
    assert inst.id == "mini"
    assert inst.set_desc["kind"] == "tree-pair"
    assert inst.bounds["depth"] == 3
    assert inst.bounds["budget"] == 256  # default fills in


def _file_text(inst):
    """The bytes of an instance file: its document as sorted, indented JSON."""
    doc = {"format": "instance/1", "id": inst.id, "ambient": inst.ambient,
           "set": inst.set_desc, "bounds": inst.bounds}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_canonical_print_reparses_equal():
    inst = parse_instance(MINIMAL)
    again = parse_instance(_file_text(inst))
    assert again == inst
    assert _file_text(again) == _file_text(inst)


def test_catalog_instances_parse_and_print():
    # every catalog entry, not only those with a file under instances/
    for name in CATALOG:
        inst = builtin_instance(name)
        assert parse_instance(_file_text(inst)) == inst


def test_golden_instance_files_match_catalog():
    root = Path(__file__).resolve().parent.parent / "instances"
    files = sorted(root.glob("*.json"))
    assert files, "the golden instance corpus is missing"
    for path in files:
        text = path.read_text(encoding="utf-8")
        inst = parse_instance(text)
        assert inst == builtin_instance(inst.id)
        # each file is named after the catalog entry it holds, and holds its bytes
        assert text == _file_text(builtin_instance(path.stem))


def test_json_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_instance("{\n  \"format\": }")
    assert exc.value.line == 2


def test_unbounded_quantifier_in_tree_dsl():
    doc = json.loads(MINIMAL)
    doc["set"]["a"] = {"rule": "dsl", "node": "all k : s(k) == 0", "child_bound": 1}
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


def _with(doc, where, desc):
    """MINIMAL, or doc, with desc at where: 'set.a', 'set.complement', 'ambient', 'set'."""
    doc = json.loads(doc or MINIMAL)
    if where in ("ambient", "set"):
        doc[where] = desc
    else:
        doc["set"][where.split(".")[1]] = desc
    return json.dumps(doc)


_PI02 = json.dumps(dict(json.loads(MINIMAL), set={
    "kind": "pi02-pair", "alphabet_bound": 1,
    "a": {"rule": "catalog", "name": "first-value-0"},
    "complement": {"rule": "catalog", "name": "first-value-1"}}))
_R = {"rule": "dsl", "r": "a(0) == 0", "use_bound": "1", "per_n_budget": 2}
_EXPLICIT = {"rule": "explicit", "nodes": [0, 1], "depth": 1, "continuation": {"rule": "cantor"}}

# one malformed descriptor per tree rule, matrix rule and ambient kind: the
# document, where the descriptor sits, and the text of the error parse_instance
# raises (a ParseError's message; an expression's own errors name no path)
ONE_READER_CASES = [
    (None, "set.a", {"child_bound": 1}, "set.a: a tree descriptor needs a 'rule' field"),
    (None, "set.a", {"rule": "mystery"}, "unknown tree rule name 'mystery'"),
    (None, "set.a", {"rule": "constant", "value": True},
     "set.a: constant trees need a natural 'value'"),
    (None, "set.a", {"rule": "cylinders", "prefixes": []},
     "set.a: cylinder trees need a nonempty list of natural prefixes"),
    (None, "set.complement", {"rule": "cylinders", "prefixes": [[1]], "child_bound": -1},
     "set.complement: 'child_bound' must be a natural number"),
    (None, "set.a", {"rule": "dsl", "node": 5, "child_bound": 1},
     "set.a: 'node' must be an expression string"),
    (None, "set.a", {"rule": "dsl", "node": "s(0)", "child_bound": 1},
     "expected a boolean expression"),
    (None, "set.a", {"rule": "dsl", "node": "t(0) == 0", "child_bound": 1},
     "unbound sequence 't' (bound here: s)"),
    (None, "set.complement", {"rule": "dsl", "node": "len < 2"},
     "set.complement: dsl trees need a natural 'child_bound'"),
    (None, "set.a", dict(_EXPLICIT, depth=-1),
     "set.a: explicit trees need natural 'nodes' codes and 'depth'"),
    (None, "set.a", dict(_EXPLICIT, continuation=None),
     "set.a.continuation: a tree descriptor needs a 'rule' field"),
    (None, "set.a", dict(_EXPLICIT, continuation={"rule": "constant"}),
     "set.a.continuation: constant trees need a natural 'value'"),
    (None, "ambient", {"kind": "tree", "tree": {"rule": "cylinders", "prefixes": [["0"]]}},
     "ambient.tree: cylinder trees need a nonempty list of natural prefixes"),
    (None, "ambient", {"kind": "tree"}, "ambient.tree: a tree descriptor needs a 'rule' field"),
    (None, "ambient", {"kind": "hilbert-cube"}, "unknown ambient space name 'hilbert-cube'"),
    (None, "ambient", "cantor", "unknown ambient space name 'cantor'"),
    (_PI02, "set.a", {"name": "first-value-0"},
     "set.a: a matrix descriptor needs a 'rule' field"),
    (_PI02, "set.a", {"rule": "catalog", "name": "nope"}, "unknown matrix name 'nope'"),
    (_PI02, "set.complement", {"rule": "table"}, "unknown matrix rule name 'table'"),
    (_PI02, "set.a", dict(_R, r="n + 1"), "expected a boolean expression"),
    (_PI02, "set.complement", dict(_R, r="b(0) == 0"), "unbound sequence 'b' (bound here: a)"),
    (_PI02, "set.a", dict(_R, r=None), "set.a: 'r' must be an expression string"),
    (_PI02, "set.a", dict(_R, use_bound="1 < 2"), "expected a natural-number expression"),
    (_PI02, "set.complement", dict(_R, use_bound="k"),
     "unbound variable 'k' (bound here: m, n)"),
    (_PI02, "set.complement", dict(_R, per_n_budget=-1),
     "set.complement: dsl matrices need a natural 'per_n_budget'"),
]


@pytest.mark.parametrize("doc,where,desc,text", ONE_READER_CASES)
def test_each_descriptor_field_is_checked_by_its_reader(doc, where, desc, text):
    with pytest.raises((ParseError, UnknownCatalogName)) as exc:
        parse_instance(_with(doc, where, desc))
    assert getattr(exc.value, "message", str(exc.value)) == text


def _extra(desc):
    return dict(desc, extra=1)


# one descriptor of each tree rule, matrix rule, ambient kind and set kind
# holding a key that its reader does not read: the document, where the
# descriptor sits, the descriptor, and the path the error names
UNKNOWN_KEY_CASES = [
    *[(None, "set.a", _extra(desc), "set.a") for desc in (
        {"rule": "full"}, {"rule": "cantor"}, {"rule": "empty"}, {"rule": "constant", "value": 0},
        {"rule": "cylinders", "prefixes": [[0]], "child_bound": 1},
        {"rule": "dsl", "node": "len < 9", "child_bound": 1}, _EXPLICIT)],
    (None, "set.a", dict(_EXPLICIT, continuation=_extra({"rule": "cantor"})),
     "set.a.continuation"),
    (_PI02, "set.a", _extra({"rule": "catalog", "name": "first-value-0"}), "set.a"),
    (_PI02, "set.complement", _extra(_R), "set.complement"),
    (None, "ambient", _extra({"kind": "cantor"}), "ambient"),
    (None, "ambient", _extra({"kind": "baire"}), "ambient"),
    (None, "ambient", _extra({"kind": "tree", "tree": {"rule": "cantor"}}), "ambient"),
    (None, "ambient", {"kind": "tree", "tree": _extra({"rule": "cantor"})}, "ambient.tree"),
    (None, "set", _extra(json.loads(MINIMAL)["set"]), "set"),
    (None, "set", _extra(json.loads(_PI02)["set"]), "set"),
    (None, "set", _extra({"kind": "catalog", "name": "cantor-split-0"}), "set"),
]


@pytest.mark.parametrize("doc,where,desc,path", UNKNOWN_KEY_CASES,
                         ids=[f"{where}-{desc.get('rule') or desc['kind']}-at-{path}"
                              for _, where, desc, path in UNKNOWN_KEY_CASES])
def test_each_descriptor_accepts_only_the_keys_it_reads(doc, where, desc, path):
    with pytest.raises(ParseError) as exc:
        parse_instance(_with(doc, where, desc))
    assert exc.value.message == f"{path}: unknown key 'extra'"


def test_point_descriptors_accept_only_the_keys_they_read(capsys):
    from clopen.instances import point_from_descriptor

    for desc, key in (({"rule": "n", "extra": 1}, "extra"), ({"rule": "n", "pre": [0]}, "pre"),
                      ({"pre": [0], "period": [1], "extra": 1}, "extra")):
        with pytest.raises(ParseError) as exc:
            point_from_descriptor(desc)
        assert exc.value.message == f"point: unknown key {key!r}"
        assert main(["witness", "--point", json.dumps(desc)]) == 2
        assert capsys.readouterr().err == f"error: 0:0: point: unknown key {key!r}\n"


def test_a_misspelt_child_bound_exits_2(tmp_path, capsys):
    # cantor-split-0 with "child_bounds": 3 in set.a parsed and built as if the
    # key were absent, and nothing reported it
    doc = copy.deepcopy(CATALOG["cantor-split-0"])
    doc["set"]["a"]["child_bounds"] = 3
    with pytest.raises(ParseError) as exc:
        parse_instance(json.dumps(doc))
    assert exc.value.message == "set.a: unknown key 'child_bounds'"
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "verify", "encode"):
        assert main([command, "--instance", str(path)]) == 2
        assert capsys.readouterr().err == "error: 0:0: set.a: unknown key 'child_bounds'\n"


def test_explicit_node_codes_past_depth_or_list_are_rejected():
    # a length tag of about 5.2e18, and a node of length 1e12 under depth 1e12:
    # decoding loops once per entry, so each is rejected before it is decoded
    for nodes, depth in (([0, 2**128], 1), ([0, 1 + pair(10**12 - 1, 0)], 10**12)):
        with pytest.raises(ParseError, match="set.a: node code"):
            parse_instance(_with(None, "set.a", dict(_EXPLICIT, nodes=nodes, depth=depth)))
    # an empty list still names the empty tree, and a node as long as depth is read
    assert parse_instance(_with(None, "set.a", dict(_EXPLICIT, nodes=[])))
    assert parse_instance(_with(None, "set.a", _EXPLICIT))


def test_unknown_names():
    doc = json.loads(MINIMAL)
    doc["set"] = {"kind": "catalog", "name": "no-such-instance"}
    with pytest.raises(UnknownCatalogName):
        parse_instance(json.dumps(doc))
    doc = json.loads(MINIMAL)
    doc["ambient"] = {"kind": "hilbert-cube"}
    with pytest.raises(UnknownCatalogName):
        parse_instance(json.dumps(doc))
    doc = json.loads(MINIMAL)
    doc["set"]["a"] = {"rule": "mystery"}
    with pytest.raises(UnknownCatalogName):
        parse_instance(json.dumps(doc))


def test_bad_bounds_rejected():
    doc = json.loads(MINIMAL)
    doc["bounds"] = {"depth": 0}
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))
    doc["bounds"] = {"mystery": 4}
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))
    for value in ([4], [], 0, "", False, None):
        doc["bounds"] = value
        with pytest.raises(ParseError, match="'bounds' must be an object"):
            parse_instance(json.dumps(doc))


@pytest.mark.parametrize("change, message", [
    pytest.param(lambda doc: doc.update(bound=doc.pop("bounds")), "unknown key 'bound'",
                 id="bound"),
    pytest.param(lambda doc: doc.update(bounds=[]), "'bounds' must be an object",
                 id="bounds-list"),
])
def test_cli_misspelt_or_empty_bounds_exit_2(tmp_path, capsys, change, message):
    doc = json.loads(MINIMAL)
    change(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["encode", "--instance", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_build_minimal_instance():
    built = build_instance(parse_instance(MINIMAL))
    assert built.sum_space is not None
    # even indices are points of the set, odd ones of its complement, in code order
    table = built.table()
    assert table.dist(3, 6) == 2
    assert table.dist(2, 4) == Fraction(1, 2)  # 0, 1, 0, ... and 0, 0, 1, ... split at 1
    fam_a, fam_c = built.sum_space.part_a.fam, built.sum_space.part_c.fam
    assert fam_a.leftmost(0)(0) == 0
    assert fam_c.leftmost(0)(0) == 1


def test_catalog_indirection():
    doc = json.loads(MINIMAL)
    doc["set"] = {"kind": "catalog", "name": "cantor-split-0"}
    built = build_instance(parse_instance(json.dumps(doc)))
    assert built.file.id == "cantor-split-0"
    # the entry runs over its own ambient, so the file must name that one
    doc["set"]["name"] = "baire-split-0"
    with pytest.raises(ParseError, match="catalog entry 'baire-split-0' needs its ambient"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_each_catalog_entry_is_a_valid_document_as_it_stands(name):
    assert parse_instance(json.dumps(CATALOG[name])) == builtin_instance(name)


# --- command line -------------------------------------------------------------


def test_cli_remetrize_writes_report(tmp_path):
    out = tmp_path / "report.txt"
    code = main(["remetrize", "--instance", "cantor-split-0", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("format remetrize/1\ninstance cantor-split-0")
    assert "epsilon" in text and "certificates" in text
    body = text.split("epsilon")[0].splitlines()[1:]
    assert all("." not in line for line in body)  # exact rationals only, no floats


def test_cli_encode_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.code", tmp_path / "b.code"
    assert main(["encode", "--instance", "cantor-split-00", "--out", str(out1)]) == 0
    assert main(["encode", "--instance", "cantor-split-00", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("format space-code/1")


@pytest.mark.parametrize("name, kind", [("degenerate-empty", "empty-set"),
                                        ("degenerate-full", "empty-complement")])
def test_cli_encode_of_a_degenerate_instance_is_a_code_file(name, kind, tmp_path):
    # the ambient stands unchanged: no entries, and the tail rule names the empty side
    out = tmp_path / "d.code"
    assert main(["encode", "--instance", name, "--out", str(out)]) == 0
    assert parse_code_file(out.read_text()) == (name, 0, {}, f"degenerate:{kind}")


def test_cli_verify_reports_deterministically(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "--instance", "witness-first-bit", "--format", "full-report"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["failures"] == []


def test_cli_verify_passes_at_budget_1(tmp_path):
    # no disagreement before position 1 bounds the distance by 1, not 1/2
    out = tmp_path / "report.txt"
    assert main(["verify", "--instance", "cantor-split-0", "--budget", "1",
                 "--out", str(out)]) == 0
    assert "FAIL" not in out.read_text()


def test_cli_verify_fails_on_corrupt_tree(tmp_path):
    doc = json.loads(MINIMAL)
    # downward closure broken: (1) is dead but its extensions come back
    doc["set"]["a"] = {"rule": "dsl", "child_bound": 1,
                       "node": "len == 0 or s(0) == 0 or (len == 2 and s(0) == 1)"}
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.txt"
    code = main(["validate", "--instance", str(path), "--out", str(out)])
    assert code == 1
    assert "DownwardClosureViolation" in out.read_text()


def test_cli_instance_file_loading(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(MINIMAL)
    out = tmp_path / "report.txt"
    assert main(["validate", "--instance", str(path), "--out", str(out)]) == 0
    assert "tree-valid:a" in out.read_text()


def test_cli_embed_and_witness(tmp_path):
    out = tmp_path / "embed.txt"
    assert main(["embed", "--space", "discrete:3", "--count", "3",
                 "--out", str(out)]) == 0
    assert "embed 2 -> 2 2 2 2" in out.read_text()
    out2 = tmp_path / "witness.txt"
    assert main(["witness", "--matrix", "zero-tail", "--preperiod", "0", "1",
                 "--period", "0", "--out", str(out2)]) == 0
    assert "witness 0 1 0 0" in out2.read_text()
    assert "modulus" in out2.read_text()


def test_explicit_tree_descriptor():
    from clopen.coding import encode
    from clopen.instances import build_tree
    from clopen.trees import validate_pruned

    listed = [encode(u) for u in ((), (0,), (2,), (0, 0), (0, 1), (2, 2))]
    desc = {"rule": "explicit", "nodes": listed, "depth": 2,
            "continuation": {"rule": "cantor"}}
    tree = build_tree(desc, "tree", label="explicit")
    validate_pruned(tree, 4)
    assert tree.admits((2, 2))
    assert not tree.admits((1,))
    # beyond the listed depth the continuation governs the suffix
    assert tree.admits((0, 1, 0))
    assert tree.admits((2, 2, 1))
    assert not tree.admits((0, 1, 2))
    # the child search still sees the listed node outside the binary alphabet
    assert tree.child_bound(()) == 2


def test_dsl_matrix_instance_builds():
    doc = json.loads(MINIMAL)
    doc["set"] = {
        "kind": "pi02-pair",
        "a": {"rule": "dsl", "r": "a(0) == 0", "use_bound": "1", "per_n_budget": 2},
        "complement": {"rule": "dsl", "r": "a(0) == 1", "use_bound": "1",
                       "per_n_budget": 2},
        "alphabet_bound": 1,
    }
    doc["bounds"] = {"table_size": 2, "enumeration_cap": 2000}
    built = build_instance(parse_instance(json.dumps(doc)))
    assert built.sum_space.part_a.closure is not None
    alpha = built.sum_space.part_a.map_point(built.sum_space.part_a.fam.leftmost(0))
    assert alpha(0) == 0


def test_cli_embed_baire_closed(tmp_path):
    out = tmp_path / "embed.txt"
    code = main(["embed", "--space", "baire-closed", "--instance", "cantor-split-0",
                 "--count", "2", "--out", str(out)])
    assert code == 0
    assert "embed 0 ->" in out.read_text()


def test_cli_witness_point_descriptor(tmp_path):
    from clopen.instances import point_from_descriptor

    assert point_from_descriptor({"pre": [2, 0], "period": [1, 1, 0]}).prefix(8) \
        == (2, 0, 1, 1, 0, 1, 1, 0)
    assert point_from_descriptor({"rule": "n * n + 1"}).prefix(4) == (1, 2, 5, 10)
    with pytest.raises(ParseError):
        point_from_descriptor({"pre": [0]})
    out = tmp_path / "w.txt"
    code = main(["witness", "--matrix", "diagonal",
                 "--point", '{"pre": [3], "period": [1]}', "--out", str(out)])
    assert code == 0
    assert "witness 3 1 1 1" in out.read_text()


def _hint_free_ambient():
    """MINIMAL over a dsl ambient tree, which has no periodicity hint."""
    doc = json.loads(MINIMAL)
    doc["ambient"] = {"kind": "tree", "tree": {"rule": "dsl", "child_bound": 1,
                                               "node": "all i < len : s(i) <= 1"}}
    return build_instance(parse_instance(json.dumps(doc)))


def test_hint_free_ambient_is_not_certifiable():
    # without a hint the ambient's branches have no exact distance to an
    # instance point, so no extension certificate applies
    built = _hint_free_ambient()
    sp = built.sum_space
    assert sp.ambient is built.ambient_fam and sp.ambient.tree.hint is None
    assert not sp.certifiable
    assert build_instance(parse_instance(MINIMAL)).sum_space.certifiable


def test_a_certificate_over_a_hint_free_ambient_names_the_missing_hint():
    sp = _hint_free_ambient().sum_space
    with pytest.raises(CertificateFailure) as exc:
        extension_certificate(sp, 0, 0, 0, Fraction(1, 2))
    assert str(exc.value) == ("ambient tree 'ambient' has no periodicity hint, "
                              "so no exact point distance")


def test_cli_unreadable_paths_exit_2(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for argv in (["validate", "--instance", str(tmp_path)],
                 ["validate", "--instance", str(binary)],
                 ["validate", "--instance", "cantor-split-0", "--out", str(tmp_path)],
                 ["encode", "--instance", "cantor-split-0",
                  "--out", str(tmp_path / "no-dir" / "code.txt")]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_usage_errors():
    assert main(["verify", "--instance", "no-such-instance"]) == 2
    assert main(["frobnicate"]) == 2


def test_cli_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["verify", "--instance", str(path)]) == 2


def test_cli_verify_rejects_complement_with_dead_root(tmp_path):
    # the complement admits (1) but not the root: not downward closed, not empty
    doc = json.loads(MINIMAL)
    doc["set"]["complement"] = {"rule": "dsl", "child_bound": 1, "node": "s(0) == 1"}
    path = tmp_path / "dead-root.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["verify", "--instance", str(path), "--format", "full-report",
                 "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["failures"] == ["tree-valid"]
    assert "DownwardClosureViolation" in report["checks"][0]["detail"]


@pytest.mark.parametrize("argv", [
    ["verify", "--instance", "cantor-split-0", "--budget", "0"],
    ["validate", "--instance", "cantor-split-0", "--depth", "0"],
    ["remetrize", "--instance", "cantor-split-0", "--depth", "-3"],
    ["embed", "--space", "cantor", "--depth", "0"],
    ["embed", "--space", "discrete:0"],
    ["embed", "--space", "discrete:x"],
])
def test_cli_bad_bounds_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_embed_baire_closed_reads_instance_bounds(tmp_path):
    doc = json.loads(MINIMAL)
    doc["bounds"] = {"depth": 2, "witness_bound": 3}
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "embed.txt"
    args = ["embed", "--space", "baire-closed", "--instance", str(path), "--count", "1",
            "--out", str(out)]
    assert main(args) == 0
    assert out.read_text().splitlines()[1:] == ["depth 2", "embed 0 -> 0 0"]
    # explicit flags still override the instance's bounds
    assert main(args + ["--depth", "3"]) == 0
    assert out.read_text().splitlines()[1:] == ["depth 3", "embed 0 -> 0 0 0"]


def test_cli_embed_validates_the_ambient_at_the_files_depth(monkeypatch, tmp_path):
    # --depth is the printed prefix length only: baire-split-0's ambient, child
    # bound 4, is validated at the file's depth 4, and the embedding reads past
    # it on demand.  Validating to --depth 7 stored about 98k stems, and at
    # --depth 10 it passed 3.5 GB and ended in a MemoryError
    depths, built = [], []
    real_validate, real_build = instances.validate_pruned, cli.build_instance

    def validating(tree, depth):
        depths.append(depth)
        return real_validate(tree, depth)

    def building(inst):
        built.append(real_build(inst))
        return built[-1]

    monkeypatch.setattr(instances, "validate_pruned", validating)
    monkeypatch.setattr(cli, "build_instance", building)
    out = tmp_path / "embed.txt"
    assert main(["embed", "--space", "baire-closed", "--instance", "baire-split-0",
                 "--depth", "7", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "depth 7" and len(lines) == 10
    assert all(len(line.split("-> ")[1].split()) == 7 for line in lines[2:])
    assert set(depths) == {4}
    assert len(built[0].ambient_fam.tree._cache) <= 781


def test_a_depth_past_the_validation_cap_exits_2_at_once():
    # baire-split-0's ambient has child bound 4, so validating it to depth 12
    # inspects 5^11 + ... + 1, about 61 million stems, and keeping each verdict
    # ended in a MemoryError under a 2 GB address-space limit; the validation
    # stops at VALIDATION_CAP inspected stems instead
    src = str(Path(clopen.__file__).resolve().parent.parent)
    path = Path(__file__).resolve().parent.parent / "instances" / "baire-split-0.json"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    run = subprocess.run([sys.executable, "-m", "clopen.cli", "validate", "--instance",
                          str(path), "--depth", "12"], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == (f"error: validating tree ambient to depth 12 inspects more than "
                          f"the cap of {VALIDATION_CAP} stems\n")
    # CPU time, which a busy host does not stretch as it does wall time
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert cpu < 1.0, cpu


def _catalog_doc(name, **bounds):
    doc = {"format": "instance/1", "id": f"file-{name}", "ambient": {"kind": "cantor"},
           "set": {"kind": "catalog", "name": name}}
    if bounds:
        doc["bounds"] = bounds
    return doc


def _write(tmp_path, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _dense_family_lines(argv, capsys):
    assert main(argv) == 0
    return [line for line in capsys.readouterr().out.splitlines() if "dense-family" in line]


def test_catalog_file_keeps_its_bounds(tmp_path, capsys):
    path = _write(tmp_path, _catalog_doc("cantor-split-0", depth=2))
    # the check at depth 2; the catalog entry's depth 4 would check to depth 8
    assert _dense_family_lines(["verify", "--instance", path], capsys) == [
        "ok   dense-family:a  4 stems checked to depth 4",
        "ok   dense-family:c  4 stems checked to depth 4"]


def test_catalog_file_takes_cli_overrides(tmp_path, capsys):
    path = _write(tmp_path, _catalog_doc("cantor-split-0", depth=2))
    assert _dense_family_lines(["verify", "--instance", path, "--depth", "3"], capsys) == [
        "ok   dense-family:a  8 stems checked to depth 6",
        "ok   dense-family:c  8 stems checked to depth 6"]


def test_boundless_catalog_file_takes_the_entry_bounds(tmp_path, capsys):
    doc = _catalog_doc("witness-first-bit")
    assert parse_instance(json.dumps(doc)).bounds == builtin_instance(
        "witness-first-bit").bounds
    assert main(["encode", "--instance", _write(tmp_path, doc)]) == 0
    assert "\nK 2\n" in capsys.readouterr().out



@pytest.mark.parametrize("catalog_file", [False, True], ids=["name", "catalog-file"])
def test_each_dsl_field_is_compiled_once_per_command(catalog_file, monkeypatch, tmp_path,
                                                      capsys):
    # parse_instance compiles the two node fields, each with its step form (both
    # have the position-local conjunct all i < len : s(i) <= 1), and
    # build_instance compiles none
    calls = []
    compile_ = dsl.compile
    monkeypatch.setattr(dsl, "compile", lambda e, names: calls.append(e) or compile_(e, names))
    instance = (_write(tmp_path, _catalog_doc("cantor-dsl-eq01")) if catalog_file
                else "cantor-dsl-eq01")
    assert main(["verify", "--instance", instance]) == 0
    assert len(calls) == 4


@pytest.mark.parametrize("instance, want", [
    ("cantor-split-0", {"build_tree": 2, "_ambient_tree": 1}),
    ("witness-first-bit", {"build_matrix": 2, "_ambient_tree": 1}),
    # the file's own ambient is built to check it, and the entry's with the entry
    (_catalog_doc("cantor-split-0"), {"build_tree": 2, "_ambient_tree": 2}),
], ids=["tree-pair", "pi02-pair", "catalog-file"])
def test_each_descriptor_is_built_once_per_command(instance, want, monkeypatch, tmp_path,
                                                    capsys):
    calls = Counter()
    for name in ("build_tree", "build_matrix", "_ambient_tree"):
        def counted(*args, real=getattr(instances, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(instances, name, counted)
    if isinstance(instance, dict):
        instance = _write(tmp_path, instance)
    assert main(["verify", "--instance", instance]) == 0
    assert calls == want


@pytest.mark.parametrize("name", ["cantor-dsl-eq01", "witness-first-bit"])
def test_a_file_built_twice_shares_its_parts_and_reports_alike(name):
    inst = builtin_instance(name)
    first, second = build_instance(inst), build_instance(inst)
    assert first.ambient_fam.tree is second.ambient_fam.tree is inst.parts[0]
    reports = [(render_code_file(built.table(), built.file.id),
                [r.line() for r in run_instance_suite(built, axiom_count=20, seed=0)])
               for built in (first, second)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv, doc", [
    (["embed", "--space", "baire-closed", "--instance", "cantor-split-0",
      "--witness-bound", "2"], None),
    (["embed", "--space", "cantor", "--witness-bound", "1"], None),
    (["witness", "--matrix", "zero-tail", "--preperiod", "1", "--period", "1"], None),
    (["encode"], dict(CATALOG["witness-first-bit"],
                      bounds={"table_size": 8, "enumeration_cap": 2000})),
    (["encode"], _catalog_doc("witness-first-bit", table_size=8)),
    (["remetrize"], dict(CATALOG["witness-first-bit"],
                         bounds={"table_size": 8, "enumeration_cap": 2000})),
], ids=["cell-baire-closed", "cell-cantor", "witness", "dense-points", "dense-points-catalog",
        "dense-points-remetrize"])
def test_cli_search_exhausted_exit_1(argv, doc, tmp_path, capsys):
    if doc is not None:
        argv = argv + ["--instance", _write(tmp_path, doc)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("search exhausted: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_cli_verify_reports_a_side_short_of_points(tmp_path, capsys):
    # the set is the one point 1, 1, 1, ...: the extension catalog wants four
    # points of it, and the report still lists every check
    doc = json.loads(MINIMAL)
    doc["set"]["a"] = {"rule": "constant", "value": 1}
    doc["set"]["complement"]["prefixes"] = [[0]]
    doc["bounds"] = {"depth": 2, "table_size": 4, "enumeration_cap": 2000}
    path = _write(tmp_path, doc)
    assert main(["verify", "--instance", path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL extension  InsufficientDensePoints: found 1 distinct dense points " \
        "of 4 wanted (codes < 2000)" in out
    assert "ok   continuity  68 modulus samples" in out
    assert "FAIL interleave  InsufficientDensePoints: found 1 distinct dense points " \
        "of 2 wanted (codes < 2000)" in out
    assert out[-1] == 'failures ["code-vs-sum", "extension", "interleave"]'
    # encode re-raises the same stored exception to main's handler
    assert main(["encode", "--instance", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "search exhausted: InsufficientDensePoints: found 1 distinct " \
        "dense points of 2 wanted (codes < 2000)\n"
    # remetrize prints the table encode codes, and stops as encode does
    assert main(["remetrize", "--instance", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "search exhausted: InsufficientDensePoints: found 1 distinct " \
        "dense points of 2 wanted (codes < 2000)\n"


def test_the_certificate_list_obeys_the_enumeration_cap(tmp_path, capsys):
    # side a of cantor-split-0 has one least code below 4, and the K=2 table
    # wants only one point a side; the certificate lists want four and three
    # points a side, so both stop at the declared cap, where a hidden cap of
    # 20,000 read points past it and certified 21 and 16 balls
    path = _write(tmp_path, _catalog_doc("cantor-split-0", table_size=2, enumeration_cap=4))
    assert main(["verify", "--instance", path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL extension  InsufficientDensePoints: found 1 distinct dense points " \
        "of 4 wanted (codes < 4)" in out
    assert out[-1] == 'failures ["extension"]'
    assert main(["remetrize", "--instance", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "search exhausted: InsufficientDensePoints: found 1 distinct " \
        "dense points of 3 wanted (codes < 4)\n"


# --- the sides of a tree-pair cover the ambient ---------------------------------

_CYLINDER_0 = {"rule": "cylinders", "prefixes": [[0]], "child_bound": 1}
_UNCOVERED = "CoverViolation: CoverViolation at node [1] (neither side admits it)"


def _pair_doc(a, complement):
    """MINIMAL with the given sides, at the default bounds (depth 4)."""
    doc = json.loads(MINIMAL)
    doc["set"].update(a=a, complement=complement)
    del doc["bounds"]
    return doc


@pytest.mark.parametrize("a", [_CYLINDER_0, {"rule": "empty"}], ids=["overlap", "degenerate"])
def test_sides_that_miss_an_ambient_stem_fail_every_command(a, tmp_path, capsys):
    path = _write(tmp_path, _pair_doc(a, _CYLINDER_0))
    for command in ("validate", "verify"):
        assert main([command, "--instance", path]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "instance mini", f"FAIL tree-valid  {_UNCOVERED}", 'failures ["tree-valid"]']
    for argv in (["remetrize"], ["encode"], ["embed", "--space", "baire-closed"]):
        assert main(argv + ["--instance", path]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"validation failure: {_UNCOVERED}\n")


def test_a_degenerate_side_is_compared_with_the_ambient_past_the_cover_depth(tmp_path,
                                                                             capsys):
    # binary below position 4 and 0 from there on: it covers every stem shorter
    # than depth 4, but not the stem 0, 0, 0, 0, 1 of index 20
    free_below_4 = {"rule": "dsl", "child_bound": 1,
                    "node": "(all i < len : s(i) <= 1) and (all i < len : i < 4 or s(i) == 0)"}
    path = _write(tmp_path, _pair_doc({"rule": "empty"}, free_below_4))
    assert main(["validate", "--instance", path]) == 0
    capsys.readouterr()
    assert main(["verify", "--instance", path]) == 1
    assert capsys.readouterr().out.splitlines()[2:] == [
        "FAIL degenerate:mini  AssertionError: the nonempty side differs from the ambient "
        "at (0,20)", 'failures ["degenerate:mini"]']


# --- remetrize prints the table encode codes ------------------------------------

@pytest.mark.parametrize("name", [n for n in sorted(CATALOG) if not n.startswith("degenerate")])
def test_remetrize_prints_the_encoded_table_below_its_k(name, capsys):
    assert main(["remetrize", "--instance", name]) == 0
    lines = capsys.readouterr().out.splitlines()
    k = int(lines[2].removeprefix("K "))
    assert k == min(builtin_instance(name).bounds["table_size"], 24)
    entries = lines[3:3 + k * (k + 1) // 2]
    assert main(["encode", "--instance", name]) == 0
    encoded = capsys.readouterr().out.splitlines()[3:-1]
    assert entries == [line for line in encoded if int(line.split()[1]) < k]
    # index j names a new point when no earlier index is at distance 0 from it
    zero = {(int(i), int(j)) for i, j, d in map(str.split, entries) if d == "0/1"}
    assert [j for j in range(k) if any((i, j) in zero for i in range(j))] == []


def test_an_id_is_one_line_without_whitespace_around_it(tmp_path, capsys):
    for bad in ("a\nb", "a\u2028b", "a\x0cb", " padded ", ""):
        with pytest.raises(ParseError, match="'id'"):
            parse_instance(json.dumps(dict(json.loads(MINIMAL), id=bad)))
    # whitespace inside the line is kept, and reads back from the code file
    path = _write(tmp_path, dict(json.loads(MINIMAL), id="mini\tsplit 0"))
    assert main(["encode", "--instance", path]) == 0
    assert parse_code_file(capsys.readouterr().out)[0] == "mini\tsplit 0"


CLI_FLAGS = {
    "validate": {"--instance", "--depth", "--out", "--format"},
    "embed": {"--instance", "--depth", "--witness-bound", "--out"},
    "witness": {"--depth", "--out"},
    "remetrize": {"--instance", "--depth", "--out"},
    "encode": {"--instance", "--depth", "--out"},
    "verify": {"--instance", "--depth", "--budget", "--seed", "--out", "--format"},
}


def test_cli_subcommands_take_only_the_flags_they_read(capsys):
    parser = build_parser()
    shared = set().union(*CLI_FLAGS.values())
    for command, kept in CLI_FLAGS.items():
        for flag in sorted(shared):
            argv = [command, flag, "table" if flag == "--format" else "1"]
            if flag in kept:
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)
    assert main(["verify", "--instance", "cantor-split-0", "--witness-bound", "1"]) == 2


@pytest.mark.parametrize("command, text", [
    ("witness", "witness values printed and the modulus depth (default 4)"),
    ("embed", "length of each printed embedding prefix (default 4, or the instance's "
              "with baire-closed)"),
    ("verify", "tree validation and check depth (default 4 or the instance's)"),
])
def test_cli_depth_help_names_what_the_subcommand_reads(command, text, capsys):
    assert main([command, "--help"]) == 0
    # argparse wraps to the terminal width, so compare with whitespace collapsed
    assert f"--depth DEPTH {text}" in " ".join(capsys.readouterr().out.split())


def test_cli_help_takes_the_bound_defaults_from_default_bounds(capsys):
    assert main(["verify", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"--budget BUDGET scan budget (default {DEFAULT_BOUNDS['budget']} " in out
    assert main(["embed", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert (f"--witness-bound WITNESS_BOUND dense-witness scan ceiling "
            f"(default {DEFAULT_BOUNDS['witness_bound']} ") in out


def test_cli_main_leaves_no_garbage_cycles(capsys):
    argv = ["verify", "--instance", "cantor-split-0"]
    main(argv)  # the warm-up call builds the one parser of the process
    gc.collect()
    main(argv)
    assert gc.collect() == 0
