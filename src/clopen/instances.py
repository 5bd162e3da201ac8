"""Instance files: the JSON schema, its parser, and the built-in catalog.

An instance names an ambient sequence space, a set descriptor (a pair of
trees, a pair of least-witness matrices, or a catalog entry), and the bounds
that make every search total.  Parsing is strict: unknown kinds, missing
fields, non-positive bounds and malformed predicates are position-annotated
errors.  The parser checks each descriptor by building it, once, and the
parsed file keeps what it built; build_instance validates and wires those
parts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Container, Optional

from . import dsl
from .baire import BairePoint, eventually_periodic
from .codes import RationalMetricTable, validate_metric_table
from .coding import decode, lh
from .dsl import ParseError
from .remetrize import SumSpace, identity_representation, interleave, witness_representation
from .trees import (CoverViolation, DensePointFamily, EmptyTreeViolation, PrunedTree,
                    constant_tree, cylinder_union_tree, full_baire_tree, full_cantor_tree,
                    iter_admissible, validate_pruned)
from .witness import MATRIX_CATALOG, Pi02Matrix


class UnknownCatalogName(Exception):
    def __init__(self, name: str, kind: str = "catalog"):
        self.name = name
        super().__init__(f"unknown {kind} name {name!r}")


DEFAULT_BOUNDS = {
    "depth": 4,
    "budget": 256,
    "witness_bound": 64,
    "enumeration_cap": 100_000,
    "table_size": 32,
}


@dataclass
class InstanceFile:
    """A parsed instance document.  parts holds what the parser built from its
    descriptors: the ambient tree and the two sides' trees or matrices, each
    labelled for reports (a catalog-kind file holds its entry's parts).  It
    is not part of the document."""

    id: str
    ambient: dict[str, Any]
    set_desc: dict[str, Any]
    bounds: dict[str, int]
    parts: tuple[PrunedTree, PrunedTree | Pi02Matrix, PrunedTree | Pi02Matrix] = field(
        compare=False, repr=False)


# the keys each descriptor reads besides its kind or rule; it accepts no other
_TOP_KEYS = ("format", "id", "ambient", "set", "bounds")
_SET_KINDS = {"tree-pair": ("a", "complement"), "catalog": ("name",),
              "pi02-pair": ("a", "complement", "alphabet_bound")}
_AMBIENT_KINDS = {"cantor": (), "baire": (), "tree": ("tree",)}
_TREE_RULES = {"full": (), "cantor": (), "empty": (), "constant": ("value",),
               "cylinders": ("prefixes", "child_bound"), "dsl": ("node", "child_bound"),
               "explicit": ("nodes", "depth", "continuation")}
_MATRIX_RULES = {"catalog": ("name",), "dsl": ("r", "use_bound", "per_n_budget")}


def _err(msg: str) -> ParseError:
    return ParseError(0, 0, msg)


def _only(desc: dict[str, Any], keys: tuple[str, ...], where: str) -> None:
    """A ParseError saying where, for the first key of desc not among keys."""
    unknown = sorted(set(desc) - set(keys))
    if unknown:
        raise _err(f"{where}unknown key {unknown[0]!r}")


def _is_nat(x: Any) -> bool:
    """A JSON natural number; JSON's true and false are not numbers here."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _is_name(x: Any, names: Container[str]) -> bool:
    return isinstance(x, str) and x in names


def _nat(desc: dict[str, Any], fld: str, path: str, need: str, default: Any = None) -> int:
    """The field, a natural number (the default when it is absent); else a
    ParseError at the path saying what the descriptor needs."""
    value = desc.get(fld, default)
    if not _is_nat(value):
        raise _err(f"{path}: {need}")
    return value


# what each expression field may read: its sort, its names in the order its
# compiled function takes them, and which of those names are sequences
_EXPR_FIELDS = {
    "node": ("bool", ("s", "len"), frozenset({"s"})),      # tree node
    "r": ("bool", ("a", "n", "m"), frozenset({"a"})),      # matrix
    "use_bound": ("nat", ("n", "m"), frozenset()),         # matrix
    "rule": ("nat", ("n",), frozenset()),                  # point
}


def _expr(fld: str, text: Any, path: str,
          build: Callable[[dsl.Expr, tuple[str, ...]], Any]) -> Any:
    """build(e, names): e is the field's parsed expression, of the field's
    sort and reading only the field's names, and names lists them in the
    order the field's function takes them.  An expression nested past the
    recursion limit is a ParseError naming the field."""
    if not isinstance(text, str):
        raise _err(f"{path}: {fld!r} must be an expression string")
    sort, names, sequences = _EXPR_FIELDS[fld]
    try:
        return build(dsl.parse_field(text, sort, frozenset(names) - sequences, sequences), names)
    except RecursionError:
        raise _err(f"{path}: {fld!r} is nested too deeply") from None


def merge_bounds(bounds: dict[str, int], overrides: dict[str, Any]) -> dict[str, int]:
    """The bounds with the overrides applied, each a known, positive integer bound."""
    if not isinstance(overrides, dict):
        raise _err("'bounds' must be an object")
    merged = dict(bounds)
    for key, value in overrides.items():
        if key not in DEFAULT_BOUNDS:
            raise _err(f"unknown bound {key!r}")
        if not _is_nat(value) or value == 0:
            raise _err(f"bound {key!r} must be a positive integer")
        merged[key] = value
    return merged


def load_json(text: str, where: str = "") -> Any:
    """The JSON value of text.  Malformed JSON, an integer past the int digit
    limit and nesting past the recursion limit are a ParseError saying where."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, where + exc.msg) from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(0, 0, f"{where}{exc}") from None


def parse_instance(text: str) -> InstanceFile:
    """Parse and validate an instance document; its descriptors are checked
    by building them, and the file keeps what they built as its parts."""
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise _err("instance document must be a JSON object")
    _only(doc, _TOP_KEYS, "")
    if doc.get("format") != "instance/1":
        raise _err(f"unknown format {doc.get('format')!r}")
    inst_id = doc.get("id")
    # the id is a line of the code file, read back by splitlines and strip
    if not isinstance(inst_id, str) or inst_id.splitlines() != [inst_id.strip()]:
        raise _err("instance needs an 'id': a nonempty string on one line, with no "
                   "whitespace around it")

    ambient = doc.get("ambient")
    ambient_tree = _ambient_tree(ambient)

    set_desc = doc.get("set")
    if not isinstance(set_desc, dict) or not _is_name(set_desc.get("kind"), _SET_KINDS):
        raise _err("set descriptor must have kind tree-pair, pi02-pair or catalog")
    _only(set_desc, ("kind", *_SET_KINDS[set_desc["kind"]]), "set: ")
    base = DEFAULT_BOUNDS
    if set_desc["kind"] == "tree-pair":
        parts = (ambient_tree,
                 build_tree(set_desc.get("a"), "set.a", label=f"{inst_id}:a"),
                 build_tree(set_desc.get("complement"), "set.complement",
                            label=f"{inst_id}:c"))
    elif set_desc["kind"] == "pi02-pair":
        parts = (ambient_tree, build_matrix(set_desc.get("a"), "set.a"),
                 build_matrix(set_desc.get("complement"), "set.complement"))
        if not _is_nat(set_desc.get("alphabet_bound", 1)):
            raise _err("set.alphabet_bound must be a natural number")
    else:
        if not _is_name(set_desc.get("name"), CATALOG):
            raise UnknownCatalogName(str(set_desc.get("name")))
        entry = builtin_instance(set_desc["name"])
        if ambient != entry.ambient:
            raise _err(f"ambient: catalog entry {entry.id!r} needs its ambient {entry.ambient}")
        base = entry.bounds  # the file overrides the entry's
        parts = entry.parts

    bounds = merge_bounds(base, doc.get("bounds", {}))
    return InstanceFile(id=inst_id, ambient=ambient, set_desc=set_desc, bounds=bounds,
                        parts=parts)


def build_tree(desc: Any, path: str, label: str) -> PrunedTree:
    """The tree a descriptor names, labelled label, each field checked where
    it is read.

    A malformed field is a ParseError naming path, the descriptor's place in
    the instance document; an unknown rule is an UnknownCatalogName.
    """
    if not isinstance(desc, dict) or "rule" not in desc:
        raise _err(f"{path}: a tree descriptor needs a 'rule' field")
    rule = desc["rule"]
    if not _is_name(rule, _TREE_RULES):
        raise UnknownCatalogName(str(rule), kind="tree rule")
    _only(desc, ("rule", *_TREE_RULES[rule]), f"{path}: ")
    if rule == "full":
        return full_baire_tree()
    if rule == "cantor":
        return full_cantor_tree()
    if rule == "empty":
        return PrunedTree(lambda u: False, lambda u: 0, label=label)
    if rule == "constant":
        return constant_tree(_nat(desc, "value", path, "constant trees need a natural 'value'"))
    if rule == "cylinders":
        prefixes = desc.get("prefixes")
        if not (isinstance(prefixes, list) and prefixes
                and all(isinstance(p, list) and all(map(_is_nat, p)) for p in prefixes)):
            raise _err(f"{path}: cylinder trees need a nonempty list of natural prefixes")
        floor = _nat(desc, "child_bound", path, "'child_bound' must be a natural number", 0)
        return cylinder_union_tree(prefixes, label=label, child_floor=floor)
    if rule == "dsl":
        admits, step = _expr("node", desc.get("node"), path, _node_verdicts)
        bound = _nat(desc, "child_bound", path, "dsl trees need a natural 'child_bound'")
        return _DslTree(admits, step, bound, label)
    # the explicit rule
    nodes, depth = desc.get("nodes"), desc.get("depth")
    if not (isinstance(nodes, list) and all(map(_is_nat, nodes)) and _is_nat(depth)):
        raise _err(f"{path}: explicit trees need natural 'nodes' codes and 'depth'")
    # decoding loops once per entry, so lengths are read (one unpair) first: a
    # node longer than depth is never read, and a downward-closed list holds a
    # node of length L together with its L proper prefixes
    for c in nodes:
        if lh(c) > min(depth, len(nodes) - 1):
            raise _err(f"{path}: node code {c} has length {lh(c)}, more than 'depth' "
                       f"or than {len(nodes)} listed codes can close downward")
    continuation = build_tree(desc.get("continuation"), f"{path}.continuation",
                              label=f"{label}.continuation")
    return explicit_tree(nodes, depth, continuation, label=label)


_Verdict = Callable[[tuple[int, ...]], bool]  # a verdict on stems


def _node_verdicts(node: dsl.Expr, names: tuple[str, str]) -> tuple[_Verdict, Optional[_Verdict]]:
    """The node predicate on stems, over names (the sequence, then the
    length), and, when the node has a position-local conjunct, its verdict on
    a child of an admitted stem, which reads that conjunct at the child's
    last entry only (dsl.position_step)."""
    step = dsl.position_step(node, *names)
    return (_on_stems(dsl.compile(node, names), 0),
            None if step is None else _on_stems(dsl.compile(step[0], names + step[1]),
                                                len(step[1])))


def _on_stems(fn: dsl.Compiled, positions: int) -> _Verdict:
    """fn as a predicate on stems u: its first argument, s, reads u (0 past
    its ends), its second, len, is len(u), and each of its next positions
    arguments is u's last position."""

    def verdict(u: tuple[int, ...]) -> bool:
        n = len(u)
        return fn(lambda i: u[i] if 0 <= i < n else 0, n, *(n - 1,) * positions)

    return verdict


class _DslTree(PrunedTree):
    """A tree whose node predicate is a compiled expression over (s, len),
    with the step verdict of its position-local conjuncts, or None when it
    has none."""

    def __init__(self, admits: _Verdict, step: Optional[_Verdict], child_bound: int,
                 label: str):
        super().__init__(admits, lambda u: child_bound, label)
        self._step_verdict = step


def explicit_tree(nodes: list[int], depth: int, continuation: PrunedTree,
                  label: str) -> PrunedTree:
    """Admissible codes listed up to a depth, a catalog rule beyond it.

    Past the listed depth a stem is admitted when its listed prefix is and
    the continuation tree admits the suffix, so each listed leaf grows a copy
    of the continuation under it.
    """
    listed = {decode(c) for c in nodes}

    def admits(u: tuple[int, ...]) -> bool:
        if len(u) <= depth:
            return u in listed
        return u[:depth] in listed and continuation.admits(u[depth:])

    def child_bound(u: tuple[int, ...]) -> int:
        if len(u) >= depth:
            return continuation.child_bound(u[depth:])
        best = 0
        for v in listed:
            if len(v) > len(u) and v[: len(u)] == u:
                best = max(best, v[len(u)])
        return best

    return PrunedTree(admits, child_bound, label=label)


def point_from_descriptor(desc: dict[str, Any]):
    """A point from its wire form.

    Eventually periodic points travel as {"pre": [...], "period": [...]};
    rule-based points as {"rule": "<arithmetic expression in n>"}.
    """
    if not isinstance(desc, dict):
        raise _err("a point descriptor must be a JSON object")
    _only(desc, ("rule",) if "rule" in desc else ("pre", "period"), "point: ")
    if "rule" in desc:
        return BairePoint(_expr("rule", desc["rule"], "point", dsl.compile))
    pre, period = desc.get("pre", []), desc.get("period")
    ok = (isinstance(pre, list) and isinstance(period, list) and period
          and all(map(_is_nat, pre + period)))
    if not ok:
        raise _err("a point descriptor needs 'rule' or 'pre'/'period' lists")
    return eventually_periodic(pre, period)


def build_matrix(desc: Any, path: str) -> Pi02Matrix:
    """The matrix a descriptor names, each field checked where it is read
    (errors as in build_tree)."""
    if not isinstance(desc, dict) or "rule" not in desc:
        raise _err(f"{path}: a matrix descriptor needs a 'rule' field")
    rule = desc["rule"]
    if not _is_name(rule, _MATRIX_RULES):
        raise UnknownCatalogName(str(rule), kind="matrix rule")
    _only(desc, ("rule", *_MATRIX_RULES[rule]), f"{path}: ")
    if rule == "catalog":
        if not _is_name(desc.get("name"), MATRIX_CATALOG):
            raise UnknownCatalogName(str(desc.get("name")), kind="matrix")
        return MATRIX_CATALOG[desc["name"]]()
    r, use_bound = (_expr(fld, desc.get(fld), path, dsl.compile) for fld in ("r", "use_bound"))
    budget = _nat(desc, "per_n_budget", path, "dsl matrices need a natural 'per_n_budget'")
    return Pi02Matrix(r=r, use_bound=use_bound, per_n_budget=budget, label="dsl-matrix")


@dataclass
class BuiltInstance:
    """All runtime objects of one instance, ready for the commands and checks."""

    file: InstanceFile
    ambient_fam: DensePointFamily
    sum_space: Optional[SumSpace]
    degenerate: Optional[str] = None

    def table(self) -> RationalMetricTable:
        """The summed space's interleaved table at the instance's table_size
        and enumeration_cap, checked against the metric axioms: the one table
        `clopen encode` codes, `clopen remetrize` prints and the `interleave`
        check round-trips.  A degenerate instance has none (ValueError)."""
        if self.sum_space is None:
            raise ValueError(f"degenerate instance {self.file.id} has no side families")
        bounds = self.file.bounds
        table = interleave(self.sum_space, bounds["table_size"], bounds["enumeration_cap"],
                           label=self.file.id)
        validate_metric_table(table)
        return table


def _ambient_tree(desc: Any) -> PrunedTree:
    """The tree of the ambient space; an unknown kind is an UnknownCatalogName."""
    if not isinstance(desc, dict):
        raise UnknownCatalogName(str(desc), kind="ambient space")
    kind = desc.get("kind")
    if not _is_name(kind, _AMBIENT_KINDS):
        raise UnknownCatalogName(str(kind), kind="ambient space")
    _only(desc, ("kind", *_AMBIENT_KINDS[kind]), "ambient: ")
    if kind == "cantor":
        return full_cantor_tree()
    if kind == "baire":
        return full_baire_tree()
    return build_tree(desc.get("tree"), "ambient.tree", label="ambient")


def build_instance(inst: InstanceFile) -> BuiltInstance:
    """Validate the parts parse_instance built to the instance's depth and
    wire them into every runtime object the instance declares.  A catalog-kind
    file runs as its entry, under the entry's id and set."""
    if inst.set_desc["kind"] == "catalog":
        # parse_instance checked the entry and its ambient, and kept its parts
        entry = CATALOG[inst.set_desc["name"]]
        inst = replace(inst, id=entry["id"], set_desc=entry["set"])
    depth = inst.bounds["depth"]
    ambient_tree, side_a, side_c = inst.parts
    validate_pruned(ambient_tree, depth)
    ambient_fam = DensePointFamily(ambient_tree)

    if inst.set_desc["kind"] == "tree-pair":
        empty = []
        for side, tree in (("empty-set", side_a), ("empty-complement", side_c)):
            try:
                validate_pruned(tree, depth)
            except EmptyTreeViolation:
                empty.append(side)
        # a pruned tree admits every prefix of its branches, so an ambient stem
        # that neither side admits holds a point in neither
        for u in iter_admissible(ambient_tree, depth - 1):
            if not (side_a.admits(u) or side_c.admits(u)):
                raise CoverViolation(u, "(neither side admits it)")
        if empty:
            return BuiltInstance(inst, ambient_fam, None, degenerate=empty[0])
        part_a = identity_representation(side_a)
        part_c = identity_representation(side_c)
    else:
        bound = inst.set_desc.get("alphabet_bound", 1)
        part_a = witness_representation(side_a, bound)
        part_c = witness_representation(side_c, bound)
    return BuiltInstance(inst, ambient_fam, SumSpace(part_a, part_c, ambient_fam))


# --- the built-in catalog -----------------------------------------------------

def _tree_pair(inst_id: str, ambient: dict, a: dict, c: dict) -> dict:
    return {
        "format": "instance/1",
        "id": inst_id,
        "ambient": ambient,
        "set": {"kind": "tree-pair", "a": a, "complement": c},
    }


_CANTOR = {"kind": "cantor"}

CATALOG: dict[str, dict[str, Any]] = {
    "cantor-split-0": _tree_pair(
        "cantor-split-0", _CANTOR,
        {"rule": "cylinders", "prefixes": [[0]], "child_bound": 1},
        {"rule": "cylinders", "prefixes": [[1]], "child_bound": 1},
    ),
    "cantor-split-00": _tree_pair(
        "cantor-split-00", _CANTOR,
        {"rule": "cylinders", "prefixes": [[0, 0]], "child_bound": 1},
        {"rule": "cylinders", "prefixes": [[1], [0, 1]], "child_bound": 1},
    ),
    "baire-split-0": _tree_pair(
        "baire-split-0",
        {"kind": "tree",
         "tree": {"rule": "cylinders", "prefixes": [[0], [1], [2], [3], [4]],
                  "child_bound": 4}},
        {"rule": "cylinders", "prefixes": [[0]], "child_bound": 4},
        {"rule": "cylinders", "prefixes": [[1], [2], [3], [4]], "child_bound": 4},
    ),
    "cantor-eq01": _tree_pair(
        "cantor-eq01", _CANTOR,
        {"rule": "cylinders", "prefixes": [[0, 0], [1, 1]], "child_bound": 1},
        {"rule": "cylinders", "prefixes": [[0, 1], [1, 0]], "child_bound": 1},
    ),
    "cantor-dsl-eq01": _tree_pair(
        "cantor-dsl-eq01", _CANTOR,
        {"rule": "dsl", "child_bound": 1,
         "node": "(all i < len : s(i) <= 1) and (len < 2 or s(0) == s(1))"},
        {"rule": "dsl", "child_bound": 1,
         "node": "(all i < len : s(i) <= 1) and (len < 2 or s(0) != s(1))"},
    ),
    "witness-first-bit": {
        "format": "instance/1",
        "id": "witness-first-bit",
        "ambient": _CANTOR,
        "set": {
            "kind": "pi02-pair",
            "a": {"rule": "catalog", "name": "first-value-0"},
            "complement": {"rule": "catalog", "name": "first-value-1"},
            "alphabet_bound": 1,
        },
        # pair-position codes grow fast, so the in-cap dense enumeration of a
        # pair tree is short; the table size reflects that honestly
        "bounds": {"table_size": 2, "enumeration_cap": 2000},
    },
    "degenerate-empty": _tree_pair(
        "degenerate-empty", _CANTOR,
        {"rule": "empty"},
        {"rule": "cantor"},
    ),
    "degenerate-full": _tree_pair(
        "degenerate-full", _CANTOR,
        {"rule": "cantor"},
        {"rule": "empty"},
    ),
}


def builtin_instance(name: str) -> InstanceFile:
    """The canned instance with the given name, via the ordinary parser."""
    doc = CATALOG.get(name)
    if doc is None:
        raise UnknownCatalogName(name)
    return parse_instance(json.dumps(doc))
