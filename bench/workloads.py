"""The benchmark's workloads: inputs made from a seed, the ops, and their gate.

A workload is a list of ops run in cycles by one client, each op starting
when the previous one returned (a closed loop).  Ops call the program in
process through `clopen.cli.main(argv)` or its public library functions, and
build their own instance objects, as a command-line user pays that cost on
every run.  Functions are looked up on their module at call time, so that the
traced run sees them through its wrappers.

The correctness gate of an op fails it on an exception, a non-zero exit, a
FAIL check line, or output that differs from the stored expected output
(`golden.json`), from an independent oracle, or from the op's own first
output in the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from oracle import InterleavedOracle

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

TABLE_SIZE = 128        # K of every encode-table instance
GENERATED_PER_SIZE = 2  # seed-generated tree-pairs per alphabet size 2-5
# split-word lengths of the generated tree-pairs, dealt out in a seeded order;
# a word of length 1 costs about a quarter less to encode than a longer one,
# so every run holds the same number of each
GENERATED_DEPTHS = (1, 1, 2, 2, 2, 3, 3, 3)
PROBES = 64             # decode_metric probe pairs per encode-table instance
ORACLE_PROBES = 256     # table entries checked against the oracle per generated instance
DISCRETE_SIZES = range(2, 7)

VERIFY_INSTANCES = ("cantor-split-0", "cantor-split-00", "baire-split-0", "cantor-eq01",
                    "cantor-dsl-eq01", "witness-first-bit", "degenerate-empty",
                    "degenerate-full")

_CANTOR = {"kind": "cantor"}


def _tree_pair(inst_id: str, ambient: dict, a: dict, c: dict) -> dict:
    return {"format": "instance/1", "id": inst_id, "ambient": ambient,
            "set": {"kind": "tree-pair", "a": a, "complement": c},
            "bounds": {"table_size": TABLE_SIZE}}


# the program's interleave catalog, as instance files at the benchmark's K
ENCODE_CATALOG = (
    _tree_pair("cantor-split-0", _CANTOR,
               {"rule": "cylinders", "prefixes": [[0]], "child_bound": 1},
               {"rule": "cylinders", "prefixes": [[1]], "child_bound": 1}),
    _tree_pair("cantor-split-00", _CANTOR,
               {"rule": "cylinders", "prefixes": [[0, 0]], "child_bound": 1},
               {"rule": "cylinders", "prefixes": [[1], [0, 1]], "child_bound": 1}),
    _tree_pair("baire-split-0",
               {"kind": "tree", "tree": {"rule": "cylinders",
                                         "prefixes": [[0], [1], [2], [3], [4]],
                                         "child_bound": 4}},
               {"rule": "cylinders", "prefixes": [[0]], "child_bound": 4},
               {"rule": "cylinders", "prefixes": [[1], [2], [3], [4]], "child_bound": 4}),
    _tree_pair("cantor-eq01", _CANTOR,
               {"rule": "cylinders", "prefixes": [[0, 0], [1, 1]], "child_bound": 1},
               {"rule": "cylinders", "prefixes": [[0, 1], [1, 0]], "child_bound": 1}),
)

KNOWN_DEFECTS = {
    "trio:discrete": "check_luzin_scheme needs the root-cell diameter below 1, but "
                     "discrete distances are exactly 1 and are not rescaled",
}


class OpFailed(Exception):
    pass


@dataclass
class Op:
    key: str
    run: Callable[[], "Result"]
    check: Callable[["Result"], Optional[str]]


@dataclass
class Result:
    text: str            # the output a user sees; must repeat byte for byte
    cli_bytes: int = 0   # bytes the command line wrote
    data: dict = field(default_factory=dict)
    defect: bool = False  # set by the gate when the output shows a known defect


@dataclass
class Workload:
    ops: list[Op]
    rng: random.Random  # draws each cycle's op order


def _mod(name: str):
    return sys.modules[f"clopen.{name}"]


def run_cli(argv: list[str]) -> str:
    """clopen.cli.main(argv) in process; stdout is returned, a non-zero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = _mod("cli").main(argv)
    if rc != 0:
        raise OpFailed(f"exit {rc}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _no_fail_lines(text: str) -> Optional[str]:
    bad = [line for line in text.splitlines() if line.startswith("FAIL")]
    return f"check failed: {bad[0]}" if bad else None


def _same(want: Optional[str], got: str, what: str) -> Optional[str]:
    if want is None:
        return f"no expected output stored for {what}"
    return None if want == got else f"{what} differs from the expected output"


# --- verify-catalog ----------------------------------------------------------------

def verify_ops(vseed: int, golden: dict) -> list[Op]:
    ops = []
    for name in VERIFY_INSTANCES:
        argv = ["verify", "--instance", name, "--seed", str(vseed)]
        want = golden.get(f"verify:{name}")

        def run(argv=argv) -> Result:
            text = run_cli(argv)
            return Result(text, cli_bytes=len(text.encode()))

        def check(res: Result, name=name, want=want) -> Optional[str]:
            return (_no_fail_lines(res.text)
                    or _same(want, unseeded_report(res.text, vseed), f"verify report of {name}"))

        ops.append(Op(f"verify:{name}", run, check))
    return ops


def unseeded_report(text: str, vseed: int) -> str:
    """A verify report with its seed line masked: the reports depend on nothing else."""
    return text.replace(f"\nseed {vseed}\n", "\nseed <seed>\n", 1)


def verify_catalog(rng: random.Random, workdir: Path, golden: dict) -> list[Op]:
    return verify_ops(rng.randrange(1 << 16), golden)


# --- encode-table ------------------------------------------------------------------

# Split words w for which both sides reach their K/2-th distinct dense point
# below code 2**13, by the oracle's supply scan (CylinderSide.distinct_stems at
# K=128), out of all words of length 1-3.  For the other words the one-cylinder
# side [w] is sparser: its enumeration scans further, up to twice the calls of
# an op near code 2**13 and 2-4 s an op near the enumeration cap of 100000, or
# finds too few points to encode at this K at all.  Left in, one such op among
# a run's generated instances would move the run's figures by a tenth or more
# from one seed to the next.
SPLIT_WORDS = {
    2: "0 1 00 01 10 11 000 001 010 100 110",
    3: "0 1 2 00 01 02 10 11 12 20 21 22 000 001 010 020 100 110 120 200 210 220",
    4: "0 1 2 3 00 01 02 10 11 12 20 21 22 30 31 000 001 010 020 100 110 120 200 210 220 "
       "300 310",
    5: "0 1 2 3 4 00 01 02 10 11 12 20 21 22 30 31 40 41 000 001 010 020 100 110 120 200 "
       "210 220 300 310 400 410",
}


def generated_pair(rng: random.Random, index: int, m: int, depth: int) -> dict:
    """A cylinder tree-pair over m symbols split along a word of the given length.

    One side is the cylinder of the word w, the other the cylinders of every
    sibling w[:i] + (c,) with c != w[i]; together they cover the ambient
    space of all sequences over the alphabet.  The alphabet size sets how
    sparse the admissible codes are, the word how long the stems and how
    small the distances get.
    """
    word = [int(c) for c in rng.choice([w for w in SPLIT_WORDS[m].split() if len(w) == depth])]
    siblings = [word[:i] + [c] for i in range(depth) for c in range(m) if c != word[i]]
    sides = [[word], siblings]
    if rng.random() < 0.5:
        sides.reverse()
    ambient = (_CANTOR if m == 2 else
               {"kind": "tree", "tree": {"rule": "cylinders",
                                         "prefixes": [[c] for c in range(m)],
                                         "child_bound": m - 1}})
    return _tree_pair(f"gen-{index}-m{m}-w{''.join(map(str, word))}", ambient,
                      {"rule": "cylinders", "prefixes": sides[0], "child_bound": m - 1},
                      {"rule": "cylinders", "prefixes": sides[1], "child_bound": m - 1})


def encode_ops(docs: list[dict], rng: random.Random, workdir: Path, golden: dict) -> list[Op]:
    ops = []
    for doc in docs:
        want_sha = golden.get(f"encode:{doc['id']}:K{TABLE_SIZE}")
        path = workdir / f"{doc['id']}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        out = workdir / f"{doc['id']}.code"
        probes = [(rng.randrange(TABLE_SIZE), rng.randrange(TABLE_SIZE)) for _ in range(PROBES)]
        oracle_pairs = [tuple(sorted((rng.randrange(TABLE_SIZE), rng.randrange(TABLE_SIZE))))
                        for _ in range(ORACLE_PROBES)]
        oracle: list[InterleavedOracle] = []  # built by the first check, outside any op

        def run(path=path, out=out, probes=probes) -> Result:
            run_cli(["encode", "--instance", str(path), "--out", str(out)])
            text = out.read_text(encoding="utf-8")
            codes = _mod("codes")
            inst_id, k, entries, tail = codes.parse_code_file(text)
            table = codes.RationalMetricTable(
                dist=lambda i, j: entries[(i, j) if i <= j else (j, i)],
                K=k, tail_rule=tail, label=inst_id)
            code = codes.encode_metric(table)
            # the scan window must reach the largest denominator in the table
            window = max(v.denominator for v in entries.values())
            decoded = [codes.decode_metric(code, i, j, window=window) for i, j in probes]
            shown = " ".join(f"{d.numerator}/{d.denominator}" for d in decoded)
            return Result(f"{text}#probes {shown}\n", cli_bytes=len(text.encode()),
                          data={"text": text, "id": inst_id, "k": k, "entries": entries,
                                "decoded": decoded})

        def check(res: Result, doc=doc, want_sha=want_sha, probes=probes,
                  oracle_pairs=oracle_pairs, oracle=oracle) -> Optional[str]:
            d = res.data
            if d["id"] != doc["id"] or d["k"] != TABLE_SIZE:
                return f"code file header {d['id']} K {d['k']} does not match the instance"
            if len(d["entries"]) != TABLE_SIZE * (TABLE_SIZE + 1) // 2:
                return f"code file holds {len(d['entries'])} entries"
            for (i, j), got in zip(probes, d["decoded"]):
                if got != d["entries"][(min(i, j), max(i, j))]:
                    return f"decode_metric({i},{j}) = {got} differs from the code file"
            if want_sha is not None:
                sha = hashlib.sha256(d["text"].encode()).hexdigest()
                return None if sha == want_sha else f"code file of {doc['id']} differs (sha256)"
            if not oracle:
                oracle.append(InterleavedOracle(doc, TABLE_SIZE))
            for i, j in oracle_pairs:
                want = oracle[0].entry(i, j)
                if d["entries"][(i, j)] != want:
                    return f"entry ({i},{j}) = {d['entries'][(i, j)]}, oracle says {want}"
            return None

        ops.append(Op(f"encode:{doc['id']}", run, check))
    return ops


def encode_table(rng: random.Random, workdir: Path, golden: dict) -> list[Op]:
    # the same number of generated instances per alphabet size and per word
    # length in every run
    sizes = sorted(SPLIT_WORDS) * GENERATED_PER_SIZE
    depths = list(GENERATED_DEPTHS)
    rng.shuffle(sizes)
    rng.shuffle(depths)
    docs = list(ENCODE_CATALOG) + [generated_pair(rng, i, m, depth)
                                   for i, (m, depth) in enumerate(zip(sizes, depths))]
    return encode_ops(docs, rng, workdir, golden)


# --- embed-luzin -------------------------------------------------------------------

def _trio(make_presentation, depth: int, probes: int) -> Result:
    luzin, verify = _mod("luzin"), _mod("verify")
    scheme = luzin.LuzinScheme(make_presentation())
    results = (verify.check_luzin_scheme(scheme, depth, probes),
               verify.check_embedding_injective(scheme, probes),
               verify.check_image_tree_pruned(scheme, depth))
    return Result("".join(r.line() + "\n" for r in results))


def embed_ops(n: int, workdir: Path, golden: dict) -> list[Op]:
    """The scheme trio and `clopen embed` on cantor, baire-closed and discrete:n."""
    ambient = workdir / "baire-split-0.json"
    ambient.write_text(json.dumps(ENCODE_CATALOG[2], indent=2) + "\n", encoding="utf-8")

    def cantor():
        return _mod("luzin").cantor_presentation(witness_bound=32)

    def baire_closed():
        instances = _mod("instances")
        inst = instances.parse_instance(ambient.read_text(encoding="utf-8"))
        return _mod("luzin").baire_closed_presentation(instances.build_instance(inst).ambient_fam)

    def discrete():
        return _mod("luzin").discrete_presentation(n)

    ops = []
    for key, make, depth, probes in (("trio:cantor", cantor, 3, 30),
                                     ("trio:baire-closed", baire_closed, 4, 16),
                                     ("trio:discrete", discrete, 4, n)):
        want = golden.get(f"{key}:{n}" if key == "trio:discrete" else key)
        defect = key in KNOWN_DEFECTS
        ops.append(Op(key, lambda make=make, depth=depth, probes=probes: _trio(make, depth, probes),
                      lambda res, key=key, want=want, defect=defect: _check_trio(res, key, want, defect)))
    for key, argv in (("embed:cantor", ["embed", "--space", "cantor"]),
                      ("embed:baire-closed", ["embed", "--space", "baire-closed",
                                              "--instance", str(ambient)]),
                      ("embed:discrete", ["embed", "--space", f"discrete:{n}"])):
        want = golden.get(f"{key}:{n}" if key == "embed:discrete" else key)

        def run(argv=argv) -> Result:
            text = run_cli(argv)
            return Result(text, cli_bytes=len(text.encode()))

        # twice per cycle: with nine ops a cycle, the median falls inside one
        # op's cluster of latencies instead of between two of them
        ops += [Op(key, run, lambda res, key=key, want=want: _same(want, res.text, key))] * 2
    return ops


def embed_luzin(rng: random.Random, workdir: Path, golden: dict) -> list[Op]:
    return embed_ops(rng.choice(DISCRETE_SIZES), workdir, golden)


def _check_trio(res: Result, key: str, want: Optional[str], defect: bool) -> Optional[str]:
    if want is None:
        return f"no expected output stored for {key}"
    failing = _no_fail_lines(res.text)
    if failing and defect and res.text == want:
        res.defect = True  # the known defect, exactly as recorded
        return None
    if failing or res.text == want:
        return failing
    if defect:
        # a fix of the known defect may turn its FAIL line into any ok line
        pairs = list(zip(want.splitlines(), res.text.splitlines()))
        if len(pairs) == len(want.splitlines()) == len(res.text.splitlines()) and all(
                w == g or (w.startswith("FAIL") and g.split()[:2] == ["ok", w.split()[1]])
                for w, g in pairs):
            return None
    return f"{key} differs from the expected output"


WORKLOADS = {
    "verify-catalog": verify_catalog,
    "encode-table": encode_table,
    "embed-luzin": embed_luzin,
}


def build(name: str, seed: int, workdir: Path, golden: dict) -> Workload:
    """Make a workload's inputs from the seed; the files go to workdir."""
    rng = random.Random(seed)
    ops = WORKLOADS[name](rng, workdir, golden)
    return Workload(ops, rng)
