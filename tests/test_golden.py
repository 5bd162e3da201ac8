"""Golden outputs: the command line and the scheme checks must repeat byte for byte.

Two sources of expected output:

* `bench/golden.json`, the benchmark's gate, holds the `verify` report of
  every catalog instance (seed line masked), the `clopen embed` outputs and
  the cantor and baire-closed scheme trios;
* `tests/golden/` holds the stdout of the README commands and of `validate`,
  `remetrize` and `encode` for every catalog instance.

Regenerate `tests/golden/` only from a commit whose outputs are known right:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from clopen.cli import main
from clopen.instances import CATALOG, build_instance, builtin_instance
from clopen.luzin import (LuzinScheme, baire_closed_presentation, cantor_presentation,
                          discrete_presentation)
from clopen.verify import (check_embedding_injective, check_image_tree_pruned,
                           check_luzin_scheme)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
BENCH_GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))

README_COMMANDS = {
    "validate.cantor-split-0": ["validate", "--instance", "cantor-split-0"],
    "embed.cantor": ["embed", "--space", "cantor", "--count", "8"],
    "embed.baire-closed": ["embed", "--space", "baire-closed", "--instance", "baire-split-0"],
    "witness.zero-tail": ["witness", "--matrix", "zero-tail", "--preperiod", "0", "1",
                          "--period", "0"],
    "remetrize.cantor-split-0": ["remetrize", "--instance", "cantor-split-0"],
    "encode.cantor-split-00": ["encode", "--instance", "cantor-split-00"],
    "verify.witness-first-bit.full-report": ["verify", "--instance", "witness-first-bit",
                                             "--format", "full-report"],
}

STORED = dict(README_COMMANDS)
for _name in CATALOG:
    for _cmd in ("validate", "remetrize", "encode"):
        STORED[f"{_cmd}.{_name}"] = [_cmd, "--instance", _name]


def run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    assert rc == 0, f"{argv} exited {rc}"
    return out.getvalue()


@pytest.mark.parametrize("key", sorted(STORED))
def test_stored_command_output(key):
    want = (GOLDEN_DIR / f"{key}.txt").read_text(encoding="utf-8")
    assert run(STORED[key]) == want


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_verify_report(name):
    text = run(["verify", "--instance", name, "--seed", "0"])
    assert text.replace("\nseed 0\n", "\nseed <seed>\n", 1) == BENCH_GOLDEN[f"verify:{name}"]


@pytest.mark.parametrize("key", sorted(k for k in BENCH_GOLDEN if k.startswith("embed:")))
def test_embed_output(key):
    space = key.split(":", 1)[1]
    argv = ["embed", "--space", space]
    if space == "baire-closed":
        argv += ["--instance", "baire-split-0"]
    assert run(argv) == BENCH_GOLDEN[key]


def _trio(pres, depth: int, probes: int) -> str:
    scheme = LuzinScheme(pres)
    results = (check_luzin_scheme(scheme, depth, probes),
               check_embedding_injective(scheme, probes),
               check_image_tree_pruned(scheme, depth))
    return "".join(r.line() + "\n" for r in results)


def test_trio_cantor():
    assert _trio(cantor_presentation(witness_bound=32), 3, 30) == BENCH_GOLDEN["trio:cantor"]


def test_trio_baire_closed():
    fam = build_instance(builtin_instance("baire-split-0")).ambient_fam
    assert _trio(baire_closed_presentation(fam), 4, 16) == BENCH_GOLDEN["trio:baire-closed"]


@pytest.mark.parametrize("n", range(2, 7))
def test_trio_discrete(n):
    # the rescaled discrete metric keeps the root diameter below 1: the luzin
    # line, which failed when distances were exactly 1, passes; the rest is unchanged
    lines = _trio(discrete_presentation(n), 4, n).splitlines()
    want = BENCH_GOLDEN[f"trio:discrete:{n}"].splitlines()
    assert lines[0] == f"ok   luzin:discrete-{n}  {n} probes to depth 4"
    assert lines[1:] == want[1:]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for key, argv in sorted(STORED.items()):
        (GOLDEN_DIR / f"{key}.txt").write_text(run(argv), encoding="utf-8")
    print(f"wrote {len(STORED)} golden outputs to {GOLDEN_DIR}", file=sys.stderr)
