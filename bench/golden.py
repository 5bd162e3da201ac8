"""Write golden.json: the expected outputs the benchmark gates every op against.

    python3 bench/golden.py      (from the repository root)

Runs every seed-independent op once on the program in ./src and records its
output: the verify report of each catalog instance (seed line masked), the
sha256 of each catalog code file at the benchmark's K, and the scheme-trio and
`clopen embed` outputs for every discrete size a seed can draw.  Regenerate
only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

import clopen.cli  # noqa: E402,F401 - imports every layer
import workloads  # noqa: E402


def main() -> int:
    golden: dict[str, str] = {}
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for op in workloads.verify_ops(0, {}):
            golden[op.key] = workloads.unseeded_report(op.run().text, 0)
        for op in workloads.encode_ops(list(workloads.ENCODE_CATALOG), random.Random(0),
                                       Path(tmp), {}):
            text = op.run().data["text"]
            golden[f"{op.key}:K{workloads.TABLE_SIZE}"] = hashlib.sha256(text.encode()).hexdigest()
        for n in workloads.DISCRETE_SIZES:
            for op in workloads.embed_ops(n, Path(tmp), {}):
                key = f"{op.key}:{n}" if op.key.endswith(":discrete") else op.key
                golden[key] = op.run().text
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(f"wrote {len(golden)} expected outputs to {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
