"""No hash-order dependence in `verify` or the Luzin scheme.

`clopen verify --instance cantor-dsl-eq01 --seed 7 --format full-report` and
the scheme trio (check_luzin_scheme, check_embedding_injective and
check_image_tree_pruned) print the same bytes under PYTHONHASHSEED 0, 1 and
12345, each in a fresh interpreter.  The trio runs on the two-symbol space at
witness bound 32 (depth 3, 30 probes), on the baire-split-0 ambient (depth 4,
16 probes) and on the 4-point discrete space (depth 4, 4 probes).  The image
tree keeps each level's cells in a set, and the scheme's memos are keyed by
point handles, so an iteration over either would show here.
"""

import os
import subprocess
import sys
from pathlib import Path

import clopen

SEEDS = ("0", "1", "12345")

SCRIPT = """
import sys
from clopen.cli import main
from clopen.instances import build_instance, builtin_instance
from clopen.luzin import (LuzinScheme, baire_closed_presentation, cantor_presentation,
                          discrete_presentation)
from clopen.verify import check_embedding_injective, check_image_tree_pruned, check_luzin_scheme

print("exit", main(["verify", "--instance", "cantor-dsl-eq01", "--seed", "7",
                    "--format", "full-report"]))
ambient = build_instance(builtin_instance("baire-split-0")).ambient_fam
for pres, depth, probes in ((cantor_presentation(witness_bound=32), 3, 30),
                            (baire_closed_presentation(ambient), 4, 16),
                            (discrete_presentation(4), 4, 4)):
    scheme = LuzinScheme(pres)
    for result in (check_luzin_scheme(scheme, depth, probes),
                   check_embedding_injective(scheme, probes),
                   check_image_tree_pruned(scheme, depth)):
        print(result.line())
"""


def test_verify_and_the_scheme_trio_do_not_depend_on_the_hash_seed():
    src = str(Path(clopen.__file__).resolve().parent.parent)
    runs = [subprocess.Popen([sys.executable, "-c", SCRIPT], stdout=subprocess.PIPE,
                             env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src})
            for seed in SEEDS]
    outputs = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0] * len(SEEDS)
    assert outputs[0] == outputs[1] == outputs[2]
    lines = outputs[0].decode().splitlines()
    assert "exit 0" in lines
    assert [line.split()[1] for line in lines[-9:]] == [
        f"{check}:{space}" for space in ("cantor", "closed[ambient]", "discrete-4")
        for check in ("luzin", "embed-injective", "image-pruned")]
