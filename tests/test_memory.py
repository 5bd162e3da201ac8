"""Memory of repeated in-process runs.

Every command builds its instance afresh, so once a first round has filled
the bounded module-level caches, later rounds of the same commands must not
leave more memory behind than the round before.
"""

import contextlib
import gc
import io
import tracemalloc

from clopen.cli import main

COMMANDS = [["verify", "--instance", "cantor-split-0"],
            ["encode", "--instance", "cantor-eq01"],
            ["remetrize", "--instance", "baire-split-0"]]


def _round():
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in COMMANDS:
            assert main(argv) == 0, argv


def test_repeated_runs_leave_memory_flat():
    _round()  # the warm-up fills the decode cache and builds the parser
    tracemalloc.start()
    try:
        sizes = []
        for _ in range(3):
            _round()
            gc.collect()  # count what the round keeps, not cycles awaiting collection
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[-1] - sizes[0] < 64 * 1024, sizes
