"""Complexity guards: deterministic counts that grow as the algorithm says.

Each guard runs a command at a few scales, counts its work through wrappers
installed here, and bounds the ratio of counts between scales.  It counts,
never times, so a noisy host cannot fail it, and each bound follows from the
algorithm, as the comment next to it says.

`clopen verify` grows the dense points its distance-oracle scans read to
depth --budget.  On a dsl tree whose node predicate has a position-local
conjunct (`all i < len : φ`, φ reading s only at i), a walk step past an
admitted stem reads that conjunct at the one new entry, so a point grown to
depth n costs O(n) reads, not the O(n^2) of reading each candidate's whole
stem.
"""

import contextlib
import io

from clopen import dsl
from clopen.cli import main

BUDGETS = (128, 256, 512)
# the real compile: monkeypatch undoes a patch only when the test ends, so
# each run wraps this one, not the run before's wrapper
COMPILE = dsl.compile


def _verify_counts(monkeypatch, name, budget):
    """(node-verdict calls, dsl sequence reads) of one `clopen verify --seed 5`
    at the budget: every function dsl.compile makes for the instance's node
    fields, whole predicates and step forms alike, counts its calls and the
    reads of s they make."""
    counts = [0, 0]

    def counting(e):
        fn = COMPILE(e)

        def verdict(env):
            counts[0] += 1
            s = env["s"]

            def read(i):
                counts[1] += 1
                return s(i)

            return fn({**env, "s": read})

        return verdict

    monkeypatch.setattr(dsl, "compile", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--instance", name, "--seed", "5", "--budget", str(budget)]) == 0
    return tuple(counts)


def test_dsl_walks_grow_linearly_in_the_budget(monkeypatch):
    counts = [_verify_counts(monkeypatch, "cantor-dsl-eq01", b) for b in BUDGETS]
    for (calls, reads), (more_calls, more_reads) in zip(counts, counts[1:]):
        # node verdicts: every verdict deeper than the validation and the
        # enumeration look is asked by a walk step, a step asks at most
        # child_bound + 1 = 2 of them, and the scans walk the same points to
        # depth --budget, so the count is affine in the budget with a
        # nonnegative constant and at most doubles (1.75 and 1.85 here)
        assert more_calls <= 2 * calls, (BUDGETS, counts)
        # sequence reads: a step verdict reads three entries, s(i), s(0) and
        # s(1), and the whole predicate reads only the stems that validation,
        # admits and least-child queries ask, whatever the budget; so the
        # reads are affine in the budget too and at most double (1.57 and
        # 1.73 here), where reading each candidate's whole stem makes them
        # quadratic, about 4 times per doubling (96,745, 370,601, 1,458,985)
        assert more_reads <= 2 * reads, (BUDGETS, counts)
