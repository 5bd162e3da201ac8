"""Complexity guards: deterministic counts that grow as the algorithm says.

Each guard runs a command, counts its work through wrappers installed here,
and bounds the ratio of counts between scales, or a count by what the
algorithm needs.  It counts,
never times, so a noisy host cannot fail it, and each bound follows from the
algorithm, as the comment next to it says.

`clopen verify` grows the dense points its distance-oracle scans read to
depth --budget.  On a dsl tree whose node predicate has a position-local
conjunct (`all i < len : φ`, φ reading s only at i), a walk step past an
admitted stem reads that conjunct at the one new entry, so a point grown to
depth n costs O(n) reads, not the O(n^2) of reading each candidate's whole
stem.

Each dense point grows once: the distance-oracle scans read the codes below
40, and every code there holds its least code's entry, so the branches grown
to --budget are the distinct points among them.

The Luzin check reads each probe's cells off its path, through its
embedding, and asks no cell membership of a probe.  A probe's search on each
level starts at its index on the level above, since no smaller index can
qualify there.
"""

import contextlib
import io
from dataclasses import replace

import pytest

from clopen import dsl, verify
from clopen.cli import main
from clopen.instances import build_instance, builtin_instance
from clopen.luzin import LuzinScheme, baire_closed_presentation, cantor_presentation

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


TREE_PAIRS = ["baire-split-0", "cantor-dsl-eq01", "cantor-eq01", "cantor-split-0",
              "cantor-split-00"]
ORACLE_CODES = 40  # check_distance_oracle compares the codes below 40


def _distinct_points(fam):
    """The distinct points among the codes below 40: their least codes, read
    off a fresh family of a side."""
    return sum(fam.is_least_code(s) for s in range(ORACLE_CODES))


@pytest.mark.parametrize("name", TREE_PAIRS)
def test_verify_grows_each_dense_point_once(monkeypatch, name):
    families = []
    real = verify.check_distance_oracle

    def recording(fam, budget, name):
        families.append((fam, budget))
        return real(fam, budget, name)

    monkeypatch.setattr(verify, "check_distance_oracle", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--instance", name, "--seed", "5"]) == 0
    fresh = build_instance(builtin_instance(name)).sum_space
    assert len(families) == 2
    for (fam, budget), rep in zip(families, (fresh.part_a, fresh.part_c)):
        grown = {id(point) for point, _ in fam._points.values()
                 if len(point._prefix) >= budget}
        distinct = _distinct_points(rep.fam)
        # every code holds its least code's entry, so the branches grown to
        # the budget are one per distinct point; before sharing,
        # cantor-split-0 side a grew 21 branches for 10 distinct points
        assert len(grown) == distinct, (name, len(grown), distinct)


def test_luzin_check_asks_no_cell_membership(monkeypatch):
    calls = [0]
    real = LuzinScheme.cell_member_seq

    def counting(self, x, cell):
        calls[0] += 1
        return real(self, x, cell)

    monkeypatch.setattr(LuzinScheme, "cell_member_seq", counting)
    scheme = LuzinScheme(cantor_presentation(witness_bound=32))
    result = verify.check_luzin_scheme(scheme, 3, 30)
    assert result.passed, result.detail
    # a probe has one path, and its embedding reads it, so the check asks no
    # membership; asking the root cell and then each of the witness_bound + 1
    # = 33 children on each of the 3 levels made 30 * (1 + 3 * 33) = 3,000 calls
    assert calls[0] == 0


def test_baire_closed_trio_searches_each_level_from_the_parent_index():
    pres = baire_closed_presentation(build_instance(builtin_instance("baire-split-0")).ambient_fam)
    calls = [0]

    def counted(x, i, dist_to_dense=pres.dist_to_dense):
        calls[0] += 1
        return dist_to_dense(x, i)

    scheme = LuzinScheme(replace(pres, dist_to_dense=counted))
    for result in (verify.check_luzin_scheme(scheme, 4, 16),
                   verify.check_embedding_injective(scheme, 16),
                   verify.check_image_tree_pruned(scheme, 4)):
        assert result.passed, result.detail
    # the trio the embed-luzin bench runs on the baire-split-0 ambient: no
    # index below a point's index on one level qualifies on the next, so each
    # level's search starts there; searching from 0 on every level made 3,110
    assert calls[0] <= 1068
