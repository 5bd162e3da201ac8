"""The finite use of `clopen encode`: a code file depends only on the verdicts
that rendering it asks for.

Each part of a tree-pair instance (the ambient tree and the two side trees)
answers through its predicate and, for a dsl tree with a position-local
conjunct, its step verdict.  A first run renders the code file of
BuiltInstance.table() and records the stems each part is asked about.  A
second run, on freshly parsed parts, negates every verdict outside that
record.  Its code file is byte-identical, and it asks no stem outside the
record: no unasked stem, cache or iteration order reaches the output.
"""

import pytest

from clopen.codes import render_code_file
from clopen.instances import build_instance, builtin_instance

TREE_PAIRS = ["baire-split-0", "cantor-dsl-eq01", "cantor-eq01", "cantor-split-0",
              "cantor-split-00"]


def _code_file(name, answer):
    """The code file of the catalog instance, with every verdict of part p on
    a stem u answered by answer(p, verdict, u)."""
    inst = builtin_instance(name)
    for part, tree in enumerate(inst.parts):
        for attr in ("_admits", "_step_verdict"):
            verdict = getattr(tree, attr)
            if verdict is not None:
                setattr(tree, attr, lambda u, part=part, verdict=verdict: answer(part, verdict, u))
    return render_code_file(build_instance(inst).table(), inst.id)


@pytest.mark.parametrize("name", TREE_PAIRS)
def test_the_code_file_reads_only_the_stems_it_asks(name):
    asked = [set(), set(), set()]

    def record(part, verdict, u):
        asked[part].add(u)
        return verdict(u)

    text = _code_file(name, record)
    outside = [set(), set(), set()]

    def perturbed(part, verdict, u):
        if u in asked[part]:
            return verdict(u)
        outside[part].add(u)
        return not verdict(u)

    assert _code_file(name, perturbed) == text
    assert outside == [set(), set(), set()]
    # the walks read past the validated depth 4: between 281 and 2,431 stems
    # are asked per instance, the deepest of length 12 to 16
    assert max(len(u) for stems in asked for u in stems) > build_instance(
        builtin_instance(name)).file.bounds["depth"]
