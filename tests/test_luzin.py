import gc
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from clopen.baire import eventually_periodic, exact_distance
from clopen.coding import encode
from clopen.luzin import (CellSearchExhausted, LuzinScheme, baire_closed_presentation,
                          cantor_presentation, discrete_presentation, rescale, split_level)
from clopen.trees import (DensePointFamily, cylinder_union_tree, dense_pn_distance,
                          full_cantor_tree, validate_pruned)
from clopen.verify import (check_embedding_injective, check_image_tree_pruned,
                           check_luzin_scheme)


def small_scheme(bound=24):
    return LuzinScheme(cantor_presentation(witness_bound=bound))


def test_rescale_values():
    d = rescale(lambda x: Fraction(x))
    assert d(0) == 0
    assert d(1) == Fraction(1, 2)
    assert d(3) == Fraction(3, 4)


def test_rescale_is_d_over_one_plus_d_in_lowest_terms():
    rng = random.Random(17)
    values = [Fraction(0), 0, *range(1, 6), *map(Fraction, range(1, 6))]
    values += [Fraction(rng.randrange(200), rng.randrange(1, 200)) for _ in range(300)]
    scaled = rescale(lambda d: d)
    for d in values:
        v = scaled(d)
        assert isinstance(v, Fraction)
        assert v == Fraction(d) / (1 + Fraction(d))
        assert gcd(v.numerator, v.denominator) == 1 and v.denominator > 0


def test_cantor_dense_family_is_injective_and_dense():
    pres = cantor_presentation(witness_bound=64)
    seen = set()
    for i in range(64):
        key = pres.dense_point(i).prefix(8)
        assert key not in seen
        seen.add(key)
    # a point of every depth-4 cylinder appears among the first 16
    prefixes = {pres.dense_point(i).prefix(4) for i in range(16)}
    assert len(prefixes) == 16


def test_ball_member_consistent_with_dist():
    pres = cantor_presentation(witness_bound=64)
    for q in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 3)):
        for j in range(10):
            for i in range(10):
                want = pres.dist(j, i) < q
                assert pres.ball_member(pres.dense_point(j), i, q) == want


def test_presentation_metric_axioms():
    from clopen.codes import check_metric_axioms

    pres = cantor_presentation(witness_bound=64)
    check_metric_axioms(pres.dist, 40)
    disc = discrete_presentation(5)
    check_metric_axioms(disc.dist, 5)


def test_presentation_distances_are_rescaled_and_bounded():
    pres = cantor_presentation(witness_bound=64)
    for i in range(12):
        for j in range(12):
            d = pres.dist(i, j)
            assert 0 <= d <= Fraction(1, 2)
            assert (d == 0) == (i == j)


def test_root_cell_holds_everything():
    sch = small_scheme()
    for i in range(8):
        assert sch.cell_member_seq(sch.presentation.dense_point(i), ())


def test_depth_one_cells_partition_a_point():
    sch = small_scheme()
    zero = sch.presentation.dense_point(0)
    hits = [k for k in range(24) if sch.cell_member_seq(zero, (k,))]
    assert hits == [0]


def test_cells_refine_parents():
    sch = small_scheme()
    for i in range(8):
        x = sch.presentation.dense_point(i)
        f = sch.embed(x)
        for n in range(1, 4):
            cell = f.prefix(n)
            assert sch.cell_member_seq(x, cell)
            assert sch.cell_member_seq(x, cell[:-1])


def test_known_empty_cell():
    # the depth-one cell of center 16 is swallowed by the earlier center 0
    sch = small_scheme()
    for i in range(24):
        assert not sch.cell_member_seq(sch.presentation.dense_point(i), (16,))
    assert not sch.image_tree().admits((16,))


def test_image_node_basics():
    sch = small_scheme()
    image = sch.image_tree()
    assert image.admits(()) and image.admits((0,))
    assert sch.cell_member_seq(sch.presentation.dense_point(0), (0,))


def test_embed_separates_points_differing_at_zero():
    sch = small_scheme()
    a = sch.embed(eventually_periodic((0,), (0,)))
    b = sch.embed(eventually_periodic((1,), (0,)))
    assert a(0) != b(0)


def test_embed_reads_off_unique_cells():
    sch = small_scheme()
    x = sch.presentation.dense_point(5)
    f = sch.embed(x)
    for n in range(4):
        prefix = f.prefix(n)
        bound = sch.presentation.witness_bound
        hits = [i for i in range(bound + 1) if sch.cell_member_seq(x, prefix + (i,))]
        assert hits == [f(n)]


def test_embed_injective_on_dense_points():
    assert check_embedding_injective(small_scheme(), 16).passed


def test_luzin_properties_and_pruned_image():
    sch = small_scheme()
    assert check_luzin_scheme(sch, 3, 12).passed
    assert check_image_tree_pruned(sch, 3).passed


def test_cell_search_exhausted_with_tiny_bound():
    sch = LuzinScheme(cantor_presentation(witness_bound=2))
    x = eventually_periodic((1, 1, 1), (0,))  # its minimal depth-1 center is 7
    with pytest.raises(CellSearchExhausted) as exc:
        sch.embed(x)(0)
    assert (exc.value.depth, exc.value.bound) == (0, 2)
    assert str(exc.value) == "no child cell contains the point at depth 0 (bound 2)"


def test_cell_search_exhausted_at_the_first_level_without_a_cell():
    sch = LuzinScheme(cantor_presentation(witness_bound=15))
    # the depth-1 center 15 shares x's first four bits; the first index
    # sharing its first eight is 31, past the bound
    f = sch.embed(eventually_periodic((1,) * 5, (0,)))
    assert f(0) == 15
    for n in (1, 2, 5):
        with pytest.raises(CellSearchExhausted) as exc:
            f(n)
        assert (exc.value.depth, exc.value.bound) == (1, 15)
        assert str(exc.value) == "no child cell contains the point at depth 1 (bound 15)"


def test_check_reads_probes_at_any_depth():
    # the level radii are built as levels are reached, so no depth is out of range
    result = check_luzin_scheme(LuzinScheme(cantor_presentation(witness_bound=32)), 9, 6)
    assert result.passed, result.detail


def test_check_names_the_probe_search_that_ran_out():
    # probe 31 is the point above: its depth-1 ball indices lie past the bound 15
    result = check_luzin_scheme(LuzinScheme(cantor_presentation(witness_bound=15)), 2, 32)
    assert result.line() == ("FAIL luzin:cantor  CellSearchExhausted: no child cell "
                             "contains the point at depth 1 (bound 15)")


def test_a_cell_past_the_witness_bound_holds_no_point():
    # x's least depth-1 ball index is 7, past the bound 2: x lies in the ball
    # stage B_(7,), yet neither the cell (7,) nor any other depth-1 cell holds it
    sch = LuzinScheme(cantor_presentation(witness_bound=2))
    x = eventually_periodic((1, 1, 1), (0,))
    assert sch.ball_stage(x, (7,))
    assert not any(sch.ball_stage(x, (i,)) for i in range(7))
    assert not any(sch.cell_member_seq(x, (i,)) for i in range(12))
    assert not sch.image_tree().admits((7,))


def test_branches_and_embeddings_freed_by_reference_counting():
    gc.collect()
    tree = full_cantor_tree()
    validate_pruned(tree, 4)
    fam = DensePointFamily(tree)
    for s in range(24):
        fam.leftmost(s).prefix(10)
    scheme = LuzinScheme(cantor_presentation(witness_bound=8))
    scheme.embed(scheme.presentation.dense_point(5)).prefix(3)
    del tree, fam, scheme
    # no reference cycle was built, so the collector finds nothing
    assert gc.collect() == 0


def test_discrete_embedding_is_the_identity_stream():
    sch = LuzinScheme(discrete_presentation(4))
    for k in range(4):
        assert sch.embed(k).prefix(4) == (k,) * 4


def test_baire_closed_presentation_exactness():
    tree = full_cantor_tree()
    validate_pruned(tree, 4)
    fam = DensePointFamily(tree)
    pres = baire_closed_presentation(fam)
    assert pres.dist(encode((0,)), encode((1,))) == Fraction(1, 2)
    assert pres.dist(encode((0,)), encode((0, 0))) == 0
    sch = LuzinScheme(pres)
    assert sch.image_tree().admits(())


def _baire_split_0_family():
    from clopen.instances import build_instance, builtin_instance

    return build_instance(builtin_instance("baire-split-0")).ambient_fam


def _baire_split_0_closed(witness_bound):
    return baire_closed_presentation(_baire_split_0_family(), witness_bound=witness_bound)


@pytest.mark.parametrize("make", [lambda: cantor_presentation(witness_bound=8),
                                  lambda: discrete_presentation(4),
                                  lambda: _baire_split_0_closed(8)],
                         ids=["cantor", "discrete", "baire-closed"])
def test_members_match_the_brute_force_scan(make, in_cell_by_disjointification):
    sch, brute = LuzinScheme(make()), LuzinScheme(make())
    pres = brute.presentation
    bound = pres.witness_bound
    cells = [()]
    image = sch.image_tree()
    for cell in cells:
        want = tuple(i for i in range(bound + 1)
                     if in_cell_by_disjointification(brute, pres.dense_point(i), cell))
        assert all(sch.cell_member_seq(pres.dense_point(i), cell) == (i in want)
                   for i in range(bound + 1))
        assert image.admits(cell) == bool(want)
        if len(cell) < 3:
            cells.extend(cell + (k,) for k in range(bound + 1))
    assert len(cells) == sum((bound + 1) ** n for n in range(4))


def test_root_children_are_listed_in_one_pass_over_the_root():
    pres = _baire_split_0_closed(64)
    calls = [0]

    def counted(i, dense_point=pres.dense_point):
        calls[0] += 1
        return dense_point(i)

    sch = LuzinScheme(replace(pres, dense_point=counted))
    image = sch.image_tree()
    nodes = [k for k in range(65) if image.admits((k,))]
    # one handle per dense point for its level-1 index, and one per found
    # ball for its centre (ball_stage checks that r_k lies in the parent's
    # stage); filtering the root once per child made 65 * 65 + 65 = 4,290
    made = calls[0]
    assert made <= 2 * 65
    assert nodes == sorted({sch.embed(pres.dense_point(i))(0) for i in range(65)})
    # a cell past the bound is no node, and asks nothing more of its level
    made = calls[0]
    assert not image.admits((65,)) and calls[0] == made
    assert not image.admits((3, 200))


def _ball_stage_by_definition(raw, dense_point):
    """B_cell from the raw distance, rescaled by plain d/(1+d) and compared
    with the level radius 1/(2^(l+2) + 1) of the parent's length l."""
    memo = {}

    def stage(x, cell):
        if not cell:
            return True
        if (x, cell) not in memo:
            parent, k = cell[:-1], cell[-1]
            d = Fraction(raw(x, k))
            memo[x, cell] = (stage(x, parent)
                             and d / (1 + d) < Fraction(1, 2 ** (len(parent) + 2) + 1)
                             and stage(dense_point(k), parent))
        return memo[x, cell]

    return stage


def _cantor_raw(pres):
    return lambda x, i: exact_distance(x, pres.dense_point(i))


def _discrete_raw(pres):
    return lambda x, i: 0 if x == i % 4 else 1


def _baire_closed_raw(pres):
    fam = _baire_split_0_family()
    return lambda x, i: dense_pn_distance(fam, x, i)


@pytest.mark.parametrize("make, raw", [
    (lambda: cantor_presentation(witness_bound=8), _cantor_raw),
    (lambda: discrete_presentation(4), _discrete_raw),
    (lambda: _baire_split_0_closed(8), _baire_closed_raw)],
    ids=["cantor", "discrete", "baire-closed"])
def test_ball_stage_matches_the_plain_rescaled_comparison(make, raw):
    pres = make()
    sch = LuzinScheme(pres)
    want = _ball_stage_by_definition(raw(pres), pres.dense_point)
    bound = pres.witness_bound
    points = [pres.dense_point(i) for i in range(bound + 1)]
    cells = [()]
    for cell in cells:
        for x in points:
            assert sch.ball_stage(x, cell) == want(x, cell)
        if len(cell) < 3:
            cells.extend(cell + (k,) for k in range(bound + 1))
    assert len(cells) == sum((bound + 1) ** n for n in range(4))


def test_dense_handles_are_stable():
    pres = cantor_presentation(witness_bound=8)
    for i in range(12):
        assert pres.dense_point(i) is pres.dense_point(i)


def test_cantor_trio_distance_calls_stay_per_dense_index():
    pres = cantor_presentation(witness_bound=32)
    calls = [0]

    def counted(x, i, dist_to_dense=pres.dist_to_dense):
        calls[0] += 1
        return dist_to_dense(x, i)

    sch = LuzinScheme(replace(pres, dist_to_dense=counted))
    assert check_luzin_scheme(sch, 3, 30).passed
    assert check_embedding_injective(sch, 30).passed
    assert check_image_tree_pruned(sch, 3).passed
    # 627 with each level's search starting at the parent's index; 1,395
    # searching from 0 on every level, 3,264 with a memo per (handle, cell),
    # and fresh handles on every call made 75,197
    assert calls[0] <= 627


def _path_from_zero(sch, x, depth):
    """x's path to depth by the least index within the bound, searched from 0
    on every level, up to the first level with none."""
    path, bound = (), sch.presentation.witness_bound
    while len(path) < depth:
        i = next((i for i in range(bound + 1) if sch.ball_stage(x, (*path, i))), None)
        if i is None:
            break
        path += (i,)
    return path


def _embedded_path(sch, x, depth):
    """x's path to depth as its embedding reads it, up to the first level
    without a cell."""
    image = sch.embed(x)
    path = ()
    try:
        while len(path) < depth:
            path += (image(len(path)),)
    except CellSearchExhausted:
        pass
    return path


def _closed_presentation(tree, depth, witness_bound=16):
    validate_pruned(tree, depth)
    return baire_closed_presentation(DensePointFamily(tree), witness_bound=witness_bound)


def _baire_split_0_ambient(depth):
    from clopen.instances import builtin_instance

    return _closed_presentation(builtin_instance("baire-split-0").parts[0], depth)


def _cantor_cylinders(depth):
    return _closed_presentation(cylinder_union_tree([[1], [0, 1]], "cylinders", child_floor=1),
                                depth)


@pytest.mark.parametrize("make, depth", [
    *(pytest.param(lambda b=b: cantor_presentation(witness_bound=b), 5, id=f"cantor-{b}")
      for b in range(1, 34)),
    *(pytest.param(lambda n=n: discrete_presentation(n), 5, id=f"discrete-{n}")
      for n in range(1, 7)),
    *(pytest.param(lambda d=d, make=make: make(d), d, id=f"{make.__name__[1:]}-depth-{d}")
      for make in (_baire_split_0_ambient, _cantor_cylinders) for d in range(2, 6))])
def test_paths_match_a_search_from_zero_on_every_level(make, depth):
    # each level's search starts at the parent's index; a search from 0 on a
    # fresh scheme's stages gives the same least indices
    sch, fresh = LuzinScheme(make()), LuzinScheme(make())
    pres = sch.presentation
    probes = [pres.dense_point(i) for i in range(pres.witness_bound + 3)]
    if pres.name == "cantor":
        probes += [eventually_periodic(pre, period) for pre, period in
                   (((), (1,)), ((1, 0), (0, 1)), ((0, 0, 1), (1, 1, 0)))]
    for x in probes:
        assert _embedded_path(sch, x, depth) == _path_from_zero(fresh, x, depth), x


def test_split_level_matches_the_halving_loop():
    for q in range(1, 300):
        for p in range(1, 3 * q):
            delta = Fraction(p, q)
            depth = 0
            while Fraction(1, 2 ** depth) > delta:
                depth += 1
            assert split_level(delta) == depth
