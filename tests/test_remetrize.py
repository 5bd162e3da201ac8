from fractions import Fraction

import pytest

from clopen.baire import disagreement_distance, first_disagreement, slice_point
from clopen.coding import encode, pair_code
from clopen.instances import CATALOG, build_instance, builtin_instance
from clopen.remetrize import (CertificateFailure, ClosedRepresentation, NotInterior,
                              OnBoundary, SumSpace, distance_to_sphere, epsilon_code,
                              certified_ball_list, extension_certificate, interleave,
                              interleaved_tag, membership_in_a, open_ball_distance,
                              sum_distance, tag_of_index, witness_representation)
from clopen.trees import DensePointFamily, dense_pn_distance, full_cantor_tree, validate_pruned
from clopen.verify import (check_clopen_sides, check_degenerate,
                           check_extension_certificates, check_sum_metric_axioms,
                           check_two_sided_continuity, side_sample_branches)
from clopen.witness import Pi02Matrix, first_value_matrix


def built(name):
    return build_instance(builtin_instance(name))


def test_pullback_distance_examples():
    sp = built("cantor-split-0").sum_space
    rep = sp.part_a
    s = encode((0, 0))
    assert dense_pn_distance(rep.fam, s, s) == 0
    # stems (0,0) and (0,1) disagree first at position 1
    assert dense_pn_distance(rep.fam, encode((0, 0)), encode((0, 1))) == Fraction(1, 2)


def test_pullback_matches_budget_oracle():
    sp = built("cantor-split-00").sum_space
    for rep in (sp.part_a, sp.part_c):
        for s in range(40):
            for t in range(40):
                d = dense_pn_distance(rep.fam, s, t)
                k = first_disagreement(rep.fam.leftmost(s), rep.fam.leftmost(t), 128)
                if k is None:
                    assert d < Fraction(1, 128)
                else:
                    assert disagreement_distance(k) == d


def test_sum_distance_cases():
    sp = built("cantor-split-0").sum_space
    assert sum_distance(sp, (0, 0), (1, 0)) == 2
    assert sum_distance(sp, (0, 5), (0, 5)) == 0
    d = sum_distance(sp, (1, encode((1, 0))), (1, encode((1, 1))))
    assert d == dense_pn_distance(sp.part_c.fam, encode((1, 0)), encode((1, 1)))


def _pair_layout_distance(sp, t1, t2):
    return sum_distance(sp, tag_of_index(t1), tag_of_index(t2))


def test_pair_code_indices_distances():
    sp = built("cantor-split-0").sum_space
    for s in range(12):
        for t in range(12):
            assert tag_of_index(pair_code(1, t)) == (1, t)
            assert _pair_layout_distance(sp, pair_code(0, s), pair_code(1, t)) == 2
    idx = pair_code(0, 3)
    assert _pair_layout_distance(sp, idx, idx) == 0


def test_non_pair_indices_fall_back_to_base_point():
    sp = built("cantor-split-0").sum_space
    side, code = tag_of_index(0)
    assert side == 0 and code == 0
    assert _pair_layout_distance(sp, 0, pair_code(0, 0)) == 0


def test_sum_metric_axioms():
    sp = built("cantor-eq01").sum_space
    assert check_sum_metric_axioms(sp, 80).passed


def test_epsilon_code_values():
    sp = built("cantor-split-0").sum_space
    eps = epsilon_code(sp)
    assert eps(pair_code(0, 0)) == 1  # the root of the set-side tree
    dead = encode((1, 1))  # the stem (1, 1) is not a node of the set side
    assert sp.part_a.fam.tree.node(dead) is False
    assert eps(pair_code(0, dead)) == 0
    part0 = slice_point(eps, 0)
    part1 = slice_point(eps, 1)
    for s in range(300):
        assert part0(s) == (1 if sp.part_a.fam.tree.node(s) else 0)
        assert part1(s) == (1 if sp.part_c.fam.tree.node(s) else 0)


def test_membership_ball_test():
    sp = built("cantor-split-00").sum_space
    assert membership_in_a(sp, (0, encode((0, 0, 1))))
    assert not membership_in_a(sp, (1, 0))
    assert check_clopen_sides(sp, 150).passed


def test_extension_certificate_whole_space():
    sp = built("cantor-split-0").sum_space
    k = extension_certificate(sp, 0, 0, center=0, radius=Fraction(2))
    assert k == 0


def test_extension_certificate_recovers_radius_class():
    sp = built("cantor-split-0").sum_space
    s = encode((0,))
    # the ambient center 0 is the point itself, so the margin is the radius
    for m in (1, 2, 5):
        k = extension_certificate(sp, 0, s, center=0, radius=Fraction(1, m + 1))
        assert k == m


def test_extension_certificate_not_interior():
    sp = built("cantor-split-0").sum_space
    s = encode((0,))
    d0 = sp.ambient_distance(sp.part_a.dense_image(s), 1)
    with pytest.raises(NotInterior):
        extension_certificate(sp, 0, s, center=1, radius=d0)


def _cantor_sum_space(map_modulus):
    """Both sides the two-symbol space over itself, with the given map modulus."""
    tree = full_cantor_tree()
    validate_pruned(tree, 4)
    side = ClosedRepresentation(fam=DensePointFamily(tree), map_point=lambda branch: branch,
                                map_modulus=map_modulus,
                                inverse_modulus=lambda branch, k: k + 1)
    return SumSpace(part_a=side, part_c=side, ambient=DensePointFamily(tree))


def test_extension_certificate_samples_exactly_the_new_ball():
    # the ambient distance of a first disagreement at k is 1/(k+2), so a
    # prefix of k positions maps within 1/(k+1): the modulus k is tight.
    # Around the zero branch with radius 1/4 it certifies k = 2, and the
    # sample ball (new distance < 1/3) holds exactly the points that first
    # differ at 3 or later, all inside; encode((0, 0, 1)) = 9 differs at 2,
    # on the ambient sphere
    tight = _cantor_sum_space(lambda k: k)
    assert extension_certificate(tight, 0, 0, center=0, radius=Fraction(1, 4)) == 2
    # one position short, the certificate is k = 1 and the sample meets code 9
    short = _cantor_sum_space(lambda k: max(k - 1, 0))
    with pytest.raises(CertificateFailure, match="sampled point 9 "):
        extension_certificate(short, 0, 0, center=0, radius=Fraction(1, 4))


def test_witness_inverse_modulus_pins_the_entry_at_position_k():
    # branches within the inverse modulus agree on [0, k] of the pair
    # branch, so the entry at position k must be pinned: point entry n
    # needs n + 1 point positions, witness level n the witness map's
    # modulus for n + 1 levels
    rep = witness_representation(first_value_matrix(0), alphabet_bound=1)
    for branch in side_sample_branches(rep, 3):
        for n in (1, 2):
            assert rep.inverse_modulus(branch, pair_code(0, n)) >= n + 1
    # witness level n is a(n + 2): level 0 reads three point entries, more
    # than the two whose positions (3 and 5) lie below its position 8
    lookahead = Pi02Matrix(r=lambda a, n, m: a(n + 2) == m, use_bound=lambda n, m: n + 3,
                           per_n_budget=1, label="lookahead")
    rep = witness_representation(lookahead, alphabet_bound=1)
    for branch in side_sample_branches(rep, 4):
        assert rep.inverse_modulus(branch, pair_code(1, 0)) >= 3


def test_certified_catalog_passes():
    instance = built("baire-split-0")
    sp, cap = instance.sum_space, instance.file.bounds["enumeration_cap"]
    certified = certified_ball_list(sp, 4, cap)
    assert certified
    assert check_extension_certificates(sp, cap, certified).passed


def test_two_sided_continuity_identity_and_witness():
    for name in ("cantor-split-0", "witness-first-bit"):
        sp = built(name).sum_space
        assert check_two_sided_continuity(sp).passed


def test_witness_representation_moduli():
    rep = witness_representation(first_value_matrix(0), alphabet_bound=1)
    assert rep.closure is not None
    assert rep.map_modulus(0) == 0
    # to pin the mapped point to precision 1/(k+1) the branch prefix must
    # cover the pair position of the point's k-1st entry
    assert rep.map_modulus(2) == pair_code(0, 1) + 1
    branches = side_sample_branches(rep, 3)
    assert len(branches) >= 2
    for branch in branches:
        alpha = rep.map_point(branch)
        assert alpha(0) == 0
        assert rep.inverse_modulus(branch, 0) == 0


def test_degenerate_instances_keep_ambient():
    for name, nonempty in (("degenerate-empty", 2), ("degenerate-full", 1)):
        b = built(name)
        assert b.sum_space is None
        side = DensePointFamily(b.file.parts[nonempty])
        for i in range(30):
            for j in range(30):
                assert dense_pn_distance(side, i, j) == dense_pn_distance(b.ambient_fam, i, j)
        assert check_degenerate(b).passed


TREE_PAIRS = [name for name, doc in CATALOG.items()
              if doc["set"]["kind"] == "tree-pair" and not name.startswith("degenerate")]


@pytest.mark.parametrize("name", TREE_PAIRS)
def test_interleaved_table_is_the_sum_distance_of_its_tags(name):
    # serialized below 8, so most of the 24x24 pairs read the tail past K
    b = built(name)
    sp, cap = b.sum_space, b.file.bounds["enumeration_cap"]
    table = interleave(sp, 8, cap, label=name)
    tags = [interleaved_tag(sp, u, cap) for u in range(24)]
    for u in range(24):
        for v in range(24):
            assert table.dist(u, v) == sum_distance(sp, tags[u], tags[v]), (u, v)
    # even indices on the set side, odd on its complement, each side's least
    # codes (its distinct points) in increasing order, none skipped
    assert [side for side, _ in tags] == [u % 2 for u in range(24)]
    for side in (0, 1):
        codes = [code for tag_side, code in tags if tag_side == side]
        fam = sp.side(side).fam
        assert codes == [s for s in range(codes[-1] + 1) if fam.is_least_code(s)]


def test_a_degenerate_instance_has_no_table():
    for name in ("degenerate-empty", "degenerate-full"):
        with pytest.raises(ValueError, match=f"degenerate instance {name} has no side"):
            built(name).table()


def test_dense_images_distinct_across_sides():
    sp = built("cantor-split-0").sum_space
    x = sp.part_a.dense_image(0)
    y = sp.part_c.dense_image(0)
    assert x(0) == 0 and y(0) == 1


# --- the direct open-ball construction --------------------------------------

def oracle_ball_distance(x, y):
    """Direct evaluation of the completed-ball formula, written independently."""
    gap_x = 1 - abs(x)
    gap_y = 1 - abs(y)
    base = x - y if x >= y else y - x
    correction = Fraction(1, gap_x) - Fraction(1, gap_y)
    if correction < 0:
        correction = -correction
    return base + correction


def test_open_ball_distance_examples():
    assert open_ball_distance(Fraction(1, 3), Fraction(1, 3)) == 0
    assert open_ball_distance(Fraction(0), Fraction(1, 2)) == Fraction(3, 2)
    assert open_ball_distance(Fraction(0), Fraction(1, 2)) == \
        oracle_ball_distance(Fraction(0), Fraction(1, 2))


def test_open_ball_distance_blows_up_toward_boundary():
    drift = [1 - Fraction(1, 2 ** n) for n in range(1, 16)]
    for bound in (10, 100, 1000):
        tail = [d for d in drift if Fraction(1, 1 - d) > 2 * bound]
        assert tail, "the drifting sequence must pass any bound"
        assert open_ball_distance(tail[0], tail[-1]) >= 0
    assert open_ball_distance(drift[2], drift[12]) > 1000


def test_on_boundary_raised_never_wrong_number():
    for bad in (Fraction(1), Fraction(-1)):
        with pytest.raises(OnBoundary):
            open_ball_distance(bad, Fraction(0))
        with pytest.raises(OnBoundary):
            open_ball_distance(Fraction(0), bad)
        with pytest.raises(OnBoundary):
            distance_to_sphere(bad)
