"""Verification suites: the runnable form of every contract the library makes.

Each check returns a CheckResult instead of raising, so the command line can
report all failures of an instance in one pass, deterministically ordered.
The acceptance tests drive the same functions at their full documented scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Optional

from .baire import BairePoint, disagreement_distance, first_disagreement, slice_point
from .codes import check_metric_axioms, decode_metric, encode_metric
from .coding import encode, pair_position
from .instances import BuiltInstance
from .luzin import LuzinScheme, split_level
from .remetrize import (SumSpace, certified_ball_list, extension_certificate, epsilon_code,
                        interleave, interleaved_tag, membership_in_a, sum_distance,
                        tag_of_index)
from .trees import (DensePointFamily, PrunedTree, dense_equal, dense_pn_distance,
                    iter_admissible, validate_pruned)
from .witness import WitnessClosure


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"{status:4} {self.name}" + (f"  {self.detail}" if self.detail else "")


def _result(name: str, fn: Callable[[], Optional[str]]) -> CheckResult:
    try:
        detail = fn()
    except Exception as exc:  # noqa: BLE001 - verification must report, not crash
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, True, detail or "")


# --- tree-level checks ---------------------------------------------------------

def check_tree_valid(tree: PrunedTree, depth: int, name: str) -> CheckResult:
    def run():
        report = validate_pruned(tree, depth)
        return f"{report.admissible} admissible of {report.inspected} inspected"

    return _result(name, run)


def check_dense_family(fam: DensePointFamily, stem_len: int, prefix_depth: int,
                       name: str) -> CheckResult:
    """Leftmost branches pass through their stems and stay on the tree."""

    def run():
        count = 0
        for u in iter_admissible(fam.tree, stem_len):
            s = encode(u)
            a = fam.leftmost(s)
            if a.prefix(len(u)) != u:
                raise AssertionError(f"branch of {list(u)} leaves its neighborhood")
            for n in range(prefix_depth + 1):
                if not fam.tree.admits(a.prefix(n)):
                    raise AssertionError(f"branch of {list(u)} leaves the tree at {n}")
            count += 1
        return f"{count} stems checked to depth {prefix_depth}"

    return _result(name, run)


def check_distance_oracle(fam: DensePointFamily, budget: int, name: str) -> CheckResult:
    """The exact dense-family distance agrees with a scan of the two leftmost
    branches to the budget: it is 1/(k+1) for a first disagreement at k, and
    below 1/budget, 1/(k+1) for some k >= budget or 0, for none.  The order
    relations d < q and d <= q are read off it, so checking it checks them."""
    code_bound = 40

    def run():
        threshold = Fraction(1, budget)
        for s in range(code_bound):
            for t in range(s, code_bound):
                d = dense_pn_distance(fam, s, t)
                k = first_disagreement(fam.leftmost(s), fam.leftmost(t), budget)
                if k is None:
                    if not d < threshold:
                        raise AssertionError(f"({s},{t}): exact {d} not below threshold")
                elif (scan := disagreement_distance(k)) != d:
                    raise AssertionError(f"({s},{t}): scan {scan} != exact {d}")
        return f"{code_bound}x{code_bound} index pairs"

    return _result(name, run)


# --- summed-space checks --------------------------------------------------------

def check_sum_metric_axioms(sp: SumSpace, count: int) -> CheckResult:
    """The metric axioms on the indices below count, each index's tag read
    once; d(i, j) and d(j, i) stay two sum_distance calls."""

    def run():
        tags = [tag_of_index(t) for t in range(count)]

        def dist(i: int, j: int) -> Fraction:
            return sum_distance(sp, tags[i], tags[j])

        def equal(i: int, j: int) -> bool:
            (side_i, code_i), (side_j, code_j) = tags[i], tags[j]
            return side_i == side_j and dense_equal(sp.side(side_i).fam, code_i, code_j)

        check_metric_axioms(dist, count, equal=equal)
        return f"triples below {count}"

    return _result("sum-metric", run)


def check_clopen_sides(sp: SumSpace, count: int) -> CheckResult:
    """Side membership of every dense index recovered by the one-ball test."""

    def run():
        for t in range(count):
            tag = tag_of_index(t)
            if membership_in_a(sp, tag) != (tag[0] == 0):
                raise AssertionError(f"ball test misclassifies index {t}")
        return f"{count} dense indices"

    return _result("clopen-sides", run)


def check_epsilon_code(sp: SumSpace) -> CheckResult:
    """The combined parameter agrees with both node predicates."""
    code_bound = 300

    def run():
        eps = epsilon_code(sp)
        part0 = slice_point(eps, 0)
        part1 = slice_point(eps, 1)
        for s in range(code_bound):
            if part0(s) != (1 if sp.part_a.fam.tree.node(s) else 0):
                raise AssertionError(f"set-side parameter wrong at {s}")
            if part1(s) != (1 if sp.part_c.fam.tree.node(s) else 0):
                raise AssertionError(f"complement-side parameter wrong at {s}")
            if pair_position(s) is None and eps(s) != 0:
                raise AssertionError(f"non-pair position {s} holds a 1")
        return f"codes below {code_bound}"

    return _result("epsilon-code", run)


def check_extension_certificates(sp: SumSpace, cap: int,
                                 certified: Optional[list] = None) -> CheckResult:
    """Every listed ball passes its certificate.  Without a list the check builds
    the catalog itself (four points a side below cap): a short side fails here."""

    def run():
        balls = certified if certified is not None else certified_ball_list(sp, 4, cap)
        for side, s, center, radius in balls:
            extension_certificate(sp, side, s, center, radius)
        return f"{len(balls)} certified balls"

    return _result("extension", run)


def check_degenerate(built: BuiltInstance) -> CheckResult:
    """A degenerate instance's nonempty side is the whole ambient space: its
    dense family has the ambient family's distances on the first 40 dense
    indices."""
    sample = 40

    def run():
        if built.sum_space is not None:
            raise AssertionError("instance is not degenerate")
        _, side_a, side_c = built.file.parts
        side = DensePointFamily(side_c if built.degenerate == "empty-set" else side_a)
        amb = built.ambient_fam
        for i in range(sample):
            for j in range(sample):
                if dense_pn_distance(side, i, j) != dense_pn_distance(amb, i, j):
                    raise AssertionError(f"the nonempty side differs from the ambient at "
                                         f"({i},{j})")
        return f"{built.degenerate}; {sample}x{sample} distances identical"

    return _result(f"degenerate:{built.file.id}", run)


# --- continuity moduli -----------------------------------------------------------

def side_sample_branches(rep, count: int) -> list[BairePoint]:
    """Distinct branch points of a side, collected by walking the tree to depth 14.

    Tree walking reaches variation that a numeric code scan cannot afford:
    stems whose nonzero entries sit late have astronomically large codes
    under the canonical coding, but as stems they are a few steps away.
    The walk meets a point's least code first, before its longer stems.
    """
    codes = (encode(u) for u in iter_admissible(rep.fam.tree, 14))
    return [rep.fam.leftmost(s) for s in islice(filter(rep.fam.is_least_code, codes), count)]


def _agree(p: BairePoint, q: BairePoint, length: int) -> bool:
    return first_disagreement(p, q, length) is None


def check_two_sided_continuity(sp: SumSpace) -> CheckResult:
    """Sampled soundness of both declared moduli on every side.

    Everything reduces to finite prefix agreement, exactly: branch distance
    below 1/(k+1) is agreement on k+1 positions, and ambient distance below
    1/(k+1) is agreement of the mapped points on k positions, the ambient
    metric being the rescaled first-disagreement distance.

    Forward: branch pairs agreeing past the map modulus land within the
    requested ambient precision.  Backward: pairs within the inverse
    modulus's ambient distance have branches within the target.
    """

    def run():
        pairs_checked = 0
        for side in (0, 1):
            rep = sp.side(side)
            branches = side_sample_branches(rep, 4)
            images = [rep.map_point(b) for b in branches]
            for k in range(4):  # the precisions 1/(k+1) down to 1/4
                fwd = rep.map_modulus(k)
                for x_br, x_im in zip(branches, images):
                    inv = rep.inverse_modulus(x_br, k)
                    for y_br, y_im in zip(branches, images):
                        if _agree(x_br, y_br, fwd) and not _agree(x_im, y_im, k):
                            raise AssertionError(
                                f"map modulus unsound on side {side} at k={k}")
                        if _agree(x_im, y_im, inv) and not _agree(x_br, y_br, k + 1):
                            raise AssertionError(
                                f"inverse modulus unsound on side {side} at k={k}")
                        pairs_checked += 1
        return f"{pairs_checked} modulus samples"

    return _result("continuity", run)


# --- scheme and witness checks ----------------------------------------------------

def check_luzin_scheme(scheme: LuzinScheme, depth: int, dense_count: int) -> CheckResult:
    """Each dense probe has a cell on every level below depth, and cells shrink.

    A probe's cells are its path, read off its embedding, so a probe with no
    cell on some level within the witness bound fails with
    CellSearchExhausted.  Two probes that share a cell at a level are closer
    than 2^-level.  The path is built so that a level's cells are disjoint
    and refine their parents; tier-1 checks that against the
    disjointification that defines the cells.
    """
    pres = scheme.presentation

    def run():
        embeds = [scheme.embed(pres.dense_point(i)) for i in range(dense_count)]
        for image in embeds:
            image.prefix(depth)
        # diameters: same-cell dense pairs sit below the level bound
        for i in range(dense_count):
            for j in range(i + 1, dense_count):
                d = pres.dist(i, j)
                split = first_disagreement(embeds[i], embeds[j], depth)
                level = depth if split is None else split  # the depth of their common cell
                if not d < Fraction(1, 2 ** level):
                    raise AssertionError(f"cell diameter bound fails for ({i},{j})")
        return f"{dense_count} probes to depth {depth}"

    return _result(f"luzin:{pres.name}", run)


def check_embedding_injective(scheme: LuzinScheme, dense_count: int) -> CheckResult:
    """The embedding separates the dense probes: two at distance delta > 0
    have images that disagree within split_level(delta) + 1 entries, since no
    cell that deep holds two points delta apart.  Probes at distance 0 name
    one point and are skipped."""
    pres = scheme.presentation

    def run():
        embeds = {i: scheme.embed(pres.dense_point(i)) for i in range(dense_count)}
        for i in range(dense_count):
            for j in range(i + 1, dense_count):
                delta = pres.dist(i, j)
                if delta == 0:
                    continue
                if first_disagreement(embeds[i], embeds[j], split_level(delta) + 1) is None:
                    raise AssertionError(f"images of {i} and {j} agree past the bound")
        return f"{dense_count} dense points pairwise separated"

    return _result(f"embed-injective:{pres.name}", run)


def check_image_tree_pruned(scheme: LuzinScheme, depth: int) -> CheckResult:
    """The image tree is pruned below depth: every cell of length below depth
    that holds a dense point within the witness bound has a child cell that
    holds one too: no image node above depth is a dead end."""
    tree = scheme.image_tree()

    def run():
        count = 0
        for u in iter_admissible(tree, depth - 1):
            if not any(tree.admits(u + (k,)) for k in range(tree.child_bound(u) + 1)):
                raise AssertionError(f"admissible image node {list(u)} has no child")
            count += 1
        return f"{count} admissible nodes extend"

    return _result(f"image-pruned:{scheme.presentation.name}", run)


def check_witness_matrix(closure: WitnessClosure, base_points: list[BairePoint],
                         depth: int, rng: random.Random, perturbations: int,
                         name: str) -> CheckResult:
    """Closure membership, leastness refutations, and modulus soundness."""

    def run():
        for a in base_points:
            beta = closure.witness_point(a)
            if not closure.check_closure(a, beta, depth):
                raise AssertionError("the witness point fails its own closure")
            for n in range(depth):
                for delta in (-1, 1):
                    wrong = beta(n) + delta
                    if wrong < 0:
                        continue
                    fake = BairePoint(lambda i, n=n, wrong=wrong: wrong if i == n else beta(i))
                    if closure.check_closure(a, fake, n + 1):
                        raise AssertionError(f"perturbed witness at level {n} accepted")
            modulus = closure.continuity_modulus(a, depth)
            want = beta.prefix(depth)
            for _ in range(perturbations):
                pos = modulus + rng.randrange(0, 64)
                val = rng.randrange(0, 2)
                moved = BairePoint(lambda i, pos=pos, val=val: val if i == pos else a(i))
                if closure.witness_point(moved).prefix(depth) != want:
                    raise AssertionError(f"witness prefix moved under a tail change at {pos}")
        return f"{len(base_points)} base points, depth {depth}"

    return _result(name, run)


# --- instance suite ---------------------------------------------------------------

def check_interleaved_table(built: BuiltInstance) -> CheckResult:
    """The instance's table passes the axiom check, and its code point decodes
    back to the table on the first 6x6 entries.

    The probes decode within the window the probed entries give: the
    largest m or n of a probed value m/(n+1) in lowest terms.  The values
    are 0, 1/(k+1) and the cross distance 2, so with a cross-side probe
    that is max(2, largest denominator - 1).  encode_metric sets the bit of
    every representation of a value and no other, each representation's m
    is a multiple of the reduced one's, and decode_metric reaches the
    reduced position within the window; so on such a code the first set
    bit it reads is the reduced one, here as at any wider window.  What a
    wider window reads and this one does not is a stray bit at an n past
    the window in a row m below the value's own."""

    def run():
        table = built.table()
        code = encode_metric(table)
        probe = min(table.K, 6)
        values = [[table.dist(i, j) for j in range(probe)] for i in range(probe)]
        window = max(max(v.numerator, v.denominator - 1) for row in values for v in row)
        for i, row in enumerate(values):
            for j, value in enumerate(row):
                if decode_metric(code, i, j, window=window) != value:
                    raise AssertionError(f"code round trip differs at ({i},{j})")
        return f"K={table.K} validated, {probe}x{probe} bits round-tripped"

    return _result("interleave", run)


def check_code_matches_sum(built: BuiltInstance, matched: int) -> CheckResult:
    """Interleaved code distances equal summed-space distances on matched indices."""

    def run():
        sp, cap = built.sum_space, built.file.bounds["enumeration_cap"]
        table = interleave(sp, matched, cap, label=built.file.id)
        tags = [interleaved_tag(sp, u, cap) for u in range(matched)]
        for u in range(matched):
            for v in range(matched):
                if table.dist(u, v) != sum_distance(sp, tags[u], tags[v]):
                    raise AssertionError(f"mismatch at matched indices ({u},{v})")
        return f"{matched}x{matched} matched indices agree"

    return _result("code-vs-sum", run)


def run_instance_suite(built: BuiltInstance, *, axiom_count: int,
                       seed: int) -> list[CheckResult]:
    """Every applicable check for one built instance, deterministically ordered."""
    results: list[CheckResult] = []
    bounds = built.file.bounds
    if built.sum_space is None:
        results.append(check_degenerate(built))
        return sorted(results, key=lambda r: r.name)
    sp = built.sum_space
    for side_name, rep in (("a", sp.part_a), ("c", sp.part_c)):
        results.append(check_tree_valid(rep.fam.tree, bounds["depth"],
                                        name=f"tree-valid:{side_name}"))
        results.append(check_dense_family(rep.fam, min(bounds["depth"], 3),
                                          2 * bounds["depth"],
                                          name=f"dense-family:{side_name}"))
        results.append(check_distance_oracle(rep.fam, bounds["budget"],
                                             name=f"distance-oracle:{side_name}"))
    results.append(check_sum_metric_axioms(sp, axiom_count))
    results.append(check_clopen_sides(sp, axiom_count))
    results.append(check_epsilon_code(sp))
    if sp.certifiable:
        results.append(check_extension_certificates(sp, bounds["enumeration_cap"]))
    results.append(check_two_sided_continuity(sp))
    results.append(check_interleaved_table(built))
    results.append(check_code_matches_sum(built, matched=min(8, bounds["table_size"])))
    for side_name, rep in (("a", sp.part_a), ("c", sp.part_c)):
        if rep.closure is not None:
            rng = random.Random(seed)
            alphas = [rep.map_point(b) for b in side_sample_branches(rep, 4)]
            results.append(check_witness_matrix(rep.closure, alphas, depth=6,
                                                rng=rng, perturbations=10,
                                                name=f"witness:{side_name}"))
    return sorted(results, key=lambda r: r.name)
