"""Closed subsets of Baire space as pruned trees.

A tree is a node predicate on finite sequences together with a child search
ceiling.  The predicate works on decoded sequences (tuples): codes of long
sequences are astronomically large under the canonical coding, so forcing
every membership test through a code would make deep branches uncomputable.
The code-level view required by the wire formats is provided on top.

The dense point family attaches to each code s the branch that starts with
the coded sequence and then always takes the least admissible child; an
inadmissible s names the root's branch (code 0).

Verdicts live in two places.  Tuple queries (admits, node, validate_pruned
and is_least_code's admissibility test) keep a flat memo, stem -> verdict.
Branches grow along the tree's walk trie, whose nodes each hold a walked
stem's verdict, its least child once searched and links to its children.
least_child reads the trie node of its prefix, so a least-child search runs
once per stem whether a walk or a query asks first.  A branch finds its node
at its first step past its stem; a step at a node whose least child is known
is one append and one link.  A fresh step calls child_bound once, builds a
candidate's stem tuple only to ask or return it, keeps each verdict in the
trie, not the tuple, and hands the found child's stem to the next step, so
a run of fresh steps never rebuilds the values so far.  A miss on either
side reads the other side's verdict before it runs the predicate, skipping
the flat memo for stems longer than any it holds, so the predicate sees
each stem at most once per tree.  A tree may also have a step verdict,
which decides a child stem of a stem it admits and may read less than the
predicate: a dsl tree whose node has a position-local conjunct reads that
conjunct at the child's last entry only (dsl.position_step).  A search asks
it only below a stem the trie or the flat memo records as admitted, and
the predicate everywhere else, and each stem still reaches one of the two
at most once.
The two stores fit two kinds of traffic: a tuple query hashes one short
stem, and such queries are most of what encode and the Luzin scheme ask,
while a walk grows branches to depth 256 and more, where a memo keyed by
every stem tuple along them would hold memory quadratic in the depth.  So
enumerate_distinct's walk, whose stems run as long, keeps its verdicts in
the trie too, reaching each stem's node from its prefix's.

The stems of a point are its shortest stem and that stem's extensions along
it, and codes grow under extension, so a code is the least code of its point
exactly when it is admissible and its stem is empty or does not end in the
least child of the rest.  A family keeps one memo, code -> (branch, least
stem length), by that rule: an inadmissible code takes code 0's entry, a
code whose stem ends in the least child of the rest takes the rest's code's
entry, and only a least code grows a branch.  So two codes name one point
exactly when they hold one entry.  Two distinct points first differ within
the longer of their least stems; dense_pn_distance turns that position k
into the distance 1/(k+1), and the order relations d < q and d <= q are
read off that exact value.

enumerate_distinct lists the least codes below a cap in code order without
decoding a code.  It walks stems, not naturals: a family's frontier is a heap
of stems keyed by their codes, and popping a stem pushes its next sibling
and, when the tree admits it, its 0-child.  Codes grow under extension and
in each entry, so the walk meets the admissible stems in code order and asks
the tree only about stems whose parent it admits; the codes it keys them by
come from coding.code_below, which stops at the cap before a long stem's
code grows doubly exponential.  Skipping an inadmissible stem's children
rests on downward closure, certified to the validated depth and promised by
the tree's author past it.  The frontier and the codes kept stay on the
family, so a later call resumes the walk.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Iterable, Iterator, Optional

from .baire import BairePoint, branch, disagreement_distance, first_disagreement
from .coding import code_below, decode, encode


class TreeError(Exception):
    """Base class for tree contract violations."""

    def __init__(self, node: tuple[int, ...], detail: str = ""):
        self.node = node
        self.detail = detail
        super().__init__(f"{type(self).__name__} at node {list(node)} {detail}".rstrip())


class EmptyTreeViolation(TreeError):
    """The root is inadmissible: the tree codes the empty set."""


class PrunednessViolation(TreeError):
    """An admissible node has no admissible child within the child bound."""


class DownwardClosureViolation(TreeError):
    """An admissible child hangs under an inadmissible node."""

    def __init__(self, node: tuple[int, ...], k: int):
        self.k = k
        super().__init__(node, f"(child {k})")


class CoverViolation(TreeError):
    """The ambient admits a stem that neither side of a tree-pair admits.  (That
    the sides are disjoint cannot be decided at a finite depth.)"""


class ChildSearchExhausted(TreeError):
    """The least-child search ran past the bound beyond the validated depth."""


class InsufficientDensePoints(Exception):
    def __init__(self, found: int, wanted: int, cap: int):
        self.found, self.wanted, self.cap = found, wanted, cap
        super().__init__(f"found {found} distinct dense points of {wanted} wanted (codes < {cap})")


class ValidationCapExceeded(Exception):
    """Validating a tree to a depth would inspect more than VALIDATION_CAP stems."""


VALIDATION_CAP = 50_000  # stems per tree; a catalog instance inspects at most 156


@dataclass
class ValidationReport:
    admissible: int
    inspected: int


class _Stem:
    """A node of a tree's walk trie: the last entry of its stem, the
    predicate's verdict on the stem (None until asked), the node of its
    least child once searched, and the nodes of the children asked about."""

    __slots__ = ("entry", "verdict", "least", "children")

    def __init__(self, entry: int):
        self.entry = entry
        self.verdict: Optional[bool] = None
        self.least: Optional[_Stem] = None
        self.children: dict[int, _Stem] = {}


# an entry of enumerate_distinct's frontier: (key, exact, stem, trie node of
# the stem's prefix), whose key is the stem's code when exact, else a cap the
# code reaches
_Frontier = tuple[int, bool, tuple[int, ...], Optional[_Stem]]


class PrunedTree:
    """A closed set of branches, given by a sequence predicate.

    admits      -- the node predicate on decoded sequences
    child_bound -- ceiling for the least-child search below a node
    label       -- the tree's name in reports
    hint        -- optional (sequence -> (preperiod_len, period_len)) giving a
                   periodicity promise for the leftmost branch through a node
    """

    # a subclass's verdict on a child stem of a stem it admits, which may read
    # less than the predicate; it must agree with the predicate there
    _step_verdict: Optional[Callable[[tuple[int, ...]], bool]] = None

    def __init__(
        self,
        admits: Callable[[tuple[int, ...]], bool],
        child_bound: Callable[[tuple[int, ...]], int],
        label: str,
        hint: Optional[Callable[[tuple[int, ...]], Optional[tuple[int, int]]]] = None,
    ):
        self._admits = admits
        self.child_bound = child_bound
        self.hint = hint
        self.label = label
        self.depth_validated = 0
        self._cache: dict[tuple[int, ...], bool] = {}
        self._deepest = -1  # the length of the longest stem in _cache
        self._walked: Optional[_Stem] = None  # the trie root, made by the first walk

    def admits(self, u: tuple[int, ...]) -> bool:
        cache = self._cache
        v = cache.get(u)
        if v is None:
            node = self._walked_node(u)
            if node is not None:
                v = node.verdict
            if v is None:
                v = bool(self._admits(u))
            cache[u] = v
            if len(u) > self._deepest:
                self._deepest = len(u)
        return v

    def _walked_node(self, u: tuple[int, ...]) -> Optional[_Stem]:
        """The trie node of u if a walk or search has made it, or None."""
        node = self._walked
        for x in u:
            if node is None:
                break
            node = node.children.get(x)
        return node

    def node(self, s: int) -> bool:
        """Code-level node predicate (the 0/1 parameter of the closed set)."""
        return self.admits(decode(s))

    def least_child(self, prefix: tuple[int, ...]) -> int:
        """The least admissible child entry below prefix, within its child
        bound: the least child of prefix's trie node, searched once."""
        node = self._stem(prefix)
        child = node.least
        if child is None:
            child = self._search(node, prefix)[0]
        return child.entry

    def _walk(self, u: tuple[int, ...]) -> Callable[[list[int]], int]:
        """The step of the leftmost branch through the admissible stem u.

        The step keeps the trie node of the values so far, found at the first
        step, so a branch never read past its stem adds no node.  A node
        whose least child is known moves to it; otherwise _search finds it
        and returns the child's stem, which the step keeps as the values so
        far.  So a run of fresh steps builds one tuple a step, and only a
        fresh step after a known one rebuilds the tuple from the values.
        Every stem a step searches below is admitted and recorded so: u in
        the flat memo, since the family asks admits about u before it walks,
        and each later one in the trie.  So each fresh step asks the tree's step
        verdict where it has one, and on a dsl tree with a position-local
        conjunct a branch grown to depth n reads O(n) entries, not O(n^2).
        """
        node: Optional[_Stem] = None
        prefix = u

        def step(vals: list[int]) -> int:
            nonlocal node, prefix
            if node is None:
                node = self._stem(u)
            child = node.least
            if child is None:
                if len(prefix) != len(vals):
                    prefix = tuple(vals)
                child, prefix = self._search(node, prefix)
            node = child
            return child.entry

        return step

    def _stem(self, u: tuple[int, ...]) -> _Stem:
        """The trie node of the stem u, made with the nodes on its path."""
        node = self._walked
        if node is None:
            node = self._walked = _Stem(0)
        for x in u:
            child = node.children.get(x)
            if child is None:
                child = node.children[x] = _Stem(x)
            node = child
        return node

    def _search(self, node: _Stem, prefix: tuple[int, ...]) -> tuple[_Stem, tuple[int, ...]]:
        """The least admissible child of the stem prefix, with node its trie
        node, and the child's stem prefix + (k,), searched up to the child
        bound.  Each verdict is read from the trie, then from _cache unless
        the child's stem is longer than every stem there, and only then
        asked, and kept in the trie; a child stem is built only to be asked
        or returned.  The tree's step verdict is asked when it has one and
        the trie or _cache records prefix as admitted, which is what the
        step verdict rests on; else the predicate is.  A search that raises
        links no least child, so it raises again."""
        bound = self.child_bound(prefix)
        children, cache = node.children, self._cache
        cached = len(prefix) < self._deepest
        ask = self._step_verdict
        if ask is None or not (node.verdict or (len(prefix) <= self._deepest
                                                 and cache.get(prefix))):
            ask = self._admits
        for k in range(bound + 1):
            child = children.get(k)
            if child is None:
                child = children[k] = _Stem(k)
            v = child.verdict
            if v is False:
                continue
            c = prefix + (k,)
            if v is None:
                v = cache.get(c) if cached else None
                if v is None:
                    v = bool(ask(c))
                child.verdict = v
            if v:
                node.least = child
                return child, c
        raise ChildSearchExhausted(prefix, f"(bound {bound})")

    def _asked(self, parent: Optional[_Stem], u: tuple[int, ...]) -> _Stem:
        """The trie node of the stem u, holding its verdict, where parent is
        the node of u's admitted prefix, or None when u is the root.  The
        verdict is read as _search reads a child's: from the trie, then from
        _cache, and only then asked, of the step verdict where the tree has
        one, since the prefix is admitted, and of the predicate at the root."""
        if parent is None:
            node = self._stem(u)
        else:
            node = parent.children.get(u[-1])
            if node is None:
                node = parent.children[u[-1]] = _Stem(u[-1])
        if node.verdict is None:
            v = self._cache.get(u) if len(u) <= self._deepest else None
            if v is None:
                ask = self._step_verdict if parent is not None else None
                v = bool((ask or self._admits)(u))
            node.verdict = v
        return node

    def __repr__(self) -> str:
        return f"<PrunedTree {self.label} validated={self.depth_validated}>"


def validate_pruned(tree: PrunedTree, depth: int) -> ValidationReport:
    """Check nonemptiness, downward closure and prunedness to the given depth.

    All sequences of length < depth with entries within the child bounds are
    inspected, admissible or not; prunedness is certified for the admissible
    ones and downward closure for the rest.  Beyond the validated depth the
    prunedness contract is the caller's assertion.  The inspected stems grow
    as (child bound + 1)^depth, and each verdict is kept, so the validation
    stops with ValidationCapExceeded past VALIDATION_CAP of them.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    admissible = 0
    inspected = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        u = stack.pop()
        inspected += 1
        if inspected > VALIDATION_CAP:
            raise ValidationCapExceeded(f"validating tree {tree.label} to depth {depth} "
                                        f"inspects more than the cap of {VALIDATION_CAP} stems")
        adm = tree.admits(u)
        if adm:
            admissible += 1
        has_child = False
        bound = tree.child_bound(u)
        for k in range(bound + 1):
            c = u + (k,)
            if tree.admits(c):
                has_child = True
                if not adm:
                    raise DownwardClosureViolation(u, k)
            if len(c) < depth:
                stack.append(c)
        if adm and not has_child:
            raise PrunednessViolation(u)
    # checked after the scan: a tree with an inadmissible root but an
    # admissible node below it is not empty, it is not downward closed
    if not admissible:
        raise EmptyTreeViolation(())
    tree.depth_validated = max(tree.depth_validated, depth)
    return ValidationReport(admissible=admissible, inspected=inspected)


class DensePointFamily:
    """The family of leftmost branches indexed by sequence codes.

    Every code of a point holds its least code's entry, so the point grows
    once and two codes name one point exactly when they hold one entry."""

    def __init__(self, tree: PrunedTree):
        if tree.depth_validated < 1:
            raise ValueError("validate the tree before building a dense family")
        if not tree.admits(()):
            raise EmptyTreeViolation(())
        self.tree = tree
        self._points: dict[int, tuple[BairePoint, int]] = {}
        # enumerate_distinct's walk so far: the least codes it has kept, and
        # its frontier
        self._least_codes: list[int] = []
        self._frontier: list[_Frontier] = [(0, True, (), None)]

    def is_least_code(self, s: int) -> bool:
        """Whether s is the least code of its point: admissible, with a stem
        that is empty or does not end in the least child of the rest."""
        u = decode(s)
        return self.tree.admits(u) and (not u or u[-1] != self.tree.least_child(u[:-1]))

    def _entry(self, s: int) -> tuple[BairePoint, int]:
        """The dense point with index s and the length of its least code's stem.

        By is_least_code's rule: an inadmissible s takes code 0's entry, an
        admitted stem ending in the least child of the rest takes the rest's
        code's entry, and only a least code grows a branch.  The rest's
        entry, made if the family lacks it, asks admits about the rest,
        which downward closure admits."""
        e = self._points.get(s)
        if e is None:
            u, tree = decode(s), self.tree
            if not tree.admits(u):
                e = self._entry(0)
            elif u and u[-1] == tree.least_child(u[:-1]):
                e = self._entry(encode(u[:-1]))
            else:
                hint = tree.hint(u) if tree.hint is not None else None
                e = (branch(tree._walk(u), stem=u, tail_hint=hint), len(u))
            self._points[s] = e
        return e

    def leftmost(self, s: int) -> BairePoint:
        """The dense point with index s."""
        return self._entry(s)[0]


def _split(fam: DensePointFamily, s: int, t: int) -> Optional[int]:
    """The first position where the dense points s and t differ, or None
    when they are equal: distinct points first differ within the longer of
    their least stems.  The family's memo is read first; _entry makes an
    entry it lacks."""
    points = fam._points
    a, m = points.get(s) or fam._entry(s)
    b, n = points.get(t) or fam._entry(t)
    return None if a is b else first_disagreement(a, b, m if m > n else n)


def dense_equal(fam: DensePointFamily, s: int, t: int) -> bool:
    """Exact equality of the dense points with indices s and t: every code
    holds its point's least code's entry, and distinct least codes name
    distinct points."""
    return fam._entry(s) is fam._entry(t)


def dense_pn_distance(fam: DensePointFamily, s: int, t: int) -> Fraction:
    """Exact first-disagreement distance of two dense points: 1/(k+1) for the
    first position k where they differ, 0 when they are equal.  The order
    relations d < q and d <= q are decided by comparing this exact value."""
    return disagreement_distance(_split(fam, s, t))


def dense_pn_rows(fam: DensePointFamily, codes: list[int]) -> tuple[Any, list[Fraction]]:
    """Every distance among the dense points with the given codes, as labels
    of the distinct values: (labels, values), with
    dense_pn_distance(fam, codes[u], codes[v]) = values[labels[u, v]] for the
    len(codes) x len(codes) int array labels.  values holds each distance
    that occurs once, the shared disagreement_distance constants, 0 first
    and then 1/(k+1) by increasing k.

    The values the points have stored are stacked in one array, relabelled
    to small ints so any natural fits, each row padded with a label no other
    row holds.  Row u's first mismatch against every row is then one argmax.
    A mismatch inside both points' stored values is their first
    disagreement.  One at or past the end of either goes to
    first_disagreement up to the longer stem, which grows the shorter
    branch; so does the diagonal, whose all-false row argmax reads as 0.
    Each entry is then k + 1 for a first disagreement at k, 0 for none, and
    these positions are renumbered to the values' indices.  Each row is
    computed from row u alone, so d(u, v) and d(v, u) are two computations.
    """
    import numpy as np

    entries = [fam._entry(s) for s in codes]
    labels: dict[int, int] = {}
    stored = [[labels.setdefault(x, len(labels)) for x in point._prefix]
              for point, _ in entries]
    lengths = np.array([len(vals) for vals in stored], dtype=np.intp)
    width = int(lengths.max(initial=0)) + 1
    table = np.empty((len(codes), width), dtype=np.intp)
    table[:] = -1 - np.arange(len(codes), dtype=np.intp)[:, None]
    for u, vals in enumerate(stored):
        table[u, :len(vals)] = vals
    firsts = np.empty((len(codes), len(codes)), dtype=np.intp)
    for u in range(len(codes)):
        firsts[u] = (table != table[u]).argmax(axis=1)
        firsts[u, u] = width - 1  # the diagonal, sent to first_disagreement
    late = firsts >= np.minimum(lengths[:, None], lengths)
    firsts += 1
    for u, (a, m) in enumerate(entries):
        for v in np.flatnonzero(late[u]).tolist():
            b, n = entries[v]
            k = first_disagreement(a, b, m if m > n else n)
            firsts[u, v] = 0 if k is None else k + 1
    seen = np.zeros(int(firsts.max(initial=0)) + 1, dtype=bool)
    seen[firsts] = True
    positions = np.flatnonzero(seen)
    renumber = np.zeros(len(seen), dtype=np.intp)
    renumber[positions] = np.arange(len(positions), dtype=np.intp)
    values = [disagreement_distance(k - 1 if k else None) for k in positions.tolist()]
    return renumber[firsts], values


def enumerate_distinct(fam: DensePointFamily, count: int, cap: int) -> list[int]:
    """The first `count` least codes below cap, in code order: distinct points.

    cap is the caller's, an instance's enumeration_cap.  The family's frontier
    is a heap of stems keyed by their codes, each with its prefix's trie node.
    The walk pops the least stem u, pushes its next sibling, unbounded by
    child_bound since a tree may admit entries past it, and if the tree
    admits u, pushes u's 0-child and keeps u's code when is_least_code's rule
    holds.  It stops when the least key reaches cap.  A stem whose code
    reaches the cap it is pushed under is keyed by that cap, and by its code
    once a later call with a larger cap reaches it.  The frontier and the
    codes kept stay on the family, so a later call resumes the walk; u is
    tested before it is popped, so a least-child search that raises leaves
    the frontier as it was.

    The walk skips the children of an inadmissible stem, so it rests on
    downward closure: validate_pruned certifies it to the validated depth,
    and past that it is the tree's author's promise, as prunedness is.
    """
    found, frontier, tree = fam._least_codes, fam._frontier, fam.tree
    while len(found) < count and frontier[0][0] < cap:
        code, exact, u, parent = frontier[0]
        if not exact:
            heapreplace(frontier, _keyed(u, parent, cap))
            continue
        node = tree._asked(parent, u)
        # is_least_code's rule: admitted, and the root or not the least child
        if node.verdict and (parent is None or node is not (
                parent.least or tree._search(parent, u[:-1])[0])):
            found.append(code)
        if parent is None:
            heappop(frontier)
        else:
            heapreplace(frontier, _keyed(u[:-1] + (u[-1] + 1,), parent, cap))
        if node.verdict:
            heappush(frontier, _keyed(u + (0,), node, cap))
    below = bisect_left(found, cap)
    if below < count:
        raise InsufficientDensePoints(below, count, cap)
    return found[:count]


def _keyed(u: tuple[int, ...], parent: Optional[_Stem], cap: int) -> _Frontier:
    """u's frontier entry: its code when that is below cap, else cap."""
    code = code_below(u, cap)
    return (cap, False, u, parent) if code is None else (code, True, u, parent)


def iter_admissible(tree: PrunedTree, max_len: int) -> Iterator[tuple[int, ...]]:
    """All admissible sequences of length <= max_len, entries within bounds."""
    stack: list[tuple[int, ...]] = [()]
    while stack:
        u = stack.pop()
        if not tree.admits(u):
            continue
        yield u
        if len(u) < max_len:
            for k in range(tree.child_bound(u) + 1):
                stack.append(u + (k,))


# --- tree catalog -----------------------------------------------------------

def full_baire_tree() -> PrunedTree:
    """All of Baire space.  Child bound 0: the least-child search never moves."""
    return PrunedTree(lambda u: True, lambda u: 0,
                      hint=lambda u: (len(u), 1), label="full-baire")


def full_cantor_tree() -> PrunedTree:
    """All 0/1 sequences."""
    return PrunedTree(lambda u: all(x <= 1 for x in u), lambda u: 1,
                      hint=lambda u: (len(u), 1), label="full-cantor")


def constant_tree(c: int) -> PrunedTree:
    """The single branch c, c, c, ..."""
    return PrunedTree(lambda u: all(x == c for x in u), lambda u: c,
                      hint=lambda u: (len(u), 1), label=f"constant-{c}")


def cylinder_union_tree(prefixes: Iterable[Iterable[int]], label: str,
                        child_floor: int) -> PrunedTree:
    """The union of the basic neighborhoods of the given finite prefixes.

    child_floor widens the child search ceiling beyond what the leftmost
    branch needs, so that validation and sampling walks see the whole
    alphabet of an instance rather than only the spine.
    """
    pres = tuple(tuple(p) for p in prefixes)
    if not pres:
        raise ValueError("at least one prefix is required")
    max_len = max(len(p) for p in pres)
    # u is admitted when it starts a prefix or extends one
    starts = {p[:m] for p in pres for m in range(len(p) + 1)}
    full = set(pres)
    lengths = sorted({len(p) for p in pres})

    def admits(u: tuple[int, ...]) -> bool:
        if u in starts:
            return True
        n = len(u)
        for m in lengths:
            if m >= n:
                return False
            if u[:m] in full:
                return True
        return False

    def child_bound(u: tuple[int, ...]) -> int:
        n = len(u)
        best = child_floor
        for p in pres:
            if len(p) > n and u == p[:n]:
                best = max(best, p[n])
        return best

    def hint(u: tuple[int, ...]) -> tuple[int, int]:
        return (max(len(u), max_len), 1)

    return PrunedTree(admits, child_bound, label, hint=hint)
