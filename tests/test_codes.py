import random
from dataclasses import replace
from fractions import Fraction

import pytest

from clopen.baire import BairePoint
from clopen.codes import (MalformedCode, MetricAxiomViolation, RationalMetricTable,
                          catalog_table, check_metric_axioms, decode_metric, encode_metric,
                          parse_code_file, render_code_file, validate_metric_table)
from clopen import codes
from clopen import coding
from clopen import remetrize
from clopen.cli import main
from clopen.coding import decode, encode, quad_code
from clopen.instances import CATALOG, DEFAULT_BOUNDS, build_instance, builtin_instance
from clopen.remetrize import interleave, sum_distance
from clopen.trees import InsufficientDensePoints, dense_pn_distance, dense_pn_rows
from clopen.verify import check_interleaved_table

CAP = DEFAULT_BOUNDS["enumeration_cap"]  # the catalog instances' enumeration cap


def representations(value, limit):
    """All (m, n) with m/(n+1) == value and m, n <= limit."""
    out = []
    for n in range(limit + 1):
        m = value * (n + 1)
        if m.denominator == 1 and 0 <= m.numerator <= limit:
            out.append((m.numerator, n))
    return out


def test_discrete_code_bits_follow_the_formula():
    code = encode_metric(catalog_table("discrete", k=4))
    for i in range(4):
        for j in range(4):
            for m in range(8):
                for n in range(8):
                    want = (i != j and m == n + 1) or (i == j and m == 0)
                    assert code(quad_code(i, j, m, n)) == (1 if want else 0)


def test_zero_distance_is_witnessed_everywhere():
    code = encode_metric(catalog_table("discrete", k=8))
    assert code(quad_code(0, 0, 0, 5)) == 1


def test_non_quadruple_positions_are_zero():
    code = encode_metric(catalog_table("discrete", k=8))
    for t in (0, 1, 2, 3, 17):
        assert code(t) == 0


def test_harmonic_table_is_the_distance_of_the_reciprocals():
    dist = catalog_table("harmonic", k=300).dist
    for i in range(300):
        for j in range(300):
            assert dist(i, j) == abs(Fraction(1, i + 1) - Fraction(1, j + 1))


def test_representation_completeness():
    table = catalog_table("harmonic", k=6)
    code = encode_metric(table)
    for i in range(6):
        for j in range(6):
            for m, n in representations(table.dist(i, j), 40):
                assert code(quad_code(i, j, m, n)) == 1


def test_decode_scan_order_and_round_trip():
    table = catalog_table("discrete", k=5)
    code = encode_metric(table)
    assert decode_metric(code, 0, 1, window=64) == 1  # first witness is (m, n) = (1, 0)
    assert decode_metric(code, 2, 2, window=64) == 0
    for i in range(5):
        for j in range(5):
            assert decode_metric(code, i, j, window=64) == table.dist(i, j)


def test_malformed_codes():
    empty = BairePoint(lambda t: 0)
    with pytest.raises(MalformedCode):
        decode_metric(empty, 0, 0, window=8)


def full_scan(code, i, j, window):
    """decode_metric's scan over every (m, n), reduced or not: the reference
    the lowest-terms scan must agree with on every code point."""
    for m in range(window + 1):
        for n in range(window + 1):
            if code(quad_code(i, j, m, n)):
                return Fraction(m, n + 1)
    raise MalformedCode(f"no value witnessed for pair ({i},{j}) within window {window}")


def _outcome(scan, code, i, j, window):
    try:
        return scan(code, i, j, window)
    except MalformedCode as exc:
        return f"MalformedCode: {exc}"


NON_DEGENERATE = [name for name in CATALOG if not name.startswith("degenerate")]


def _decode_table(name):
    """A small catalog table, or a catalog instance's interleaved table (K=32;
    K=2 on witness-first-bit)."""
    if name == "discrete":
        return catalog_table("discrete", 8)
    if name == "harmonic":
        return catalog_table("harmonic", 12)
    return build_instance(builtin_instance(name)).table()


@pytest.mark.parametrize("name", ["discrete", "harmonic", *NON_DEGENERATE])
def test_lowest_terms_decode_agrees_with_the_full_scan(name):
    table = _decode_table(name)
    code = encode_metric(table)
    pairs = [(i, j) for i in range(table.K) for j in range(table.K)]
    values = [table.dist(i, j) for i, j in pairs]
    top = max(v.denominator for v in values)
    cover = max(top - 1, *(v.numerator for v in values))
    # at a window that covers the table every entry decodes; one below its
    # largest denominator the entries with that denominator raise, in both scans
    for window, decodes in ((cover, True), (top - 2, False)):
        got = [_outcome(decode_metric, code, i, j, window) for i, j in pairs]
        assert got == [_outcome(full_scan, code, i, j, window) for i, j in pairs]
        assert (got == values) is decodes


def test_decode_reads_only_the_reduced_positions():
    # 1 read for 0; k + 2 for 1/(k+1): (0, 0), then (1, 0) .. (1, k); window + 3
    # for 2: (0, 0), the whole m = 1 row, then (2, 0)
    table = _decode_table("cantor-split-00")
    code, window, reads = encode_metric(table), 96, []

    def counted(t):
        reads.append(t)
        return code(t)

    kinds = set()
    for i in range(table.K):
        for j in range(table.K):
            value = table.dist(i, j)
            reads.clear()
            assert decode_metric(counted, i, j, window) == value
            if value in (0, 2):
                kinds.add(value)
                want = 1 if value == 0 else window + 3
            else:
                assert value.numerator == 1
                kinds.add("1/(k+1)")
                want = value.denominator + 1
            assert len(reads) == want, (i, j, value)
    assert kinds == {0, "1/(k+1)", 2}


def test_a_non_reduced_bit_alone_is_passed_by():
    # not a metric code: the only bit set for (0, 1) is (2, 3), which codes 2/4
    # while the reduced 1/2 at (1, 1) is clear; the full scan reads 1/2 off it
    code = BairePoint(lambda t: int(t == quad_code(0, 1, 2, 3)))
    assert full_scan(code, 0, 1, 8) == Fraction(1, 2)
    with pytest.raises(MalformedCode) as exc:
        decode_metric(code, 0, 1, window=8)
    assert str(exc.value) == "no value witnessed for pair (0,1) within window 8"


def test_metric_axiom_violations_are_caught():
    bad = RationalMetricTable(
        dist=lambda i, j: Fraction(0) if i == j else Fraction(abs(i - j), 1),
        K=8, tail_rule="bad", label="bad")
    # one stretched distance breaks the triangle through any third point
    def broken(i, j):
        if i == j:
            return Fraction(0)
        return Fraction(3) if {i, j} == {0, 2} else Fraction(1)

    with pytest.raises(MetricAxiomViolation):
        check_metric_axioms(broken, 8)
    validate_metric_table(bad)  # |i - j| is a true metric


AXIOM_BREAKS = {
    # d(0, 1) and d(1, 0) as given; every other pair of distinct indices is 1
    "nonnegativity": (Fraction(-1, 2), Fraction(-1, 2), (0, 1)),
    "symmetry": (Fraction(1, 2), Fraction(1, 3), (0, 1)),  # one numerator, two values
    "identity-of-indiscernibles": (Fraction(0), Fraction(0), (0, 1)),
}


@pytest.mark.parametrize("kind", AXIOM_BREAKS)
def test_axiom_check_reads_each_value_as_its_reduced_pair(kind):
    forward, backward, where = AXIOM_BREAKS[kind]

    def dist(i, j):
        if {i, j} == {0, 1}:
            return forward if (i, j) == (0, 1) else backward
        return Fraction(0) if i == j else Fraction(1)

    with pytest.raises(MetricAxiomViolation) as exc:
        check_metric_axioms(dist, 4)
    assert (exc.value.kind, exc.value.where) == (kind, where)
    # 2/4 and 3/6 are both 1/2: equal values are equal reduced pairs
    check_metric_axioms(
        lambda i, j: Fraction(0) if i == j else Fraction(2, 4) if i < j else Fraction(3, 6), 4)


def _triangle_outcome(check, dist, count):
    num = [[dist(i, j).numerator for j in range(count)] for i in range(count)]
    den = [[dist(i, j).denominator for j in range(count)] for i in range(count)]
    try:
        check(num, den, count)
    except MetricAxiomViolation as exc:
        return exc.kind, exc.where, str(exc)
    return None


@pytest.mark.parametrize("count", [8, 33, 70])
def test_blocked_triangle_check_matches_the_exact_loop(count):
    base = lambda i, j: Fraction(0) if i == j else Fraction(1, ((i ^ j) & -(i ^ j)).bit_length() + 1)
    # a stretched pair's first violation has i = its smaller index: the first
    # block, and at count 70 the last, partial block (i = 67)
    for pair in (None, (1, count - 1), (count - 3, count - 1)):
        def dist(i, j, pair=pair):
            return Fraction(2) if pair is not None and {i, j} == set(pair) else base(i, j)

        want = _triangle_outcome(codes._triangle_exact, dist, count)
        assert (want is None) == (pair is None)
        assert _triangle_outcome(codes._triangle_numpy, dist, count) == want


@pytest.mark.parametrize("count", [8, 9, 13, 33, 40])
def test_triangle_check_matches_the_exact_loop_on_random_tables(count):
    # symmetric, nonnegative, 0 on the diagonal: the tables the axiom check
    # hands on.  Values in [1/2, 1] make a metric; planted pairs far above 1
    # or far below 1/2 break triangles.  The last two cases plant only one
    # pair, among the last three indices: in the partial last block at count 13
    rng = random.Random(1400 + count)
    outcomes = set()
    for case in range(8):
        table = {}
        for i in range(count):
            for j in range(i + 1, count):
                q = rng.randint(1, 12)
                table[i, j] = Fraction(rng.randint((q + 1) // 2, q), q)
        for _ in range(case % 4 if case < 6 else 0):
            i, j = sorted(rng.sample(range(count), 2))
            table[i, j] = rng.choice([Fraction(rng.randint(3, 9)), Fraction(1, rng.randint(5, 40))])
        if case >= 6:
            i, j = sorted(rng.sample(range(count - 3, count), 2))
            table[i, j] = Fraction(rng.randint(3, 9))

        def dist(i, j, table=table):
            return Fraction(0) if i == j else table[min(i, j), max(i, j)]

        want = _triangle_outcome(codes._triangle_exact, dist, count)
        assert _triangle_outcome(codes._triangle_numpy, dist, count) == want
        outcomes.add(want is None)
    assert outcomes == {True, False}  # both metrics and violations were drawn


# (max numerator M, max denominator D, the dtype holding 2 M D^2): the largest
# bound that fits int16, then one past it; the same at int32, with D = 2
DTYPE_EDGES = [
    (16383, 1, "int16"),  # 2 M D^2 = 32766, iinfo(int16).max - 1: no bound is odd
    (16384, 1, "int32"),  # 32768, one past it
    ((1 << 28) - 1, 2, "int32"),  # 2^31 - 8: D = 2 puts the bound in steps of 8
    (1 << 28, 2, "int64"),  # 2^31, one past iinfo(int32).max
]


@pytest.mark.parametrize("max_num,max_den,dtype", DTYPE_EDGES)
def test_triangle_dtype_edges_keep_the_first_violation(max_num, max_den, dtype):
    # every distinct pair at M/D, so (i, j, k) = (0, 1, 2) reaches 2 M D^2, which
    # wraps negative one dtype too narrow and reads as a violation at i = 0;
    # the one true violation is d(3, 5) = M/D > d(3, 4) + d(4, 5) = 2/D
    assert codes._triangle_dtype(max_num, max_den).__name__ == dtype
    count = 12
    num = [[0 if i == j else max_num for j in range(count)] for i in range(count)]
    den = [[1 if i == j else max_den for j in range(count)] for i in range(count)]
    for i, j in ((3, 4), (4, 5)):
        num[i][j] = num[j][i] = 1
    want = ("triangle", (3, 5), "triangle fails at (3, 5) via 4")
    for check in (codes._triangle_exact, codes._triangle_numpy):
        with pytest.raises(MetricAxiomViolation) as exc:
            check(num, den, count)
        assert (exc.value.kind, exc.value.where, str(exc.value)) == want, check


# (denominator D, the path the axiom check takes): a table of 5 points, below
# one numpy block, with every distance over D, so 2 * 3 * D^2 bounds the
# check's products; past 2^15 it fits int64, past 2^31 it does not
PATH_CASES = [((1 << 15) + 3, "numpy"), ((1 << 31) + 3, "exact")]


@pytest.mark.parametrize("den,path", PATH_CASES)
def test_triangle_path_is_chosen_by_the_dtype_alone(monkeypatch, den, path):
    taken = []
    for name in ("numpy", "exact"):
        real = getattr(codes, f"_triangle_{name}")
        monkeypatch.setattr(codes, f"_triangle_{name}",
                            lambda *args, name=name, real=real: taken.append(name) or real(*args))

    # every pair at 3/D but d(1, 2) = d(2, 3) = 1/D, so d(1, 3) > d(1, 2) + d(2, 3)
    def dist(i, j):
        if i == j:
            return Fraction(0)
        return Fraction(1 if {i, j} in ({1, 2}, {2, 3}) else 3, den)

    with pytest.raises(MetricAxiomViolation) as exc:
        check_metric_axioms(dist, 5)
    assert taken == [path]
    assert (exc.value.kind, exc.value.where, str(exc.value)) == \
        _triangle_outcome(codes._triangle_exact, dist, 5) == \
        ("triangle", (1, 3), "triangle fails at (1, 3) via 2")


def _families(name="cantor-split-0"):
    sp = build_instance(builtin_instance(name)).sum_space
    return sp, sp.part_a.fam, sp.part_c.fam


def test_interleave_layout():
    sp, fam_a, fam_c = _families()
    table = interleave(sp, 12, cap=CAP, label="interleaved")
    for i in range(6):
        for j in range(6):
            assert table.dist(2 * i, 2 * j + 1) == 2
            assert table.dist(2 * j + 1, 2 * i) == 2
    # even-even distances are the set side's branch distances
    from clopen.trees import enumerate_distinct
    codes = enumerate_distinct(fam_a, 3, cap=CAP)
    assert table.dist(0, 2) == dense_pn_distance(fam_a, codes[0], codes[1])
    validate_metric_table(table)


def test_interleave_extends_past_serialized_prefix():
    sp, _, _ = _families()
    table = interleave(sp, 6, cap=CAP, label="interleaved")
    assert table.dist(10, 12) != 0  # indices beyond K come from the tail rule
    assert table.dist(10, 11) == 2


def test_a_starved_side_raises_insufficient_dense_points():
    # witness-first-bit offers far fewer than 40 distinct points below code 2000
    inst = builtin_instance("witness-first-bit")
    bounds = {**inst.bounds, "table_size": 40, "enumeration_cap": 2000}
    with pytest.raises(InsufficientDensePoints):
        build_instance(replace(inst, bounds=bounds)).table()


def test_code_file_round_trip():
    sp, _, _ = _families()
    table = interleave(sp, 8, cap=CAP, label="roundtrip")
    text = render_code_file(table, "roundtrip")
    inst_id, k, entries, tail = parse_code_file(text)
    assert inst_id == "roundtrip" and k == 8 and tail == "interleave:roundtrip"
    for (i, j), value in entries.items():
        assert table.dist(i, j) == value
    assert len(entries) == 8 * 9 // 2


def test_interleaved_code_matches_sum_space():
    built = build_instance(builtin_instance("cantor-split-00"))
    sp = built.sum_space
    fam_a, fam_c = sp.part_a.fam, sp.part_c.fam
    from clopen.trees import enumerate_distinct
    codes_a = enumerate_distinct(fam_a, 6, cap=CAP)
    codes_c = enumerate_distinct(fam_c, 6, cap=CAP)
    table = interleave(sp, 12, cap=CAP, label="interleaved")
    for u in range(12):
        for v in range(12):
            tag_u = (u % 2, (codes_a if u % 2 == 0 else codes_c)[u // 2])
            tag_v = (v % 2, (codes_a if v % 2 == 0 else codes_c)[v // 2])
            assert table.dist(u, v) == sum_distance(built.sum_space, tag_u, tag_v)


_HEADER = "format space-code/1\ninstance x\nK 2\n"


# each case's text and its whole message, line number first
MALFORMED_CODE_FILES = {
    "no-instance-line": ("format space-code/1\n", "line 2: expected 'instance ...'"),
    "K-not-a-number": ("format space-code/1\ninstance x\nK two\ntail t\n",
                       "line 3: K must be a natural number"),
    "K-negative": ("format space-code/1\ninstance x\nK -1\ntail t\n",
                   "line 3: K must be a natural number"),
    "entry-without-slash": (_HEADER + "0 0 1\ntail t\n", "line 4: expected an entry 'i j p/q'"),
    "zero-denominator": (_HEADER + "0 0 0/1\n0 0 1/0\ntail t\n",
                         "line 5: expected an entry 'i j p/q'"),
    "no-instance-prefix": ("format space-code/1\nx\nK 2\ntail t\n",
                           "line 2: expected 'instance ...'"),
    "no-tail-line": (_HEADER + "0 0 0/1\n", "line 4: expected 'tail ...'"),
    "header-only": (_HEADER, "line 4: expected 'tail ...'"),
    "tail-not-last": (_HEADER + "tail t\n0 0 0/1\n", "line 5: expected 'tail ...'"),
    # entries past K, a duplicate, a negative distance and d(0, 0) = 1
    "entries-past-K": ("format space-code/1\ninstance x\nK 1\n5 7 -1/2\n5 7 1/3\n"
                       "0 0 1/1\ntail t\n", "line 4: expected the entry of pair (0, 0)"),
    "missing-entry": (_HEADER + "0 0 0/1\ntail t\n", "line 5: expected the entry of pair (0, 1)"),
    "duplicate-entry": (_HEADER + "0 0 0/1\n0 0 0/1\n0 1 1/2\n1 1 0/1\ntail t\n",
                        "line 5: expected the entry of pair (0, 1)"),
    "rows-out-of-order": (_HEADER + "0 0 0/1\n1 1 0/1\n0 1 1/2\ntail t\n",
                          "line 5: expected the entry of pair (0, 1)"),
    "extra-entry": (_HEADER + "0 0 0/1\n0 1 1/2\n1 1 0/1\n1 2 1/2\ntail t\n",
                    "line 7: expected the tail line"),
    "negative-distance": (_HEADER + "0 0 0/1\n0 1 -1/2\n1 1 0/1\ntail t\n",
                          "line 5: d(0, 1) = -1/2 is not a metric value"),
    "nonzero-self-distance": (_HEADER + "0 0 0/1\n0 1 1/2\n1 1 1/1\ntail t\n",
                              "line 6: d(1, 1) = 1 is not a metric value"),
    "zero-between-distinct": (_HEADER + "0 0 0/1\n0 1 0/1\n1 1 0/1\ntail t\n",
                              "line 5: d(0, 1) = 0 is not a metric value"),
}


@pytest.mark.parametrize("text,message", MALFORMED_CODE_FILES.values(),
                         ids=MALFORMED_CODE_FILES)
def test_malformed_code_files_name_their_line(text, message):
    with pytest.raises(MalformedCode) as exc:
        parse_code_file(text)
    assert str(exc.value) == message


def test_rendered_catalog_file_parses_to_its_table():
    built = build_instance(builtin_instance("cantor-split-0"))
    table = interleave(built.sum_space, 8, cap=CAP, label="cantor-split-0")
    text = render_code_file(table, "cantor-split-0")
    inst_id, k, entries, tail = parse_code_file(text)
    assert (inst_id, k, tail) == ("cantor-split-0", 8, "interleave:cantor-split-0")
    assert entries == {(i, j): value for i, j, value in table.rows()}


def test_an_empty_metric_table_passes_the_axiom_check():
    check_metric_axioms(lambda i, j: Fraction(0), 0)
    validate_metric_table(catalog_table("discrete", 0))


# --- the code point's rule and the computed-once table ----------------------------

def test_code_point_rule_matches_its_definition():
    # d(i, j) == m/(n+1) on decode(t), for t = 0, tags other than 3, m = 0
    # and unreduced values such as 2/6 for 1/3
    table = RationalMetricTable(
        dist=lambda i, j: Fraction(0) if i == j else Fraction(1, 3) if (i + j) % 2 else Fraction(2),
        K=6, tail_rule="test", label="test")
    point = encode_metric(table)
    rng = random.Random(1401)
    positions = [0, encode((0,)), encode((1, 2)), encode((1, 2, 1)), encode((1, 2, 1, 2, 0)),
                 encode((0, 1, 1, 2, 7)), quad_code(3, 3, 0, 0), quad_code(3, 3, 0, 9),
                 quad_code(1, 2, 0, 2), quad_code(1, 2, 1, 2), quad_code(1, 2, 2, 5),
                 quad_code(0, 2, 4, 1), quad_code(0, 2, 2, 0)]
    positions += [rng.randrange(1 << 20) for _ in range(400)]
    positions += [quad_code(i, j, m, n) for i in range(4) for j in range(4)
                  for m in range(7) for n in range(7)]
    tags = set()
    for t in positions:
        u = decode(t)
        tags.add(len(u))
        want = len(u) == 4 and table.dist(u[0], u[1]) == Fraction(u[2], u[3] + 1)
        assert point(t) == (1 if want else 0), (t, u)
    assert {0, 1, 2, 3, 4, 5} <= tags
    assert sum(point(t) for t in positions) > 50  # a sample of mostly zeros tests little


def test_decode_metric_leaves_the_decode_cache_alone():
    table = catalog_table("harmonic", 8)
    code = encode_metric(table)
    before = coding.decode.cache_info()
    values = [decode_metric(code, i, j, window=64) for i in range(8) for j in range(8)]
    after = coding.decode.cache_info()
    assert values == [table.dist(i, j) for i in range(8) for j in range(8)]
    assert after.currsize == before.currsize
    assert after.hits + after.misses == before.hits + before.misses


def test_interleaved_entries_below_K_are_computed_once(monkeypatch):
    sp, fam_a, fam_c = _families()
    calls = {}
    kernel = []  # (family, codes, rows) of each dense_pn_rows call

    def counted(fam, s, t):
        calls[id(fam), s, t] = calls.get((id(fam), s, t), 0) + 1
        return dense_pn_distance(fam, s, t)

    def rows_counted(fam, side_codes):
        # one object per entry, so identity tells which row an entry came from
        rows = [[Fraction(d) for d in row] for row in dense_pn_rows(fam, side_codes)]
        kernel.append((fam, list(side_codes), rows))
        return rows

    monkeypatch.setattr(remetrize, "dense_pn_distance", counted)
    monkeypatch.setattr(remetrize, "dense_pn_rows", rows_counted)
    table = interleave(sp, 12, cap=CAP, label="once")
    validate_metric_table(table)
    code = encode_metric(table)
    render_code_file(table, "once")
    for i in range(6):
        for j in range(6):
            assert decode_metric(code, 2 * i, 2 * j + i % 2, window=64) == table.dist(
                2 * i, 2 * j + i % 2)
    # every same-side ordered pair below K, each once, by its own row: one
    # kernel call a side, no per-pair call, and d(u, v) is the object row u
    # holds, so d(u, v) and d(v, u) are two computations
    assert [(fam, side_codes) for fam, side_codes, _ in kernel] == [
        (fam_a, fam_a._least_codes[:6]), (fam_c, fam_c._least_codes[:6])]
    assert calls == {}
    for u in range(12):
        for v in range(u % 2, 12, 2):
            assert table.dist(u, v) is kernel[u % 2][2][u // 2][v // 2]
    # a pair past K extends the enumerations, and is computed each time it is asked
    scanned = len(fam_a._least_codes)
    far = table.dist(2, 20)
    assert len(fam_a._least_codes) > scanned
    codes_a = fam_a._least_codes
    assert far == dense_pn_distance(fam_a, codes_a[1], codes_a[10])
    assert table.dist(2, 20) == far
    assert calls[id(fam_a), codes_a[1], codes_a[10]] == 2


def test_interleaved_symmetry_compares_the_two_rows(monkeypatch):
    # d(u, v) is read from row u and d(v, u) from row v: a value planted in
    # one row alone is a symmetry failure
    def planted(fam, side_codes):
        rows = dense_pn_rows(fam, side_codes)
        if fam is fam_a:
            rows[1][2] = Fraction(1, 7)
        return rows

    sp, fam_a, fam_c = _families()
    monkeypatch.setattr(remetrize, "dense_pn_rows", planted)
    table = interleave(sp, 12, cap=CAP, label="planted")
    assert table.dist(2, 4) == Fraction(1, 7) != table.dist(4, 2)
    with pytest.raises(MetricAxiomViolation) as exc:
        validate_metric_table(table)
    assert (exc.value.kind, exc.value.where) == ("symmetry", (2, 4))


def test_a_repeated_value_text_is_still_checked_on_its_line():
    sp, _, _ = _families()
    text = render_code_file(interleave(sp, 4, cap=CAP, label="x"), "x")
    lines = text.splitlines()
    assert lines[3] == "0 0 0/1" and lines[4] == "0 1 2/1"
    # a second 0/1, off the diagonal
    off = lines[:4] + ["0 1 0/1"] + lines[5:]
    with pytest.raises(MalformedCode, match="^line 5: d\\(0, 1\\) = 0 is not a metric value"):
        parse_code_file("\n".join(off) + "\n")
    # a second 2/1, on the diagonal (line 8 is the entry of pair (1, 1))
    assert lines[7] == "1 1 0/1"
    diag = lines[:7] + ["1 1 2/1"] + lines[8:]
    with pytest.raises(MalformedCode, match="^line 8: d\\(1, 1\\) = 2 is not a metric value"):
        parse_code_file("\n".join(diag) + "\n")


def test_instance_table_checks_the_metric_axioms(monkeypatch):
    # a symmetric entry of 3 on side a breaks the triangle through index 0,
    # since a side's distances are at most 1; encode, remetrize and the
    # interleave check all read the table built.table() checked, so none of
    # them reads the planted value unchecked
    def planted(fam, side_codes):
        rows = dense_pn_rows(fam, side_codes)
        if fam is built.sum_space.part_a.fam:
            rows[1][2] = rows[2][1] = Fraction(3)
        return rows

    built = build_instance(builtin_instance("cantor-split-0"))
    monkeypatch.setattr(remetrize, "dense_pn_rows", planted)
    with pytest.raises(MetricAxiomViolation) as exc:
        built.table()
    assert exc.value.kind == "triangle"
    assert check_interleaved_table(built).detail.startswith("MetricAxiomViolation: triangle")


@pytest.mark.parametrize("command", ["encode", "remetrize"])
def test_a_table_the_axiom_check_rejects_ends_the_command_in_one_line(command, monkeypatch,
                                                                      capsys):
    # the entry planted above, on the first side the command's table reads:
    # one stderr line and exit 1, no traceback and no output
    def planted(fam, side_codes):
        rows = dense_pn_rows(fam, side_codes)
        if not sides:
            rows[1][2] = rows[2][1] = Fraction(3)
        sides.append(fam)
        return rows

    sides = []
    monkeypatch.setattr(remetrize, "dense_pn_rows", planted)
    assert main([command, "--instance", "cantor-split-0"]) == 1
    assert capsys.readouterr() == (
        "", "verification failure: MetricAxiomViolation: triangle fails at (2, 4) via 0\n")
