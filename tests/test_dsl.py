import pytest

from clopen.dsl import EvalError, ParseError, compile, evaluate, parse, parse_field, sort_of


def seq(*values):
    return lambda i: values[i] if 0 <= i < len(values) else 0


def test_arithmetic():
    assert evaluate(parse("2 + 3 * 4"), {}) == 14
    assert evaluate(parse("(2 + 3) * 4"), {}) == 20


def test_variables_and_access():
    env = {"n": 3, "s": seq(5, 6, 7)}
    assert evaluate(parse("s(n + 1) + s(0)"), env) == 5  # s(4) = 0 past the end
    assert evaluate(parse("s(1) * n"), env) == 18


def test_comparisons_and_connectives():
    env = {"x": 2, "y": 5}
    assert evaluate(parse("x < y and not y <= x"), env) is True
    assert evaluate(parse("x == 2 or y == 2"), env) is True
    assert evaluate(parse("x != 2"), env) is False


def test_bounded_quantifiers():
    env = {"s": seq(0, 0, 0, 1), "len": 4}
    assert evaluate(parse("all k < 3 : s(k) == 0"), env) is True
    assert evaluate(parse("all k < len : s(k) == 0"), env) is False
    assert evaluate(parse("some k < len : s(k) == 1"), env) is True
    assert evaluate(parse("some k < 0 : s(k) == 9"), env) is False


def test_quantifier_body_extends_right():
    env = {"s": seq(1, 1), "len": 2}
    e = parse("all k < len : s(k) == 1 and k < 5")
    assert evaluate(e, env) is True


def test_nested_quantifiers():
    env = {"s": seq(0, 1, 0, 1)}
    e = parse("all i < 2 : some j < 2 : s(i + i) + j == 1")
    assert evaluate(e, env) is True


def test_unbounded_quantifier_rejected():
    with pytest.raises(ParseError):
        parse("all k : s(k) == 0")
    with pytest.raises(ParseError):
        parse("some k <= 3 : s(k) == 0")


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("1 +\n+ 2")
    assert exc.value.line == 2
    assert exc.value.col == 1


def test_unknown_character():
    with pytest.raises(ParseError):
        parse("1 - 2")


def test_sort_checking():
    none = frozenset()
    assert sort_of(parse("1 + 2"), none, none) == "nat"
    assert sort_of(parse("1 < 2"), none, none) == "bool"
    with pytest.raises(ParseError, match="expected a boolean expression"):
        parse_field("1 + 2", "bool", none, none)
    with pytest.raises(ParseError, match="expected a natural-number expression"):
        parse_field("1 < 2", "nat", none, none)
    with pytest.raises(ParseError):
        sort_of(parse("1 + (2 == 3)"), none, none)


def test_check_names_binds_context_and_quantifier_names():
    tree = (frozenset({"len"}), frozenset({"s"}))
    assert sort_of(parse("all i < len : s(i) <= 1"), *tree) == "bool"
    assert sort_of(parse("some k < len : all j < k : s(j) <= s(k)"), *tree) == "bool"
    assert sort_of(parse("s(len) + 1"), *tree) == "nat"
    for text, name in (("x == 1", "x"), ("t(0) == 0", "t"), ("len(0) == 1", "len"),
                       ("s(len) + i", "i"), ("all i < i : s(i) == 0", "i"),
                       ("(all i < len : s(i) == 0) and i == 0", "i")):
        with pytest.raises(ParseError, match=repr(name)):
            sort_of(parse(text), *tree)
    # a quantifier variable named like a sequence hides the sequence in its body
    with pytest.raises(ParseError, match="unbound sequence 's'"):
        sort_of(parse("all s < 2 : s(0) == 0"), *tree)
    # every name that passes is bound when the expression is evaluated
    assert evaluate(parse("all i < len : s(i) <= 1"), {"len": 2, "s": seq(1, 0)})


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("1 + 2 2")


def test_unbound_names_fail_at_evaluation():
    with pytest.raises(EvalError):
        evaluate(parse("x + 1"), {})
    with pytest.raises(EvalError):
        evaluate(parse("f(1)"), {})


def _short_seq(values, reads):
    """A sequence that records each read and raises when read past index 2."""
    def f(i):
        reads.append(i)
        if i > 2:
            raise IndexError(i)
        return values[i]
    return f


def test_connectives_short_circuit():
    reads = []
    env = {"f": _short_seq((0, 1, 0), reads), "len": 1}
    assert evaluate(parse("len < 2 or f(9) == 0"), env) is True
    assert evaluate(parse("1 == 2 and f(9) == 0"), env) is False
    assert evaluate(parse("not (1 == 1 and (len == 2 and f(9) == 0))"), env) is True
    assert reads == []


def test_quantifiers_stop_at_the_first_hit_or_miss():
    reads = []
    env = {"f": _short_seq((0, 1, 0), reads)}
    assert evaluate(parse("some i < 9 : f(i) == 1"), env) is True
    assert reads == [0, 1]
    reads.clear()
    assert evaluate(parse("all i < 9 : f(i) == 0"), env) is False
    assert reads == [0, 1]
    reads.clear()
    assert evaluate(parse("all i < 3 : some j < 9 : f(i) + j == 1"), env) is True
    assert max(reads) == 2


def test_unbound_names_fail_when_read_not_when_compiled():
    unbound = compile(parse("len < 2 or x == 1"))
    assert unbound({"len": 1}) is True
    with pytest.raises(EvalError, match="'x'"):
        unbound({"len": 2})
    with pytest.raises(EvalError, match="'t'"):
        compile(parse("t(0) == 0"))({"t": 3})


def test_compiled_expression_is_reused_and_keeps_result_types():
    e = parse("all k < len : s(k) <= 1")
    admits = compile(e)
    for values in ((), (0, 1), (1, 2), (2,)):
        env = {"s": seq(*values), "len": len(values)}
        assert admits(env) is evaluate(e, env) is all(v <= 1 for v in values)
    assert compile(parse("2 + n * 3"))({"n": 4}) == 14
    assert type(compile(parse("2 + n * 3"))({"n": 4})) is int
    for text in ("1 < 2", "not 1 < 2", "1 < 2 and 2 < 3", "1 < 2 or 2 < 3",
                 "some i < 2 : i == 1", "all i < 0 : i == 1"):
        assert type(compile(parse(text))({})) is bool
