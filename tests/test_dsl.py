import contextlib
import functools
import io
import json
import operator
import random

import pytest

from clopen.cli import main
from clopen.dsl import (Access, BinOp, EvalError, Not, Num, ParseError, Quant, Var, compile,
                        parse, parse_field, position_step, sort_of)
from clopen.instances import _node_verdicts


def seq(*values):
    return lambda i: values[i] if 0 <= i < len(values) else 0


def value_of(e, env):
    """The value of e with env's names bound, through the function compile builds."""
    return compile(e, tuple(env))(*env.values())


def test_arithmetic():
    assert value_of(parse("2 + 3 * 4"), {}) == 14
    assert value_of(parse("(2 + 3) * 4"), {}) == 20


def test_variables_and_access():
    env = {"n": 3, "s": seq(5, 6, 7)}
    assert value_of(parse("s(n + 1) + s(0)"), env) == 5  # s(4) = 0 past the end
    assert value_of(parse("s(1) * n"), env) == 18


def test_comparisons_and_connectives():
    env = {"x": 2, "y": 5}
    assert value_of(parse("x < y and not y <= x"), env) is True
    assert value_of(parse("x == 2 or y == 2"), env) is True
    assert value_of(parse("x != 2"), env) is False


def test_bounded_quantifiers():
    env = {"s": seq(0, 0, 0, 1), "len": 4}
    assert value_of(parse("all k < 3 : s(k) == 0"), env) is True
    assert value_of(parse("all k < len : s(k) == 0"), env) is False
    assert value_of(parse("some k < len : s(k) == 1"), env) is True
    assert value_of(parse("some k < 0 : s(k) == 9"), env) is False


def test_quantifier_body_extends_right():
    env = {"s": seq(1, 1), "len": 2}
    e = parse("all k < len : s(k) == 1 and k < 5")
    assert value_of(e, env) is True


def test_nested_quantifiers():
    env = {"s": seq(0, 1, 0, 1)}
    e = parse("all i < 2 : some j < 2 : s(i + i) + j == 1")
    assert value_of(e, env) is True


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
    assert value_of(parse("all i < len : s(i) <= 1"), {"len": 2, "s": seq(1, 0)})


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("1 + 2 2")


def test_unbound_names_fail_at_evaluation():
    with pytest.raises(EvalError):
        value_of(parse("x + 1"), {})
    with pytest.raises(EvalError):
        value_of(parse("f(1)"), {})


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
    assert value_of(parse("len < 2 or f(9) == 0"), env) is True
    assert value_of(parse("1 == 2 and f(9) == 0"), env) is False
    assert value_of(parse("not (1 == 1 and (len == 2 and f(9) == 0))"), env) is True
    assert reads == []


def test_quantifiers_stop_at_the_first_hit_or_miss():
    reads = []
    env = {"f": _short_seq((0, 1, 0), reads)}
    assert value_of(parse("some i < 9 : f(i) == 1"), env) is True
    assert reads == [0, 1]
    reads.clear()
    assert value_of(parse("all i < 9 : f(i) == 0"), env) is False
    assert reads == [0, 1]
    reads.clear()
    assert value_of(parse("all i < 3 : some j < 9 : f(i) + j == 1"), env) is True
    assert max(reads) == 2


def test_compiled_expression_is_reused_and_keeps_result_types():
    e = parse("all k < len : s(k) <= 1")
    admits = compile(e, ("s", "len"))
    for values in ((), (0, 1), (1, 2), (2,)):
        env = {"s": seq(*values), "len": len(values)}
        assert admits(seq(*values), len(values)) is value_of(e, env) is all(v <= 1 for v in values)
    assert compile(parse("2 + n * 3"), ("n",))(4) == 14
    assert type(compile(parse("2 + n * 3"), ("n",))(4)) is int
    for text in ("1 < 2", "not 1 < 2", "1 < 2 and 2 < 3", "1 < 2 or 2 < 3",
                 "some i < 2 : i == 1", "all i < 0 : i == 1"):
        assert type(compile(parse(text), ())()) is bool


# --- the compiler against a tree-walking reference ------------------------------

_REFERENCE_OPS = {"+": operator.add, "*": operator.mul, "<": operator.lt, "<=": operator.le,
                  ">": operator.gt, ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


def reference(e, env):
    """The value of e in env, by walking the tree with a scope dict per quantifier."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        v = env.get(e.name)
        if not isinstance(v, int):
            raise EvalError(f"unbound variable {e.name!r}")
        return v
    if isinstance(e, Access):
        f = env.get(e.name)
        if not callable(f):
            raise EvalError(f"unbound sequence {e.name!r}")
        return f(reference(e.arg, env))
    if isinstance(e, Not):
        return not reference(e.body, env)
    if isinstance(e, Quant):
        stop = e.kind == "some"  # the body value that ends the search
        for k in range(reference(e.bound, env)):
            if bool(reference(e.body, {**env, e.var: k})) is stop:
                return stop
        return not stop
    if e.op == "and":
        return bool(reference(e.left, env)) and bool(reference(e.right, env))
    if e.op == "or":
        return bool(reference(e.left, env)) or bool(reference(e.right, env))
    return _REFERENCE_OPS[e.op](reference(e.left, env), reference(e.right, env))


# names the environments bind as numbers and as sequences, and names they never bind;
# quantifiers reuse all of them, so they shadow numbers and sequences alike
NUMBER_NAMES, SEQUENCE_NAMES, FREE_NAMES = ("n", "len"), ("s", "t"), ("x", "f")
ALL_NAMES = NUMBER_NAMES + SEQUENCE_NAMES + FREE_NAMES + ("i", "j")


def _random_expr(rng, sort, depth, bound=()):
    """A random expression, mostly of the sort asked for, over every node kind.
    As in a field that sort_of passes, a variable never reads a sequence name
    and an access never a number name, unless a quantifier binds the name
    (bound); any name may be unbound."""
    variables = NUMBER_NAMES + FREE_NAMES + ("i", "j") + bound
    sequences = SEQUENCE_NAMES + FREE_NAMES + ("i", "j") + bound
    if rng.random() < 0.05:  # an operand of the other sort
        sort = "bool" if sort == "nat" else "nat"
    if sort == "nat":
        kind = rng.choice(("num", "var", "var", "access")) if depth == 0 else \
            rng.choice(("num", "var", "access", "+", "*"))
        if kind == "num":
            return Num(rng.randrange(4))
        if kind == "var":
            return Var(rng.choice(variables))
        if kind == "access":
            arg = _random_expr(rng, "nat", depth - 1, bound) if depth else \
                rng.choice((Num(rng.randrange(4)), Var(rng.choice(variables))))
            return Access(rng.choice(sequences), arg)
        return BinOp(kind, _random_expr(rng, "nat", depth - 1, bound),
                     _random_expr(rng, "nat", depth - 1, bound))
    if depth == 0:
        return BinOp(rng.choice(("<", "==")), _random_expr(rng, "nat", 0, bound),
                     _random_expr(rng, "nat", 0, bound))
    kind = rng.choice(("cmp", "cmp", "and", "or", "not", "all", "some"))
    if kind == "cmp":
        return BinOp(rng.choice(("<", "<=", ">", ">=", "==", "!=")),
                     _random_expr(rng, "nat", depth - 1, bound),
                     _random_expr(rng, "nat", depth - 1, bound))
    if kind in ("and", "or"):
        return BinOp(kind, _random_expr(rng, "bool", depth - 1, bound),
                     _random_expr(rng, "bool", depth - 1, bound))
    if kind == "not":
        return Not(_random_expr(rng, "bool", depth - 1, bound))
    # a bound of one atom keeps nested quantifiers to a few hundred steps
    var = rng.choice(ALL_NAMES)
    return Quant(kind, var, _random_expr(rng, "nat", 0, bound),
                 _random_expr(rng, "bool", depth - 1, bound + (var,)))


def _binds_every_read(e, names, scope=frozenset()):
    """Whether every name e reads is bound: a variable by a quantifier or by
    names, a sequence by names and by no quantifier."""
    if isinstance(e, Num):
        return True
    if isinstance(e, Var):
        return e.name in scope or e.name in names
    if isinstance(e, Access):
        return e.name in names and e.name not in scope and _binds_every_read(e.arg, names, scope)
    if isinstance(e, Not):
        return _binds_every_read(e.body, names, scope)
    if isinstance(e, Quant):
        return (_binds_every_read(e.bound, names, scope)
                and _binds_every_read(e.body, names, scope | {e.var}))
    return _binds_every_read(e.left, names, scope) and _binds_every_read(e.right, names, scope)


def _outcome(run):
    try:
        value = run()
    except EvalError as exc:
        return "EvalError", str(exc)
    return type(value).__name__, value


def test_compiled_expressions_match_the_reference_walk():
    rng = random.Random(20261019)
    kinds = set()
    for _ in range(2000):
        e = _random_expr(rng, rng.choice(("bool", "nat")), rng.randrange(1, 6))
        env = {name: rng.randrange(4) for name in NUMBER_NAMES if rng.random() < 0.8}
        env.update({name: seq(*(rng.randrange(4) for _ in range(4)))
                    for name in SEQUENCE_NAMES if rng.random() < 0.8})
        names = tuple(env)
        if _binds_every_read(e, names):
            want = _outcome(lambda: reference(e, env))
            assert _outcome(lambda: compile(e, names)(*env.values())) == want, e
        else:  # even a read that no run reaches
            with pytest.raises(EvalError):
                compile(e, names)
            want = ("EvalError",)
        kinds.add(want[0])
    assert kinds == {"bool", "int", "EvalError"}


def test_compiled_reads_follow_the_reference_order():
    """compile reports the first unbound name that the reference walk reads,
    with the reference's message: an access looks its sequence up before it
    reads its argument."""
    env = {"s": seq(1, 2), "n": 1}
    for text in ("t(x) == 0", "s(x) == t(0)", "all s < 2 : s(x) == 0", "x(n) + n(x)",
                 "some i < 2 : i == 1 and s(i + x) == 0", "all n < 1 : n(0) == 0"):
        e = parse(text)
        assert _outcome(lambda: compile(e, tuple(env))) == _outcome(lambda: reference(e, env)), text
        assert _outcome(lambda: compile(e, tuple(env)))[0] == "EvalError", text


def test_compile_rejects_every_unbound_read_once():
    """A read of a name that neither the names compile is given nor a
    quantifier binds, or an access on a quantifier variable, is an EvalError
    naming it at compile time, even behind a short-circuit."""
    for text, names, name in (
            ("len < 2 or x == 1", ("len",), "x"),
            ("1 == 2 and t(len) == 0", ("len",), "t"),
            ("(all i < 2 : i == 0) or i == 1", ("s", "n"), "i"),
            ("all s < 2 : s(0) == 0", ("s", "n"), "s"),
            ("all n < 1 : n(0) == 0", ("s", "n"), "n"),
            ("len < 2 or (some k < len : k(0) == 0)", ("len",), "k")):
        with pytest.raises(EvalError, match=repr(name)):
            compile(parse(text), names)


def test_names_are_never_python_names():
    """A DSL name that is a Python builtin or a generated parameter's or
    local's name reads the name it is compiled with, not the builtin."""
    env = {"all": 1, "range": 2, "bool": 3, "v0": 4, "q0": 5, "_unbound": 6}
    names, values = tuple(env), env.values()
    assert compile(parse("range + bool * v0"), names)(*values) == 2 + 3 * 4
    assert compile(parse("some v0 < range : v0 + q0 == 6"), names)(*values) is True
    assert compile(parse("all range < 3 : range < bool"), names)(*values) is True
    with pytest.raises(EvalError, match="'env'"):
        compile(parse("env == 0"), names)


def _doc(node):
    return {"format": "instance/1", "id": "deep", "ambient": {"kind": "cantor"},
            "set": {"kind": "tree-pair",
                    "a": {"rule": "dsl", "node": node, "child_bound": 1},
                    "complement": {"rule": "cylinders", "prefixes": [[1]], "child_bound": 1}},
            "bounds": {"depth": 2, "budget": 16, "witness_bound": 4,
                       "enumeration_cap": 2000, "table_size": 4}}


@pytest.mark.parametrize("node", [
    "not " * 400 + "all i < len : s(i) <= 1",
    "".join(f"all i{k} < 1 : " for k in range(300)) + "all i < len : s(i) <= 1",
], ids=["400-nested-not", "300-nested-quantifiers"])
def test_deep_expressions_compile_and_run(tmp_path, node):
    tree = (frozenset({"len"}), frozenset({"s"}))
    admits = compile(parse_field(node, "bool", *tree), ("s", "len"))
    assert admits(seq(1, 0), 2) is True
    assert admits(seq(2, 0), 2) is False
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_doc(node)), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["validate", "--instance", str(path)]) == 0


def test_a_position_local_conjunct_steps_to_its_body():
    e = parse("(all i < len : s(i) <= 1) and (len < 2 or s(0) == s(1))")
    assert position_step(e, "s", "len") == (parse("s(i) <= 1 and (len < 2 or s(0) == s(1))"),
                                           ("i",))
    # every top-level conjunct is split, under however many parentheses, and
    # the step form is their chain, left to right
    e = parse("len < 9 and ((all j < len : some k < j : s(j) == k) and all i < len : 1 <= s(i))")
    assert position_step(e, "s", "len") == (
        parse("len < 9 and (some k < j : s(j) == k) and 1 <= s(i)"), ("j", "i"))


@pytest.mark.parametrize("text", [
    "all i < len : s(i + 1) <= 1",                    # reads s past the position
    "all i < len : s(0) <= 1",                        # reads s at a fixed position
    "all i < len : s(i) <= len",                      # reads len
    "all i < len : all j < len : s(i) <= j",          # reads len in a nested bound
    "some i < len : s(i) <= 1",                       # not a universal
    "all i < len + 1 : s(i) <= 1",                    # not bounded by len
    "all i < len : s(i) <= 1 and (some i < 2 : s(i) == i)",  # rebinds i
    "all len < len : 0 == 0",                         # binds len itself
    "not (all i < len : s(i) <= 1)",                  # not a conjunct
    "(all i < len : s(i) <= 1) or len < 2",           # not a conjunct
])
def test_a_conjunct_that_is_not_position_local_is_not_split(text):
    assert position_step(parse(text), "s", "len") is None


def _node_expr(rng, sort, depth, numbers, binders, at):
    """A random node expression of the sort, reading the variables in numbers
    and the sequence s; its quantifiers bind names from binders.  With at, a
    variable name, it reads s only as s(at)."""
    if sort == "nat":
        kind = rng.choice(("num", "var", "access") + (("+", "*") if depth else ()))
        if kind == "num":
            return Num(rng.randrange(3))
        if kind == "var":
            return Var(rng.choice(numbers))
        if kind == "access":
            return Access("s", Var(at) if at else _node_expr(rng, "nat", 0, numbers, binders, at))
        return BinOp(kind, _node_expr(rng, "nat", depth - 1, numbers, binders, at),
                     _node_expr(rng, "nat", depth - 1, numbers, binders, at))
    kind = rng.choice(("cmp", "and", "or", "not", "all", "some")) if depth else "cmp"
    if kind == "cmp":
        return BinOp(rng.choice(("<", "<=", "==", "!=")),
                     _node_expr(rng, "nat", min(depth, 1), numbers, binders, at),
                     _node_expr(rng, "nat", min(depth, 1), numbers, binders, at))
    if kind in ("and", "or"):
        return BinOp(kind, _node_expr(rng, "bool", depth - 1, numbers, binders, at),
                     _node_expr(rng, "bool", depth - 1, numbers, binders, at))
    if kind == "not":
        return Not(_node_expr(rng, "bool", depth - 1, numbers, binders, at))
    var = rng.choice(binders)
    return Quant(kind, var, _node_expr(rng, "nat", 0, numbers, binders, at),
                 _node_expr(rng, "bool", depth - 1, numbers + (var,), binders, at))


def test_the_step_form_agrees_with_the_whole_predicate_below_admitted_stems():
    # seeded node predicates: one or two position-local conjuncts (each over
    # i or j, with quantifiers over k and m inside) and up to two other
    # conjuncts, half of them `all i < len : φ` with a φ that reads what it
    # likes, in a random order; on each stem u the predicate admits, the
    # tree's step verdict on u + (k,) is its whole predicate's
    rng = random.Random(20261020)
    checked, verdicts = 0, set()
    for _ in range(300):
        conjuncts = []
        for _ in range(rng.randint(1, 2)):
            var = rng.choice(("i", "j"))
            body = _node_expr(rng, "bool", rng.randint(1, 3), (var,), ("k", "m"), var)
            conjuncts.append(Quant("all", var, Var("len"), body))
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                conjuncts.append(_node_expr(rng, "bool", rng.randint(0, 2), ("len",),
                                            ("i", "j", "k"), None))
            else:
                body = _node_expr(rng, "bool", rng.randint(1, 3), ("len", "i"), ("i", "j"), None)
                conjuncts.append(Quant("all", "i", Var("len"), body))
        rng.shuffle(conjuncts)
        e = functools.reduce(lambda left, right: BinOp("and", left, right), conjuncts)
        assert sort_of(e, frozenset({"len"}), frozenset({"s"})) == "bool"
        admits, step = _node_verdicts(e, ("s", "len"))
        assert step is not None, e
        for _ in range(20):
            u = tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
            if admits(u):
                for k in range(3):
                    want = admits(u + (k,))
                    assert step(u + (k,)) == want, (e, u, k)
                    verdicts.add(want)
                    checked += 1
    assert verdicts == {True, False} and checked > 3000
