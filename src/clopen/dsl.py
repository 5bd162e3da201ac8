"""A small expression language for decidable predicates.

Instance files use it for tree node predicates (over the decoded sequence)
and for the matrices of least-witness descriptions (over a point prefix and
two index variables).  The language has natural constants, variables,
sequence access f(e), + and *, comparisons, boolean connectives, and bounded
quantifiers only:

    all k < len : s(k) <= 1
    some i < n + 1 : a(i) == 0 and a(i + 1) == 0

Quantifier bodies extend as far right as possible; parenthesize when mixing.
Unbounded quantification is not expressible: the grammar requires the
"< bound" part, which keeps every predicate decidable.

Each instance field binds a fixed tuple of names, such as a tree node's
(s, len).  parse_field's sort_of checks, once, that the field's expression
reads no other name, and compile(e, names) turns it into a function that
takes those names positionally, in that order.  Callers compile a field once
and keep the function.

A node predicate that bounds its stem's entries one by one, such as
`all i < len : s(i) <= 1`, would read the whole stem at each child a walk
asks about.  position_step recognises such position-local conjuncts by a
syntactic test and gives the predicate's step form, which decides a child
of an admitted stem from the child's last entry and the other conjuncts.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass
from typing import Callable, Optional, Union

KEYWORDS = {"all", "some", "and", "or", "not"}
_SYMBOLS = ("<=", ">=", "==", "!=", "<", ">", "+", "*", "(", ")", ":", ",")


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        self.line, self.col, self.message = line, col, message
        super().__init__(f"{line}:{col}: {message}")


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Access:
    name: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Not:
    body: "Expr"


@dataclass(frozen=True)
class Quant:
    kind: str  # "all" | "some"
    var: str
    bound: "Expr"
    body: "Expr"


Expr = Union[Num, Var, Access, BinOp, Not, Quant]

_ARITH_OPS = {"+", "*"}
_CMP_OPS = {"<", "<=", ">", ">=", "==", "!="}


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "sym" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c.isdecimal():  # what int() reads; a superscript digit is no numeral
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(line, col, f"unexpected character {c!r}")
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise ParseError(t.line, t.col, f"expected {text!r}, found {t.text!r}")
        return t

    def parse_expr(self) -> Expr:
        left = self.parse_and()
        while self.peek().text == "or":
            self.next()
            left = BinOp("or", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_unary()
        while self.peek().text == "and":
            self.next()
            left = BinOp("and", left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.text == "not":
            self.next()
            return Not(self.parse_unary())
        if t.text in ("all", "some"):
            self.next()
            var = self.next()
            if var.kind != "ident" or var.text in KEYWORDS:
                raise ParseError(var.line, var.col, "expected a quantifier variable")
            self.expect("<")
            bound = self.parse_arith()
            self.expect(":")
            body = self.parse_expr()
            return Quant(t.text, var.text, bound, body)
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_arith()
        t = self.peek()
        if t.text in _CMP_OPS:
            self.next()
            return BinOp(t.text, left, self.parse_arith())
        return left

    def parse_arith(self) -> Expr:
        left = self.parse_term()
        while self.peek().text == "+":
            self.next()
            left = BinOp("+", left, self.parse_term())
        return left

    def parse_term(self) -> Expr:
        left = self.parse_atom()
        while self.peek().text == "*":
            self.next()
            left = BinOp("*", left, self.parse_atom())
        return left

    def parse_atom(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            try:
                return Num(int(t.text))
            except ValueError:  # past the interpreter's limit on integer digits
                raise ParseError(t.line, t.col,
                                 f"numeral of {len(t.text)} digits is too long") from None
        if t.kind == "ident":
            if t.text in KEYWORDS:
                raise ParseError(t.line, t.col, f"misplaced keyword {t.text!r}")
            if self.peek().text == "(":
                self.next()
                arg = self.parse_arith()
                self.expect(")")
                return Access(t.text, arg)
            return Var(t.text)
        if t.text == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(t.line, t.col, f"unexpected token {t.text!r}")


def sort_of(e: Expr, variables: frozenset[str], sequences: frozenset[str]) -> str:
    """The static sort of e, 'nat' or 'bool', in one walk that also checks its
    names: every variable it reads must be among the variables and every
    sequence it accesses among the sequences.  A quantifier binds its variable
    in its body, where the name stops naming a sequence.  Raises ParseError on
    a sort mix or an unbound name."""
    if isinstance(e, Num):
        return "nat"
    if isinstance(e, (Var, Access)):
        kind, names = ("variable", variables) if isinstance(e, Var) else ("sequence", sequences)
        if e.name not in names:
            raise ParseError(0, 0, f"unbound {kind} {e.name!r} (bound here: "
                                   f"{', '.join(sorted(names)) or 'none'})")
        if isinstance(e, Access):
            _need(e.arg, "nat", variables, sequences)
        return "nat"
    if isinstance(e, Not):
        _need(e.body, "bool", variables, sequences)
        return "bool"
    if isinstance(e, Quant):
        _need(e.bound, "nat", variables, sequences)
        _need(e.body, "bool", variables | {e.var}, sequences - {e.var})
        return "bool"
    if isinstance(e, BinOp):
        operands = "bool" if e.op in ("and", "or") else "nat"
        _need(e.left, operands, variables, sequences)
        _need(e.right, operands, variables, sequences)
        return "nat" if e.op in _ARITH_OPS else "bool"
    raise EvalError(f"unknown node {e!r}")


def _need(e: Expr, want: str, variables: frozenset[str], sequences: frozenset[str]):
    got = sort_of(e, variables, sequences)
    if got != want:
        raise ParseError(0, 0, f"expected a {want} expression, found a {got} one")


Compiled = Callable[..., Union[bool, int]]

# the strict binary operators; "and"/"or" short-circuit and are built apart
_STRICT_OPS = {"+": ast.Add(), "*": ast.Mult(), "<": ast.Lt(), "<=": ast.LtE(),
               ">": ast.Gt(), ">=": ast.GtE(), "==": ast.Eq(), "!=": ast.NotEq()}

# the only globals generated code sees; its parameters are v<i> (the i-th
# name it is compiled with) and its locals q<i> (a quantifier variable), so no
# DSL name is ever a Python name
_GLOBALS = {"__builtins__": {}, "all": all, "any": any, "range": range, "bool": bool}


class _Builder:
    """The Python expression of a DSL expression over the given names.  Each
    read of a name is bound here, once: to its quantifier's local, else to
    the parameter of its place among the names, else it is an EvalError."""

    def __init__(self, names: tuple[str, ...]):
        self.params = {name: f"v{i}" for i, name in enumerate(names)}
        self.quantifiers = 0

    def read(self, kind: str, name: str, scope: dict[str, str]) -> ast.Name:
        if kind == "variable":
            local = scope.get(name) or self.params.get(name)
        else:  # a quantifier variable is a number, so it names no sequence
            local = None if name in scope else self.params.get(name)
        if local is None:
            raise EvalError(f"unbound {kind} {name!r}")
        return _load(local)

    def build(self, e: Expr, scope: dict[str, str]) -> ast.expr:
        if isinstance(e, Num):
            return ast.Constant(e.value)
        if isinstance(e, Var):
            return self.read("variable", e.name, scope)
        if isinstance(e, Access):
            return ast.Call(self.read("sequence", e.name, scope), [self.build(e.arg, scope)], [])
        if isinstance(e, Not):
            return ast.UnaryOp(ast.Not(), self.build(e.body, scope))
        if isinstance(e, Quant):
            local = f"q{self.quantifiers}"
            self.quantifiers += 1
            loop = ast.comprehension(ast.Name(local, ast.Store()),
                                     _call("range", self.build(e.bound, scope)), [], 0)
            body = self.build(e.body, {**scope, e.var: local})
            return _call("all" if e.kind == "all" else "any", ast.GeneratorExp(body, [loop]))
        if isinstance(e, BinOp):
            left, right = self.build(e.left, scope), self.build(e.right, scope)
            if e.op in ("and", "or"):
                op = ast.And() if e.op == "and" else ast.Or()
                return ast.BoolOp(op, [_call("bool", left), _call("bool", right)])
            if e.op in _ARITH_OPS:
                return ast.BinOp(left, _STRICT_OPS[e.op], right)
            if e.op in _CMP_OPS:
                return ast.Compare(left, [_STRICT_OPS[e.op]], [right])
        raise EvalError(f"unknown node {e!r}")


def _load(name: str) -> ast.Name:
    return ast.Name(name, ast.Load())


def _call(name: str, *args: ast.expr) -> ast.Call:
    return ast.Call(_load(name), list(args), [])


def compile(e: Expr, names: tuple[str, ...]) -> Compiled:
    """The expression as a function of the given names, built once.

    The function takes the names positionally, in their order: a variable's
    value is a number, a sequence's a function from numbers to numbers.  A
    read of a name that neither a quantifier nor names binds, or an access
    on a quantifier variable, raises EvalError here, whether or not a run
    would reach it; parse_field's sort_of has already ruled both out for
    every instance field.  compile binds names, not kinds: that a variable
    names a number and an access a sequence is sort_of's check alone.

    e becomes one Python expression tree, `lambda v0, v1, ...: ...`, with a
    quantifier as all()/any() over a generator and and/or as
    `bool(l) and bool(r)`, and the built-in compiler turns that into one code
    object; no source text is written or parsed.  Calling the function is
    evaluating e: and/or short-circuit, and a quantifier stops at its first
    witness or counterexample.
    """
    body = _Builder(names).build(e, {})
    params = [ast.arg(f"v{i}") for i in range(len(names))]
    args = ast.arguments(params, [], None, [], [], None, [])
    tree = ast.fix_missing_locations(ast.Expression(ast.Lambda(args, body)))
    return eval(builtins.compile(tree, "<dsl>", "eval"), _GLOBALS)


def position_step(e: Expr, sequence: str, length: str) -> Optional[tuple[Expr, tuple[str, ...]]]:
    """The step form of a predicate e on a sequence and its length, with the
    quantifier variables it reads free, or None when e has no position-local
    conjunct.

    A top-level conjunct `all i < length : φ` is position-local when φ reads
    the sequence only as sequence(i), never reads length, and no quantifier
    in it rebinds i (a syntactic test; i naming the sequence or the length
    fails it too).  Such a conjunct holds on u + (k,) exactly when it holds
    on u and φ holds with i = len(u), where sequence(i) is k.  The step form
    is e with each such conjunct replaced by its φ.  So on a stem u that e
    admits, e holds on u + (k,) exactly when the step form holds there with
    each returned variable bound to len(u): it reads the new entry of each
    position-local conjunct, and the other conjuncts whole.
    """
    conjuncts, stack = [], [e]
    while stack:  # the top-level conjuncts, left to right
        c = stack.pop()
        if isinstance(c, BinOp) and c.op == "and":
            stack += (c.right, c.left)
        else:
            conjuncts.append(c)
    positions: list[str] = []
    for n, c in enumerate(conjuncts):
        if (isinstance(c, Quant) and c.kind == "all" and c.bound == Var(length)
                and c.var not in (sequence, length)
                and _reads_only_at(c.body, c.var, sequence, length)):
            conjuncts[n] = c.body
            positions.append(c.var)
    if not positions:
        return None
    step = conjuncts[0]
    for c in conjuncts[1:]:
        step = BinOp("and", step, c)
    return step, tuple(dict.fromkeys(positions))


def _reads_only_at(e: Expr, var: str, sequence: str, length: str) -> bool:
    """Whether e reads no sequence but sequence(var), never reads length, and
    binds none of var, sequence and length."""
    if isinstance(e, Num):
        return True
    if isinstance(e, Var):
        return e.name != length
    if isinstance(e, Access):
        return e.name == sequence and e.arg == Var(var)
    if isinstance(e, Not):
        return _reads_only_at(e.body, var, sequence, length)
    if isinstance(e, Quant):
        return (e.var not in (var, sequence, length)
                and _reads_only_at(e.bound, var, sequence, length)
                and _reads_only_at(e.body, var, sequence, length))
    return (_reads_only_at(e.left, var, sequence, length)
            and _reads_only_at(e.right, var, sequence, length))


def parse(text: str) -> Expr:
    p = _Parser(_tokenize(text))
    e = p.parse_expr()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(t.line, t.col, f"trailing input {t.text!r}")
    return e


def parse_field(text: str, sort: str, variables: frozenset[str],
                sequences: frozenset[str]) -> Expr:
    """Parse an expression of the given sort ('bool' or 'nat') that reads only
    the given variables and sequences."""
    e = parse(text)
    if sort_of(e, variables, sequences) != sort:
        raise ParseError(1, 1, "expected a boolean expression" if sort == "bool"
                         else "expected a natural-number expression")
    return e
