"""Textual syntax for thread terms.

Grammar::

    term     := 'S' | 'D'
              | 'post' '(' action ',' term ',' term ')'
              | 'prefix' '(' action ',' term ')'
              | 'fork' '(' term ',' term ',' term ')'
              | 'prob' '(' rational ':' term {',' rational ':' term} ')'
              | 'rec' VAR '{' {VAR '=' term ';'} '}' 'in' VAR
              | VAR
    action   := 'tau' | NAME ['.' NAME ['(' rational ')']]
    rational := ['-'] INT ['/' INT]

An action name without a dot gets the focus `main`.  A `rec` equation
may refer to any variable of its own or an enclosing system, before or
after that variable's equation; the parser reads each token once, so
nested systems parse in linear time.  The printer names
graph nodes only where cycles or sharing require it, so acyclic graphs
print as plain nested terms.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Dict, List

from . import meadow, threads
from .errors import ParseError
from .threads import (
    Action,
    DeadEnd,
    Fork,
    Post,
    Prob,
    Stop,
    TAU,
    TDead,
    TFork,
    TPost,
    TProb,
    TRec,
    TStop,
    TVar,
    Term,
    ThreadGraph,
)

KEYWORDS = {"S", "D", "post", "prefix", "fork", "prob", "rec", "in", "tau"}

_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<name>{threads.NAME})
      | (?P<int>\d+)
      | (?P<punct>[(){{}},;:=./\-])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        # one entry per `rec` system whose equations are being read: the
        # first occurrence of each variable it has not bound yet
        self.pending: List[Dict[str, _Token]] = []

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    # ---- rationals ---------------------------------------------------

    def rational(self):
        negative = False
        if self.peek().text == "-":
            self.next()
            negative = True
        tok = self.next()
        if tok.kind != "int":
            raise ParseError(f"expected a number, found {tok.text!r}", tok.pos)
        num = meadow.parse_int(tok.text, tok.pos)
        den = 1
        if self.peek().text == "/":
            self.next()
            dtok = self.next()
            if dtok.kind != "int":
                raise ParseError(f"expected a denominator, found {dtok.text!r}", dtok.pos)
            den = meadow.parse_int(dtok.text, dtok.pos)
            if den == 0:
                raise ParseError("zero denominator", dtok.pos)
        value = meadow.rat(num, den)
        return -value if negative else value

    # ---- actions -----------------------------------------------------

    def action(self) -> Action:
        tok = self.next()
        if tok.kind != "name":
            raise ParseError(f"expected an action, found {tok.text!r}", tok.pos)
        if tok.text == "tau":
            return TAU
        if tok.text in KEYWORDS:
            raise ParseError(f"keyword {tok.text!r} cannot name an action", tok.pos)
        focus = tok.text
        if self.peek().text != ".":
            return threads.basic(threads.MAIN_FOCUS, focus)
        self.next()
        mtok = self.next()
        if mtok.kind != "name":
            raise ParseError(f"expected a method name, found {mtok.text!r}", mtok.pos)
        method = mtok.text
        if self.peek().text == "(":
            self.next()
            p = self.rational()
            self.expect(")")
            method = f"{method}({meadow.format_rational(p)})"
        return threads.basic(focus, method)

    # ---- terms -------------------------------------------------------

    def term(self):
        # a generator: sub-terms are yielded to `threads.run_stackless`,
        # so nesting depth costs no Python stack
        tok = self.peek()
        if tok.text == "S":
            self.next()
            return TStop()
        if tok.text == "D":
            self.next()
            return TDead()
        if tok.text == "post":
            self.next()
            self.expect("(")
            a = self.action()
            self.expect(",")
            t1 = yield self.term()
            self.expect(",")
            t2 = yield self.term()
            self.expect(")")
            return TPost(a, t1, t2)
        if tok.text == "prefix":
            self.next()
            self.expect("(")
            a = self.action()
            self.expect(",")
            t = yield self.term()
            self.expect(")")
            return TPost(a, t, t)
        if tok.text == "fork":
            self.next()
            self.expect("(")
            tf = yield self.term()
            self.expect(",")
            t1 = yield self.term()
            self.expect(",")
            t2 = yield self.term()
            self.expect(")")
            return TFork(tf, t1, t2)
        if tok.text == "prob":
            self.next()
            self.expect("(")
            branches = [(yield self.branch())]
            while self.peek().text == ",":
                self.next()
                branches.append((yield self.branch()))
            self.expect(")")
            return TProb(tuple(branches))
        if tok.text == "rec":
            return (yield self.rec())
        if tok.kind == "name" and tok.text not in KEYWORDS:
            self.next()
            if not self.pending:
                raise ParseError(f"unbound variable {tok.text!r}", tok.pos)
            # the open systems may bind it further on
            self.pending[-1].setdefault(tok.text, tok)
            return TVar(tok.text)
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.pos)

    def branch(self):
        w = self.rational()
        self.expect(":")
        return (w, (yield self.term()))

    def rec(self):
        self.expect("rec")
        head = self.next()
        if head.kind != "name" or head.text in KEYWORDS:
            raise ParseError(f"expected a variable, found {head.text!r}", head.pos)
        self.expect("{")
        self.pending.append({})
        equations: Dict[str, Term] = {}
        while self.peek().text != "}":
            vtok = self.next()
            if vtok.kind != "name" or vtok.text in KEYWORDS:
                raise ParseError(f"expected a variable, found {vtok.text!r}", vtok.pos)
            if vtok.text in equations:
                raise ParseError(f"duplicate equation variable {vtok.text!r}", vtok.pos)
            self.expect("=")
            equations[vtok.text] = yield self.term()
            self.expect(";")
        self.expect("}")
        self.expect("in")
        body = self.next()
        if body.text not in equations:
            raise ParseError(f"selected variable {body.text!r} has no equation", body.pos)
        if head.text not in equations:
            raise ParseError(f"variable {head.text!r} has no equation", head.pos)
        # occurrences this system binds are resolved; the rest wait for
        # the enclosing system, behind any earlier occurrence of the same
        # name there, and with none left the first of them is unbound
        free = [(v, t) for v, t in self.pending.pop().items() if v not in equations]
        if self.pending:
            outer = self.pending[-1]
            for v, t in free:
                outer.setdefault(v, t)
        elif free:
            tok = free[0][1]
            raise ParseError(f"unbound variable {tok.text!r}", tok.pos)
        return TRec(tuple(equations.items()), body.text)


def parse_term(text: str) -> Term:
    """Parse the textual syntax into a term."""
    p = _Parser(text)
    t = threads.run_stackless(p.term())
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return t


def parse_thread(text: str) -> ThreadGraph:
    """Parse and build in one step."""
    return threads.build(parse_term(text))


# ---------------------------------------------------------------------------
# Printing


def _print_pieces(node) -> List[object]:
    # the printed form of a node: text and child references alternate,
    # starting and ending with text; an equal-branch test prints only once
    if isinstance(node, Stop):
        return ["S"]
    if isinstance(node, DeadEnd):
        return ["D"]
    if isinstance(node, Post):
        if node.then_ == node.else_:
            return [f"prefix({node.action}, ", node.then_, ")"]
        return [f"post({node.action}, ", node.then_, ", ", node.else_, ")"]
    if isinstance(node, Fork):
        return ["fork(", node.forked, ", ", node.then_, ", ", node.else_, ")"]
    pieces: List[object] = []
    sep = "prob("
    for w, t in node.branches:
        pieces += [f"{sep}{meadow.format_rational(w)}: ", t]
        sep = ", "
    pieces.append(")")
    return pieces


def print_term(g: ThreadGraph) -> str:
    """Deterministic textual form of a graph; `parse_thread` inverts it."""
    pieces: Dict[int, List[object]] = {}  # in depth-first preorder
    visits = Counter({g.root: 1})  # references to each node
    todo = [g.root]  # marked when popped, so entered in the recursive preorder
    while todo:
        r = todo.pop()
        if r not in pieces:
            pieces[r] = p = _print_pieces(g.nodes[r])
            visits.update(p[1::2])
            todo += reversed(p[1::2])
    # a node on a cycle is referenced by the node the search entered it
    # from (the root by the start) and by the cycle's last edge
    named = {r for r, k in visits.items() if k > 1 and not isinstance(g.nodes[r], (Stop, DeadEnd))}
    if named:
        named.add(g.root)
    order = [r for r in pieces if r in named]
    names = {r: f"X{i}" for i, r in enumerate(order)}

    def render(r: int) -> str:
        # the definition of `r`, expanding unnamed references in place
        out: List[str] = []
        todo = [iter(pieces[r])]
        while todo:
            for item in todo[-1]:
                if type(item) is str:
                    out.append(item)
                elif item in names:
                    out.append(names[item])
                else:
                    todo.append(iter(pieces[item]))
                    break
            else:
                todo.pop()
        return "".join(out)

    if not named:
        return render(g.root)
    main = names[g.root]
    eqs = " ".join(f"{names[r]} = {render(r)};" for r in order)
    return f"rec {main} {{ {eqs} }} in {main}"
