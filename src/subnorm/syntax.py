"""One term language for norm formulas and modal inequalities.

A norm's body and head are interpreted in the same algebra on which the
output operators act as ``<>``/``[]``, so both are terms of one
language: variables ``[a-z][a-z0-9]*``, constants ``T``/``F``, prefix
``~ <> []`` (tightest, stackable), then ``&``, then ``|`` (both
associating left), then ``->`` (associating right, sugar for
``~a | b``), with parentheses.  The entry points differ only in the
tokens their language lacks:

* ``parse_formula`` (norm formulas) rejects ``<> [] <=``;
* ``parse_term`` (modal terms) rejects ``-> <=``;
* ``parse_inequality`` rejects ``->`` and splits at its one ``<=``.

Terms are tuples tagged ``var top bot not and or imp dia box``.  A
parenthesis nested deeper than ``MAX_DEPTH`` is a ``ParseError`` at that
parenthesis, and a term nested deeper is one at the operator whose
subterm first exceeds the bound, so every tree the parsers return can be
walked recursively.

``evaluate`` is the one evaluator of terms.  It walks a term once over a
column of assignments, not once per assignment: the catalog's
inequalities (``harness.catalog``), modal validity (``slanted.valid``)
and truth tables (``iologic.truth_table``) all run it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .errors import MissingNegation, ParseError, UnboundVariable
from .order import FinLattice

Term = tuple

MAX_DEPTH = 100

TOP: Term = ("top",)
BOT: Term = ("bot",)


def var(name: str) -> Term:
    return ("var", name)


def tnot(t: Term) -> Term:
    return ("not", t)


def tand(l: Term, r: Term) -> Term:
    return ("and", l, r)


def tor(l: Term, r: Term) -> Term:
    return ("or", l, r)


def timp(l: Term, r: Term) -> Term:
    return ("imp", l, r)


def dia(t: Term) -> Term:
    return ("dia", t)


def box(t: Term) -> Term:
    return ("box", t)


@dataclass(frozen=True)
class Inequality:
    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{format_term(self.lhs)} <= {format_term(self.rhs)}"


_TOKEN = re.compile(r"\s*(->|<=|<>|\[\]|[a-z][a-z0-9]*|[TF&|~()])")
_PREFIX = {"~": "not", "<>": "dia", "[]": "box"}
_INFIX = {"&": "and", "|": "or", "->": "imp"}
_SYMBOL = {kind: tok for tok, kind in (*_PREFIX.items(), *_INFIX.items())}


def _tokenize(text: str, foreign: tuple[str, ...], start: int = 0,
              end: Optional[int] = None) -> list[tuple[str, int]]:
    """(token, position) pairs of ``text[start:end]``, positions counted
    in ``text``; a token of ``foreign`` is rejected where it starts, so
    its position is that of its first character."""
    out = []
    pos, end = start, len(text) if end is None else end
    while pos < end:
        m = _TOKEN.match(text, pos, end)
        if not m:
            rest = text[pos:end]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group(1) in foreign:
            raise ParseError(f"unexpected token {m.group(1)!r}", m.start(1))
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over one token list; ``end`` is the position
    reported for a missing token.  Each node is built with its height
    (leaves 0), and prefix stacks and ``->`` chains are folded in loops,
    so only a parenthesis recurses."""

    def __init__(self, tokens: list[tuple[str, int]], end: int):
        self.tokens = tokens
        self.i = 0
        self.end = end
        self.parens = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.end

    def take(self) -> int:
        self.i += 1
        return self.tokens[self.i - 1][1]

    def parse(self) -> Term:
        t, _ = self.parse_imp()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.pos())
        return t

    @staticmethod
    def node(kind: str, pos: int, *children: tuple[Term, int]) -> tuple[Term, int]:
        height = 1 + max(h for _, h in children)
        if height > MAX_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_DEPTH}", pos)
        return (kind, *(t for t, _ in children)), height

    def parse_imp(self) -> tuple[Term, int]:
        operands, arrows = [self.parse_or()], []
        while self.peek() == "->":
            arrows.append(self.take())
            operands.append(self.parse_or())
        acc = operands.pop()
        while arrows:
            acc = self.node("imp", arrows.pop(), operands.pop(), acc)
        return acc

    def parse_or(self) -> tuple[Term, int]:
        acc = self.parse_and()
        while self.peek() == "|":
            acc = self.node("or", self.take(), acc, self.parse_and())
        return acc

    def parse_and(self) -> tuple[Term, int]:
        acc = self.parse_unary()
        while self.peek() == "&":
            acc = self.node("and", self.take(), acc, self.parse_unary())
        return acc

    def parse_unary(self) -> tuple[Term, int]:
        prefixes = []
        while self.peek() in _PREFIX:
            prefixes.append((_PREFIX[self.peek()], self.take()))
        acc = self.parse_primary()
        while prefixes:
            kind, pos = prefixes.pop()
            acc = self.node(kind, pos, acc)
        return acc

    def parse_primary(self) -> tuple[Term, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        if tok == "(":
            if self.parens == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", self.pos())
            self.take()
            self.parens += 1
            t = self.parse_imp()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos())
            self.take()
            self.parens -= 1
            return t
        if tok in ("T", "F"):
            self.take()
            return (TOP if tok == "T" else BOT), 0
        if tok[0].islower():
            self.take()
            return var(tok), 0
        raise ParseError(f"unexpected token {tok!r}", self.pos())


def parse_formula(text: str, start: int = 0, end: Optional[int] = None) -> Term:
    """A norm formula: the modal-free fragment plus ``->``.  Only
    ``text[start:end]`` is read, and every position reported is an index
    into ``text``, so a formula cut out of a longer line is reported
    where the user typed it."""
    end = len(text) if end is None else end
    return _Parser(_tokenize(text, ("<>", "[]", "<="), start, end), end).parse()


def parse_term(text: str) -> Term:
    """A modal term: ``~ <> []``, ``&``, ``|``, no ``->``."""
    return _Parser(_tokenize(text, ("->",)), len(text)).parse()


def parse_inequality(text: str) -> Inequality:
    """Two modal terms separated by exactly one ``<=``."""
    tokens = _tokenize(text, ("->",))
    split = [i for i, (tok, _) in enumerate(tokens) if tok == "<="]
    if len(split) != 1:
        raise ParseError("an inequality needs exactly one '<='",
                         tokens[split[1]][1] if len(split) > 1 else len(text))
    i = split[0]
    return Inequality(_Parser(tokens[:i], len(text)).parse(),
                      _Parser(tokens[i + 1:], len(text)).parse())


def format_term(t: Term) -> str:
    """The text ``parse_*`` reads back as ``t``: a child is parenthesised
    exactly when it is a binary node."""
    kind = t[0]
    if kind == "var":
        return t[1]
    if kind in ("top", "bot"):
        return "T" if kind == "top" else "F"
    if kind in ("not", "dia", "box"):
        return _SYMBOL[kind] + _wrap(t[1])
    return f" {_SYMBOL[kind]} ".join(_wrap(s) for s in t[1:])


def _wrap(t: Term) -> str:
    return f"({format_term(t)})" if t[0] in ("and", "or", "imp") else format_term(t)


def subterms(t: Term) -> Iterator[Term]:
    """Every node of ``t``, the root first."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(c for c in s[1:] if isinstance(c, tuple))


def term_variables(*terms: Term) -> list[str]:
    """The sorted variable names of the given terms."""
    return sorted({s[1] for t in terms for s in subterms(t) if s[0] == "var"})


def evaluate(t: Term, valuation: Mapping[str, Sequence[int]], lat: FinLattice,
             unary: Mapping[str, Optional[Sequence[int]]]) -> Sequence[int]:
    """Values of ``t`` as element indices of ``lat``, one per assignment.

    ``valuation`` maps each variable to its column, the variable's value
    under each assignment (every column of one length); the result is
    the column of ``t``, of that length, or of one entry when
    ``valuation`` is empty.  Variables are read from ``valuation``;
    ``T F & |`` from ``lat``'s bounds and meet/join tables; ``~ <> []``
    from the tables ``unary`` holds under ``not``/``dia``/``box``;
    ``a -> b`` is ``join(~a, b)``.
    """
    kind = t[0]
    if kind == "var":
        try:
            return valuation[t[1]]
        except KeyError:
            raise UnboundVariable(t[1]) from None
    if kind in ("top", "bot"):
        width = len(next(iter(valuation.values()))) if valuation else 1
        return [getattr(lat, kind)] * width
    if kind in ("not", "imp") and unary.get("not") is None:
        raise MissingNegation("~ and -> need a carrier negation")
    if kind in ("not", "dia", "box"):
        table = unary[kind]
        return [table[x] for x in evaluate(t[1], valuation, lat, unary)]
    left = evaluate(t[1], valuation, lat, unary)
    right = evaluate(t[2], valuation, lat, unary)
    if kind == "imp":
        neg = unary["not"]
        left = [neg[x] for x in left]
    op = lat.meet if kind == "and" else lat.join
    return [op[x][y] for x, y in zip(left, right)]
