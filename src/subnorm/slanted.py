"""Slanted operators over a carrier and its completion, and modal validity.

``build_slanted`` turns a relation into the operator pair: the diamond
of an element is the meet (in the completion) of its direct image, the
box the join of its inverse image.  Empty images give the degenerate
values (empty meet = completion top, empty join = completion bottom);
those count as closed/open for the properness flags, being meets/joins
of the vacuously directed empty family.

Modal terms are evaluated in the completion via the sigma extension of
the diamond and the pi extension of the box, which are only defined for
monotone operators; validity quantifies assignments over *base*
elements only.  Negation inside terms is interpreted by a single,
caller-selected lifting of the carrier negation (sigma by default): on
finite involutive carriers the two liftings coincide, and mixing them
inside one inequality is never needed here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .completion import (
    CanonicalExtension,
    dm_completion,
    extend_negation_pi,
    extend_negation_sigma,
)
from .errors import (
    InputFormatError,
    MissingNegation,
    NotMonotone,
    ParseError,
    UnboundVariable,
)
from .order import FinLattice, bits, mask_of
from .subordination import ProtoSubAlg


class SlantedAlg:
    """Carrier with diamond/box maps into its canonical extension."""

    __slots__ = ("source", "ext", "dia", "box", "proper_diamond", "proper_box")

    def __init__(self, source: ProtoSubAlg, ext: CanonicalExtension,
                 dia: Sequence[int], box: Sequence[int],
                 proper_diamond: bool, proper_box: bool):
        self.source = source
        self.ext = ext
        self.dia = tuple(dia)
        self.box = tuple(box)
        self.proper_diamond = proper_diamond
        self.proper_box = proper_box

    @property
    def delta(self) -> FinLattice:
        return self.ext.delta

    @property
    def n(self) -> int:
        return self.source.n

    def __repr__(self) -> str:
        return f"SlantedAlg(n={self.n}, dia={self.dia}, box={self.box})"


def build_slanted(S: ProtoSubAlg,
                  ext: Optional[CanonicalExtension] = None) -> SlantedAlg:
    """Diamond/box maps of a relation, computed inside the completion.

    ``ext`` must be the completion of ``S``'s carrier; it is built on the
    fly when omitted.  Never fails: non-directed inputs simply come out
    with the corresponding properness flag off.
    """
    if ext is None:
        ext = dm_completion(S.carrier)
    delta, embed = ext.delta, ext.embed
    rows, cols = S.rows, S.cols
    dia = [delta.meet_all(mask_of(embed[x] for x in bits(rows[a])))
           for a in range(S.n)]
    box = [delta.join_all(mask_of(embed[x] for x in bits(cols[a])))
           for a in range(S.n)]
    closed_eff = ext.closed | 1 << delta.top
    open_eff = ext.open | 1 << delta.bot
    proper_dia = all(closed_eff >> v & 1 for v in dia)
    proper_box = all(open_eff >> v & 1 for v in box)
    return SlantedAlg(S, ext, dia, box, proper_dia, proper_box)


def _monotone_on_base(sa: SlantedAlg, table: Sequence[int]) -> bool:
    p = sa.source.poset
    delta = sa.delta
    return all(delta.leq(table[a], table[b])
               for a in range(p.n) for b in bits(p.up[a]))


def sigma_extension(sa: SlantedAlg) -> tuple[int, ...]:
    """Total diamond on the completion: meets of diamonds from above on
    closed elements, then joins over closed elements from below."""
    if not _monotone_on_base(sa, sa.dia):
        raise NotMonotone("sigma extension needs a monotone diamond")
    ext, delta = sa.ext, sa.delta
    closed_eff = ext.closed | 1 << delta.top
    on_closed = {}
    for k in bits(closed_eff):
        approx = mask_of(sa.dia[a] for a in range(sa.n)
                         if delta.leq(k, ext.embed[a]))
        on_closed[k] = delta.meet_all(approx)
    return tuple(
        delta.join_all(mask_of(on_closed[k] for k in bits(closed_eff)
                               if delta.leq(k, u)))
        for u in range(delta.n))


def pi_extension(sa: SlantedAlg) -> tuple[int, ...]:
    """Total box on the completion, dual to the sigma extension."""
    if not _monotone_on_base(sa, sa.box):
        raise NotMonotone("pi extension needs a monotone box")
    ext, delta = sa.ext, sa.delta
    open_eff = ext.open | 1 << delta.bot
    on_open = {}
    for o in bits(open_eff):
        approx = mask_of(sa.box[a] for a in range(sa.n)
                         if delta.leq(ext.embed[a], o))
        on_open[o] = delta.join_all(approx)
    return tuple(
        delta.meet_all(mask_of(on_open[o] for o in bits(open_eff)
                               if delta.leq(u, o)))
        for u in range(delta.n))


# ---------------------------------------------------------------------------
# modal terms
#
# Grammar: variables [a-z][a-z0-9]*, constants T / F, operators ~ <> []
# (tightest, stackable), then &, then |; parentheses; "<=" separates the
# two sides of an inequality.
# ---------------------------------------------------------------------------

Term = tuple


def var(name: str) -> Term:
    return ("var", name)


TOP: Term = ("top",)
BOT: Term = ("bot",)


def tand(l: Term, r: Term) -> Term:
    return ("and", l, r)


def tor(l: Term, r: Term) -> Term:
    return ("or", l, r)


def tnot(t: Term) -> Term:
    return ("not", t)


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


_TOKEN = re.compile(r"\s*(<=|<>|\[\]|[a-z][a-z0-9]*|[TF&|~()])")


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _TermParser:
    def __init__(self, tokens: list[tuple[str, int]], length: int):
        self.tokens = tokens
        self.i = 0
        self.length = length

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.length

    def take(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def parse_or(self) -> Term:
        t = self.parse_and()
        while self.peek() == "|":
            self.take()
            t = tor(t, self.parse_and())
        return t

    def parse_and(self) -> Term:
        t = self.parse_unary()
        while self.peek() == "&":
            self.take()
            t = tand(t, self.parse_unary())
        return t

    def parse_unary(self) -> Term:
        tok = self.peek()
        if tok == "~":
            self.take()
            return tnot(self.parse_unary())
        if tok == "<>":
            self.take()
            return dia(self.parse_unary())
        if tok == "[]":
            self.take()
            return box(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        if tok == "(":
            self.take()
            t = self.parse_or()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos())
            self.take()
            return t
        if tok == "T":
            self.take()
            return TOP
        if tok == "F":
            self.take()
            return BOT
        if re.fullmatch(r"[a-z][a-z0-9]*", tok):
            self.take()
            return var(tok)
        raise ParseError(f"unexpected token {tok!r}", self.pos())


def parse_term(text: str) -> Term:
    parser = _TermParser(_tokenize(text), len(text))
    t = parser.parse_or()
    if parser.peek() is not None:
        raise ParseError(f"trailing input {parser.peek()!r}", parser.pos())
    return t


def parse_inequality(text: str) -> Inequality:
    tokens = _tokenize(text)
    split = [i for i, (tok, _) in enumerate(tokens) if tok == "<="]
    if len(split) != 1:
        raise ParseError("an inequality needs exactly one '<='",
                         tokens[split[1]][1] if len(split) > 1 else len(text))
    i = split[0]
    left = _TermParser(tokens[:i], len(text))
    lhs = left.parse_or()
    if left.peek() is not None:
        raise ParseError(f"trailing input {left.peek()!r}", left.pos())
    right = _TermParser(tokens[i + 1:], len(text))
    rhs = right.parse_or()
    if right.peek() is not None:
        raise ParseError(f"trailing input {right.peek()!r}", right.pos())
    return Inequality(lhs, rhs)


def format_term(t: Term) -> str:
    kind = t[0]
    if kind == "var":
        return t[1]
    if kind == "top":
        return "T"
    if kind == "bot":
        return "F"
    if kind == "not":
        return "~" + _wrap(t[1])
    if kind == "dia":
        return "<>" + _wrap(t[1])
    if kind == "box":
        return "[]" + _wrap(t[1])
    op = " & " if kind == "and" else " | "
    return op.join(_wrap(s) for s in t[1:])


def _wrap(t: Term) -> str:
    if t[0] in ("and", "or"):
        return "(" + format_term(t) + ")"
    return format_term(t)


def term_variables(t: Term) -> list[str]:
    out: set[str] = set()

    def walk(s: Term) -> None:
        if s[0] == "var":
            out.add(s[1])
        elif s[0] in ("and", "or"):
            walk(s[1])
            walk(s[2])
        elif s[0] in ("not", "dia", "box"):
            walk(s[1])

    walk(t)
    return sorted(out)


def _term_ops(t: Term) -> set[str]:
    ops: set[str] = set()

    def walk(s: Term) -> None:
        ops.add(s[0])
        for sub in s[1:]:
            if isinstance(sub, tuple):
                walk(sub)

    walk(t)
    return ops


class _Evaluator:
    """Caches the extension tables a term family needs."""

    def __init__(self, sa: SlantedAlg, ops: set[str], neg_mode: str):
        self.sa = sa
        self.delta = sa.delta
        self.embed = sa.ext.embed
        self.sigma = sigma_extension(sa) if "dia" in ops else None
        self.pi = pi_extension(sa) if "box" in ops else None
        self.neg = None
        if "not" in ops:
            lat = sa.source.lattice
            base_neg = lat.neg if lat is not None else None
            if base_neg is None:
                raise MissingNegation("term uses ~ but the carrier has no negation")
            if neg_mode == "sigma":
                self.neg = extend_negation_sigma(sa.ext, base_neg)
            elif neg_mode == "pi":
                self.neg = extend_negation_pi(sa.ext, base_neg)
            else:
                raise InputFormatError(f"unknown negation mode {neg_mode!r}")

    def run(self, t: Term, assignment: Mapping[str, int]) -> int:
        kind = t[0]
        if kind == "var":
            try:
                return self.embed[assignment[t[1]]]
            except KeyError:
                raise UnboundVariable(t[1]) from None
        if kind == "top":
            return self.delta.top
        if kind == "bot":
            return self.delta.bot
        if kind == "and":
            return self.delta.meet[self.run(t[1], assignment)][self.run(t[2], assignment)]
        if kind == "or":
            return self.delta.join[self.run(t[1], assignment)][self.run(t[2], assignment)]
        if kind == "not":
            return self.neg[self.run(t[1], assignment)]
        if kind == "dia":
            return self.sigma[self.run(t[1], assignment)]
        if kind == "box":
            return self.pi[self.run(t[1], assignment)]
        raise AssertionError(t)


def evaluate(t: Term, assignment: Mapping[str, int], sa: SlantedAlg,
             neg_mode: str = "sigma") -> int:
    """Value of a term in the completion, as a delta element index.

    Variables are assigned base elements; diamonds and boxes go through
    the sigma/pi extensions (which require monotone operators).
    """
    return _Evaluator(sa, _term_ops(t), neg_mode).run(t, assignment)


def valid(sa: SlantedAlg, ineq: Inequality,
          neg_mode: str = "sigma") -> tuple[bool, Optional[dict]]:
    """Validity over all assignments of base elements to variables.

    Returns the lexicographically first failing assignment (variables in
    sorted order, elements in index order) as the witness.
    """
    names = sorted(set(term_variables(ineq.lhs)) | set(term_variables(ineq.rhs)))
    ev = _Evaluator(sa, _term_ops(ineq.lhs) | _term_ops(ineq.rhs), neg_mode)
    delta = sa.delta
    n = sa.n

    def rec(i: int, assignment: dict) -> Optional[dict]:
        if i == len(names):
            if not delta.leq(ev.run(ineq.lhs, assignment),
                             ev.run(ineq.rhs, assignment)):
                return dict(assignment)
            return None
        for x in range(n):
            assignment[names[i]] = x
            bad = rec(i + 1, assignment)
            if bad is not None:
                return bad
            del assignment[names[i]]
        return None

    witness = rec(0, {})
    return (witness is None), witness
