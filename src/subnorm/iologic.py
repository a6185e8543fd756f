"""Input/output logic over a classical propositional base.

A normative system is a finite set of body/head formula pairs (formulas
are the modal-free terms of ``subnorm.syntax`` plus ``->``).  Its output
operators out1..out4 are Makinson and van der Torre's ("Input/output
logics", J. Phil. Logic 29, 2000), read as modal operators d1..d4: ``x``
is in out_i(N, a) iff d_i(a) <= x.  A formula is its truth table, a
bitmask over the ``2^k`` valuations of the atoms in play, so meet is
``&``, join is ``|`` and the order is inclusion.  With h(b) the meet of
the heads of the norms whose body lies above b (the empty meet is top):
d1(a) = h(a); d2(a) = h(bot) joined with h({v}) over the valuations v in
a; d3(a) = h(b*), b* the greatest fixpoint of b -> a & h(b), reached from
b = a; d4(a) is d2(a) taken only over the v with v in h({v}).  A truth
table is one ``syntax.evaluate`` walk of the formula over all ``2^k``
valuations at once, in the two-element algebra.  The atoms are capped
at three, as far as the tests' closure route on the free Boolean
algebra checks the output operators; bigger queries are rejected
(``TooManyVariables``) rather than truncated.

``derive(N, i, (a, x))`` asks whether ``x`` is in out_i(N, a);
``out(N, i, gamma, psi)`` whether some body in ``gamma`` yields ``psi``;
``modal_output`` is the aggregative variant that first meets all of
``gamma`` into a single element, so it can combine several bodies at
once.  The tests hold all three to the semantic characterisations of
out1..out4 (``oracles.out_oracle``) and to the closure route
(``oracles.closure_output_oracle``): the norms as a relation on the free
Boolean algebra, closed under system i by ``subordination.close_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from operator import and_
from typing import Iterable, Sequence

from .errors import InputFormatError, ParseError, TooManyVariables
from .order import bits, free_boolean_algebra
from .subordination import close_i  # noqa: F401  (perfbench traces this binding)
from .syntax import Term, evaluate, format_term, parse_formula, term_variables


#: the most atoms a query may have
_ATOM_CAP = 3

_TWO, _ = free_boolean_algebra(0)


@lru_cache(maxsize=None)
def _valuation_columns(k: int) -> tuple[tuple[int, ...], ...]:
    """Column ``i`` holds atom ``i``'s truth value (0 or 1, the elements
    of the two-element algebra) under each of the ``2^k`` valuations."""
    return tuple(tuple(v >> i & 1 for v in range(1 << k)) for i in range(k))


def truth_table(f: Term, atoms_order: Sequence[str]) -> int:
    """Truth table of ``f`` as a bitmask over the ``2^k`` valuations of
    the given atom order (valuation ``v`` sets atom ``i`` iff bit ``i``
    of ``v`` is set): its column of values in the two-element algebra,
    read as bits.  More than ``_ATOM_CAP`` atoms raise
    ``TooManyVariables``."""
    k = len(atoms_order)
    if k > _ATOM_CAP:
        raise TooManyVariables(k, _ATOM_CAP)
    column = evaluate(f, dict(zip(atoms_order, _valuation_columns(k))), _TWO,
                      {"not": _TWO.neg})
    return sum(x << v for v, x in enumerate(column))


# ---------------------------------------------------------------------------
# normative systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Norm:
    body: Term
    head: Term

    def __str__(self) -> str:
        return f"{format_term(self.body)} |~ {format_term(self.head)}"


class NormativeSystem:
    """A finite list of conditional norms (body, head)."""

    def __init__(self, norms: Iterable[Norm]):
        self.norms = tuple(norms)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Term, Term]]) -> "NormativeSystem":
        return cls(Norm(b, h) for b, h in pairs)

    @classmethod
    def parse(cls, text: str) -> "NormativeSystem":
        """Norm-file format: one ``body |~ head`` per line, ``#`` starts
        a comment, blank lines are ignored."""
        norms = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            try:
                norms.append(parse_norm(line))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc.message}", exc.position) from None
        return cls(norms)

    def atoms(self) -> list[str]:
        return term_variables(*(f for norm in self.norms for f in (norm.body, norm.head)))

    def __iter__(self):
        return iter(self.norms)

    def __len__(self) -> int:
        return len(self.norms)

    def __str__(self) -> str:
        return "\n".join(str(n) for n in self.norms)


def parse_norm(line: str) -> Norm:
    """``body |~ head``; positions in a parse error are indices into
    ``line``."""
    seps = [i for i in range(len(line)) if line.startswith("|~", i)]
    if len(seps) != 1:
        raise ParseError("a norm is written 'body |~ head'", seps[1] if seps else 0)
    return Norm(parse_formula(line, 0, seps[0]), parse_formula(line, seps[0] + 2))


def _output(N: NormativeSystem, i: int, inputs: Sequence[Sequence[Term]],
            psi: Term) -> bool:
    """Whether d_i(m) <= ``psi`` for the meet ``m`` of some list in
    ``inputs`` (the empty meet is top).  More than three atoms in ``N``,
    ``psi`` and ``inputs`` together, or a system outside 1..4, raise
    even when ``inputs`` is empty."""
    names = sorted(set(N.atoms()).union(term_variables(psi, *chain.from_iterable(inputs))))
    x = truth_table(psi, names)
    if i not in (1, 2, 3, 4):
        raise InputFormatError(f"closure system must be 1..4, got {i}")
    norms = [(truth_table(n.body, names), truth_table(n.head, names)) for n in N]
    top = (1 << (1 << len(names))) - 1

    def h(b: int) -> int:
        return reduce(and_, (head for body, head in norms if not b & ~body), top)

    def d(a: int) -> int:
        if i == 1:
            return h(a)
        if i == 3:
            b = a
            while b & ~h(b):
                b &= h(b)
            return h(b)
        out = h(0)
        for v in bits(a):
            hv = h(1 << v)
            if i == 2 or hv >> v & 1:
                out |= hv
        return out

    return any(not d(reduce(and_, (truth_table(g, names) for g in gamma), top)) & ~x
               for gamma in inputs)


def derive(N: NormativeSystem, i: int, query: tuple[Term, Term]) -> bool:
    """The head of the query pair is in out_i of its body."""
    body, head = query
    return _output(N, i, [[body]], head)


def out(N: NormativeSystem, i: int, gamma: Iterable[Term], psi: Term) -> bool:
    """Some body in ``gamma`` yields ``psi`` under system ``i``."""
    return _output(N, i, [[g] for g in gamma], psi)


def modal_output(N: NormativeSystem, i: int, gamma: Iterable[Term],
                 psi: Term) -> bool:
    """Aggregative output: meet all of ``gamma`` into one element ``m``
    (the empty meet is top) and test whether d_i(m) lies below ``psi``."""
    return _output(N, i, [list(gamma)], psi)
