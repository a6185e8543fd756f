"""Input/output logic over a classical propositional base.

A normative system is a finite set of body/head formula pairs (formulas
are the modal-free terms of ``subnorm.syntax`` plus ``->``).  Its
derivability closures 1..4 are Makinson and van der Torre's output
operators out1..out4 ("Input/output logics", J. Phil. Logic 29, 2000),
computed algebraically: formulas map to their truth tables inside the
free Boolean algebra on the variables in play, the induced relation on
that algebra is closed under the rule system, and a query pair holds iff
its image lands in the closure.  This is sound and complete for the
quotient of formulas under mutual entailment, because every closure rule
respects that quotient.  The variable budget is capped at three (a
256-element algebra); beyond that the materialized relation would be
astronomically large, so bigger queries are rejected rather than
silently truncated.

``derive(N, i, (a, x))`` asks whether ``x`` is in out_i(N, a);
``out(N, i, gamma, psi)`` whether some body in ``gamma`` yields ``psi``;
``modal_output`` is the aggregative variant that first meets all of
``gamma`` into a single element, so it can combine several bodies at
once.  The tests hold all three to the semantic characterisations of
out1..out4 (``tests/oracles.py``), which never close a relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import ParseError, TooManyVariables
from .order import free_boolean_algebra
from .subordination import ProtoSubAlg, SubordRel, close_i
from .syntax import Term, evaluate, format_term, parse_formula, term_variables

_VAR_CAP = 3


def truth_table(f: Term, atoms_order: Sequence[str]) -> int:
    """Truth table of ``f`` as a bitmask over the ``2^k`` valuations of
    the given atom order (valuation ``v`` sets atom ``i`` iff bit ``i``
    of ``v`` is set): its value in the free Boolean algebra on those
    atoms, each atom sent to its generator."""
    lat, gens = free_boolean_algebra(len(atoms_order))
    return evaluate(f, dict(zip(atoms_order, gens)), lat, {"not": lat.neg})


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


def _atom_frame(N: NormativeSystem, *formulas: Term) -> list[str]:
    out = sorted(set(N.atoms()) | set(term_variables(*formulas)))
    if len(out) > _VAR_CAP:
        raise TooManyVariables(len(out))
    return out


@lru_cache(maxsize=256)
def _closure_data(k: int, pairs: tuple[tuple[int, int], ...], i: int) -> tuple[int, ...]:
    """Closed relation rows over the free Boolean algebra on ``k``
    variables."""
    lat, _ = free_boolean_algebra(k)
    return close_i(ProtoSubAlg(lat, SubordRel.from_pairs(lat.n, pairs)), i).rows


def induced_relation(N: NormativeSystem, atoms_order: Sequence[str]) -> tuple[tuple[int, int], ...]:
    """Norm pairs as truth-table element pairs, sorted and deduplicated."""
    return tuple(sorted({(truth_table(n.body, atoms_order),
                          truth_table(n.head, atoms_order)) for n in N}))


def derive(N: NormativeSystem, i: int, query: tuple[Term, Term]) -> bool:
    """Membership of the query pair in closure system ``i`` of ``N``."""
    body, head = query
    names = _atom_frame(N, body, head)
    rows = _closure_data(len(names), induced_relation(N, names), i)
    return bool(rows[truth_table(body, names)] >> truth_table(head, names) & 1)


def out(N: NormativeSystem, i: int, gamma: Iterable[Term], psi: Term) -> bool:
    """Some body in ``gamma`` yields ``psi`` under closure ``i``."""
    gamma = list(gamma)
    names = _atom_frame(N, psi, *gamma)
    rows = _closure_data(len(names), induced_relation(N, names), i)
    head = truth_table(psi, names)
    return any(rows[truth_table(g, names)] >> head & 1 for g in gamma)


def modal_output(N: NormativeSystem, i: int, gamma: Iterable[Term],
                 psi: Term) -> bool:
    """Aggregative output: meet all of ``gamma`` into one element ``m``
    (the empty meet is top) and test whether the closure diamond at
    ``m`` lies below ``psi``.  Every system has TOP, SI, WO and AND, so
    ``close`` computes the diamond ``d`` of the closure and returns each
    row ``a`` as the principal filter above ``d(a)``: ``d(m) <= psi``
    is the test whether row ``m`` holds ``psi``."""
    gamma = list(gamma)
    names = _atom_frame(N, psi, *gamma)
    m = (1 << (1 << len(names))) - 1
    for g in gamma:
        m &= truth_table(g, names)
    rows = _closure_data(len(names), induced_relation(N, names), i)
    return bool(rows[m] >> truth_table(psi, names) & 1)
