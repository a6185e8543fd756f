"""Slanted operators over a carrier and its completion, and modal validity.

``build_slanted`` turns a relation into the operator pair: the diamond
of an element is the meet (in the completion) of its direct image, the
box the join of its inverse image.  Empty images give the degenerate
values (empty meet = completion top, empty join = completion bottom),
the meet/join of the vacuously directed empty family; so the sigma and
pi extensions count the top as closed and the bottom as open.

Modal terms (``subnorm.syntax``) are evaluated in the completion via the
sigma extension of the diamond and the pi extension of the box, which
are only defined for monotone operators; validity quantifies
assignments over *base* elements only.  Negation inside terms is
interpreted by a single, caller-selected lifting of the carrier
negation (sigma by default): on finite involutive carriers the two
liftings coincide, and mixing them inside one inequality is never
needed here.  ``valid`` runs ``syntax.evaluate`` over blocks of at most
``_BLOCK`` assignments, so its memory does not grow with the ``n^k``
assignments of ``k`` variables.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Optional, Sequence

from .completion import (
    CanonicalExtension,
    dm_completion,
    extend_negation_pi,
    extend_negation_sigma,
    lift_map,
)
from .errors import InputFormatError, MissingNegation, NotMonotone
from .order import FinLattice, is_monotone
from .subordination import ProtoSubAlg
from .syntax import Inequality, Term, evaluate, subterms, term_variables


class SlantedAlg:
    """Carrier with diamond/box maps into its canonical extension."""

    __slots__ = ("source", "ext", "dia", "box")

    def __init__(self, source: ProtoSubAlg, ext: CanonicalExtension,
                 dia: Sequence[int], box: Sequence[int]):
        self.source = source
        self.ext = ext
        self.dia = tuple(dia)
        self.box = tuple(box)

    @property
    def delta(self) -> FinLattice:
        return self.ext.delta

    @property
    def n(self) -> int:
        return self.source.n

    def __repr__(self) -> str:
        return f"SlantedAlg(n={self.n}, dia={self.dia}, box={self.box})"


def build_slanted(S: ProtoSubAlg) -> SlantedAlg:
    """Diamond/box maps of a relation, computed inside the completion of
    its carrier (``completion.dm_completion``).

    Never fails: on a non-directed input a diamond value need not be
    closed, nor a box value open.
    """
    ext = dm_completion(S.carrier)
    dia = [ext.meet_of_base(r) for r in S.rows]
    box = [ext.join_of_base(c) for c in S.cols]
    return SlantedAlg(S, ext, dia, box)


def sigma_extension(sa: SlantedAlg) -> tuple[int, ...]:
    """Total diamond on the completion: meets of diamonds from above on
    closed elements (the top included, as the empty meet), then joins
    over closed elements from below."""
    if not is_monotone(sa.dia, sa.source.poset, sa.delta.poset):
        raise NotMonotone("sigma extension needs a monotone diamond")
    ext = sa.ext
    return lift_map(ext, sa.dia, ext.closed | 1 << ext.delta.top,
                    from_below=True, sigma=True)


def pi_extension(sa: SlantedAlg) -> tuple[int, ...]:
    """Total box on the completion, dual to the sigma extension (the
    bottom included among the open elements, as the empty join)."""
    if not is_monotone(sa.box, sa.source.poset, sa.delta.poset):
        raise NotMonotone("pi extension needs a monotone box")
    ext = sa.ext
    return lift_map(ext, sa.box, ext.open | 1 << ext.delta.bot,
                    from_below=False, sigma=False)


_NEGATION_LIFTINGS = {"sigma": extend_negation_sigma, "pi": extend_negation_pi}

#: the most assignments ``valid`` evaluates at once
_BLOCK = 4096


def operator_tables(sa: SlantedAlg, *terms: Term,
                    neg_mode: str = "sigma") -> dict[str, tuple[int, ...]]:
    """The tables ``syntax.evaluate`` reads for the unary operators the
    terms use, all on the completion: ``<>`` the sigma extension of the
    diamond, ``[]`` the pi extension of the box, ``~`` the ``neg_mode``
    lifting of the carrier negation.  An unknown ``neg_mode`` is an
    ``InputFormatError`` whether or not the terms use ``~``."""
    if neg_mode not in _NEGATION_LIFTINGS:
        raise InputFormatError(f"unknown negation mode {neg_mode!r}")
    ops = {s[0] for t in terms for s in subterms(t)}
    tables = {}
    if "dia" in ops:
        tables["dia"] = sigma_extension(sa)
    if "box" in ops:
        tables["box"] = pi_extension(sa)
    if "not" in ops:
        lat = sa.source.lattice
        base_neg = lat.neg if lat is not None else None
        if base_neg is None:
            raise MissingNegation("term uses ~ but the carrier has no negation")
        tables["not"] = _NEGATION_LIFTINGS[neg_mode](sa.ext, base_neg)
    return tables


def valid(sa: SlantedAlg, ineq: Inequality,
          neg_mode: str = "sigma") -> tuple[bool, Optional[dict]]:
    """Validity over all assignments of base elements to variables.

    Returns the lexicographically first failing assignment (variables in
    sorted order, elements in index order) as the witness.  Assignments
    are evaluated ``_BLOCK`` at a time, in that order.
    """
    names = term_variables(ineq.lhs, ineq.rhs)
    unary = operator_tables(sa, ineq.lhs, ineq.rhs, neg_mode=neg_mode)
    delta, embed = sa.delta, sa.ext.embed
    up = delta.poset.up
    assignments = product(range(sa.n), repeat=len(names))
    while block := list(islice(assignments, _BLOCK)):
        valuation = {name: [embed[x] for x in column]
                     for name, column in zip(names, zip(*block))}
        lhs = evaluate(ineq.lhs, valuation, delta, unary)
        rhs = evaluate(ineq.rhs, valuation, delta, unary)
        for values, u, v in zip(block, lhs, rhs):
            if not up[u] >> v & 1:
                return False, dict(zip(names, values))
    return True, None
