"""Canonical completion of finite posets by cuts, with negation lifting.

The completion of a poset is realized as the lattice of cuts ``(L, L^u)``
with ``L = (L^u)^l``, ordered by inclusion of lower sets.  For a finite
poset this lattice is dense and compact over the embedded image, so it
is *the* canonical extension; a finite lattice is (up to the identity)
its own completion and is short-circuited as such.

Closed and open elements are recorded as the image of the embedding:
in a finite poset a nonempty subset that is down-directed has a minimum
and one that is up-directed a maximum, so nonempty directed meets and
joins never leave the image.  The degenerate empty family is treated
separately where it matters (an empty meet is the lattice top, an empty
join its bottom).

Stated here once: the meet or join of an embedded base subset
(``CanonicalExtension.meet_of_base``/``join_of_base``) and the two-step
sigma/pi lifting of a map from the base (``lift_map``), which extends
the diamond and box (``slanted.sigma_extension``/``pi_extension``) and
the negation (``extend_negation_sigma``/``extend_negation_pi``) alike.
The tests check density and compactness of every completion by
enumeration (``tests/oracles.py``).  The harness builds no completion
per instance: its carriers are finite lattices, each its own.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .errors import NegationLawsFail
from .order import (
    FinLattice,
    FinPoset,
    bits,
    mask_of,
    negation_law_failure,
    to_lattice,
)


class CanonicalExtension:
    """A poset together with its completion and the embedding into it.

    ``embed[x]`` is the index in ``delta`` of the principal cut of ``x``;
    ``closed`` and ``open`` are bitmasks over delta indices.
    """

    __slots__ = ("base", "delta", "embed", "closed", "open")

    def __init__(self, base: FinPoset, delta: FinLattice,
                 embed: Sequence[int], closed: int, open: int):
        self.base = base
        self.delta = delta
        self.embed = tuple(embed)
        self.closed = closed
        self.open = open

    def meet_of_base(self, base_mask: int) -> int:
        """Meet in ``delta`` of the embedded base subset; the empty meet
        is the top."""
        return self.delta.meet_all(mask_of(self.embed[x] for x in bits(base_mask)))

    def join_of_base(self, base_mask: int) -> int:
        """Join in ``delta`` of the embedded base subset; the empty join
        is the bottom."""
        return self.delta.join_all(mask_of(self.embed[x] for x in bits(base_mask)))

    def __repr__(self) -> str:
        return f"CanonicalExtension(base_n={self.base.n}, delta_n={self.delta.n})"


def _cut_masks(p: FinPoset) -> list[int]:
    """All cuts, as lower-set bitmasks, ascending.

    Cuts are exactly the intersections of principal down-sets together
    with the full carrier, so close the principal down-sets under
    pairwise intersection.
    """
    full = (1 << p.n) - 1
    cuts = {full}
    cuts.update(p.down[x] for x in range(p.n))
    frontier = list(cuts)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(cuts):
                c = a & b
                if c not in cuts:
                    cuts.add(c)
                    fresh.append(c)
        frontier = fresh
    return sorted(cuts)


def _cut_label(p: FinPoset, mask: int, principal_of: Optional[int]) -> str:
    if principal_of is not None:
        return p.label(principal_of)
    return "{" + ",".join(p.label(x) for x in bits(mask)) + "}"


def dm_completion(p: Union[FinPoset, FinLattice]) -> CanonicalExtension:
    """Complete a poset by cuts; a lattice is returned as itself.

    The embedding sends ``x`` to its principal cut.  For lattices every
    cut is principal, so copying the carrier (identity embedding) gives
    the same object up to relabeling and avoids the cubic table rebuild
    on large carriers such as free Boolean algebras.
    """
    if isinstance(p, FinLattice):
        full = (1 << p.n) - 1
        return CanonicalExtension(p.poset, p, range(p.n), full, full)
    cuts = _cut_masks(p)
    index = {c: i for i, c in enumerate(cuts)}
    embed = [index[p.down[x]] for x in range(p.n)]
    principal = {index[p.down[x]]: x for x in range(p.n)}
    m = len(cuts)
    up = [mask_of(j for j in range(m) if cuts[i] & ~cuts[j] == 0)
          for i in range(m)]
    labels = [_cut_label(p, cuts[i], principal.get(i)) for i in range(m)]
    delta = to_lattice(FinPoset(up, labels))
    image = mask_of(embed)
    return CanonicalExtension(p, delta, embed, image, image)


def lift_map(c: CanonicalExtension, values: Sequence[int], approximants: int,
             from_below: bool, sigma: bool) -> tuple[int, ...]:
    """Extend ``a -> values[a]`` (base elements to ``delta`` elements) to
    all of ``delta`` through the closed or open ``approximants``.

    Step one gives each approximant ``x`` the meet (``sigma``) or join
    (pi) of ``values[a]`` over the base elements with ``x <= a`` when
    ``from_below``, ``a <= x`` otherwise.  Step two gives each element
    ``u`` the join (``sigma``) or meet (pi) of the step-one values over
    the approximants ``x <= u`` when ``from_below``, ``u <= x`` otherwise.
    A monotone map is lifted from below through closed elements under
    sigma and from above through open ones under pi; an antitone map the
    other way round.
    """
    delta, embed = c.delta, c.embed
    up, down = delta.poset.up, delta.poset.down
    far, near = (up, down) if from_below else (down, up)
    first, second = ((delta.meet_all, delta.join_all) if sigma
                     else (delta.join_all, delta.meet_all))
    on = {x: first(mask_of(values[a] for a in range(c.base.n)
                           if far[x] >> embed[a] & 1))
          for x in bits(approximants)}
    return tuple(second(mask_of(on[x] for x in bits(approximants & near[u])))
                 for u in range(delta.n))


def _require_neg_laws(p: FinPoset, neg: Sequence[int], adjunction: str) -> None:
    for law in ("antitone", adjunction):
        witness = negation_law_failure(p, neg, law)
        if witness is not None:
            raise NegationLawsFail(law, witness)


def extend_negation_sigma(c: CanonicalExtension, neg: Sequence[int]) -> tuple[int, ...]:
    """Lift an antitone, left-self-adjoint negation to the whole completion
    from above, through the open elements; on a lattice base this is the
    original table."""
    _require_neg_laws(c.base, neg, "left-self-adjunction")
    return lift_map(c, [c.embed[x] for x in neg], c.open,
                    from_below=False, sigma=True)


def extend_negation_pi(c: CanonicalExtension, neg: Sequence[int]) -> tuple[int, ...]:
    """Dual lifting for antitone, right-self-adjoint negations, from below
    through the closed elements."""
    _require_neg_laws(c.base, neg, "right-self-adjunction")
    return lift_map(c, [c.embed[x] for x in neg], c.closed,
                    from_below=True, sigma=False)
