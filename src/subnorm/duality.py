"""Dual relational spaces of subordination lattices.

The space of a relation-equipped bounded distributive lattice has the
join-irreducibles of the completion as points, ordered as in the
completion, with an accessibility relation holding from ``j`` to ``i``
iff ``i`` lies below the diamond of ``j``.  Equivalently the points can
be taken to be the prime filters of the carrier (ordered by reverse
inclusion, which matches the irreducible that a filter's meet gives),
related when the direct image of one filter is contained in the other;
the two presentations are isomorphic and both are built here.

Relational counterparts of the first-order relation properties are
checked verbatim over the points.  For the conditions involving the
box operator the bridge between points and the box goes through the
standard pairing of join- with meet-irreducibles (each join-irreducible
``j`` with the largest element not above it); that pairing is
order-preserving, so the bound on the quantified point in those
conditions faces *upward* (``i1 <= j``), a reading verified exhaustively
against the operator inequalities by the test harness.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .errors import NotSubordinationLattice
from .order import FinLattice, bits, join_irreducibles, mask_of, prime_filters
from .slanted import build_slanted, sigma_extension
from .subordination import ProtoSubAlg, is_subordination_algebra


class SubordinationSpace:
    """Finite relational space: points with an order and a relation.

    ``order[i]`` and ``R[i]`` are bitmasks over point *positions*.  The
    ``points`` entries identify each position in its source structure
    (completion element index, or prime-filter bitmask).
    """

    __slots__ = ("points", "labels", "order", "R")

    def __init__(self, points, labels, order, R):
        self.points = tuple(points)
        self.labels = tuple(labels)
        self.order = tuple(order)
        self.R = tuple(R)

    @property
    def m(self) -> int:
        return len(self.points)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.order[i] >> j & 1)

    def rel(self, i: int, j: int) -> bool:
        return bool(self.R[i] >> j & 1)

    def rel_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.m) for j in bits(self.R[i])]

    def to_json(self) -> dict:
        return {
            "points": list(self.labels),
            "order": [list(bits(row)) for row in self.order],
            "R": [list(pair) for pair in self.rel_pairs()],
        }

    def __repr__(self) -> str:
        return f"SubordinationSpace(points={self.labels!r}, R={self.rel_pairs()!r})"


def _require_subordination_lattice(S: ProtoSubAlg) -> FinLattice:
    lat = S.lattice
    if lat is None or not lat.is_distributive:
        raise NotSubordinationLattice(
            "dual space needs a bounded distributive lattice carrier")
    if not is_subordination_algebra(S):
        raise NotSubordinationLattice(
            "dual space needs the full set of subordination rules to hold")
    return lat


class SpacePoints(NamedTuple):
    """The relation-free part of a dual space: its ``points``, ``labels``
    and ``order`` (as in ``SubordinationSpace``), and the ``masks`` from
    which each relation's accessibility rows are read (see the two
    ``space_from_*`` builders).  It depends on the carrier alone, so one
    serves every relation on it."""

    points: tuple
    labels: tuple
    order: tuple
    masks: tuple


def build_space_jirr(S: ProtoSubAlg) -> SubordinationSpace:
    """Points: completely join-irreducible elements of the completion;
    ``j`` reaches ``i`` iff ``i <= diamond(j)`` there."""
    _require_subordination_lattice(S)
    sa = build_slanted(S)
    return space_from_jirr(jirr_points(sa.delta), sigma_extension(sa))


def jirr_points(delta: FinLattice) -> SpacePoints:
    """The join-irreducibles of the completion ``delta`` (a lattice
    carrier is its own); ``masks[u]`` holds the positions of the points
    below the element ``u``."""
    pts = sorted(bits(join_irreducibles(delta)))
    m = len(pts)
    order = [mask_of(j for j in range(m) if delta.leq(pts[i], pts[j]))
             for i in range(m)]
    below = [mask_of(j for j in range(m) if delta.leq(pts[j], u))
             for u in range(delta.n)]
    labels = [delta.label(x) for x in pts]
    return SpacePoints(tuple(pts), tuple(labels), tuple(order), tuple(below))


def space_from_jirr(points: SpacePoints, sigma) -> SubordinationSpace:
    """The join-irreducible space from the completion's ``jirr_points``
    and the sigma extension of the diamond (on a lattice carrier, the
    diamond itself: it is monotone here), for a relation already known
    to be a subordination on a distributive lattice
    (``build_space_jirr`` checks that first): point ``i`` reaches the
    points below ``sigma`` of it."""
    below = points.masks
    R = [below[sigma[x]] for x in points.points]
    return SubordinationSpace(points.points, points.labels, points.order, R)


def build_space_primefilters(S: ProtoSubAlg) -> SubordinationSpace:
    """Points: prime filters of the carrier, ordered by reverse inclusion;
    ``P`` reaches ``Q`` iff the direct image of ``P`` is inside ``Q``."""
    lat = _require_subordination_lattice(S)
    return space_from_primefilters(primefilter_points(lat), S.rows)


def primefilter_points(lat: FinLattice) -> SpacePoints:
    """The prime filters of the carrier; ``masks[a]`` holds the positions
    of the filters containing the element ``a``."""
    filters = prime_filters(lat)
    m = len(filters)
    order = [mask_of(j for j in range(m) if filters[j] & ~filters[i] == 0)
             for i in range(m)]
    holding = [mask_of(j for j in range(m) if filters[j] >> a & 1)
               for a in range(lat.n)]
    labels = ["{" + ",".join(lat.label(a) for a in bits(f)) + "}" for f in filters]
    return SpacePoints(tuple(filters), tuple(labels), tuple(order), tuple(holding))


def space_from_primefilters(points: SpacePoints, rows) -> SubordinationSpace:
    """The prime-filter space from the carrier's ``primefilter_points``
    and the relation's rows, for a relation already known to be a
    subordination on a distributive lattice
    (``build_space_primefilters`` checks that first): a filter reaches
    every filter holding its whole direct image."""
    holding = points.masks
    full = (1 << len(points.points)) - 1
    R = []
    for f in points.points:
        img = 0
        for a in bits(f):
            img |= rows[a]
        reach = full
        for b in bits(img):
            reach &= holding[b]
        R.append(reach)
    return SubordinationSpace(points.points, points.labels, points.order, R)


def _signature(sp: SubordinationSpace, i: int) -> tuple:
    oc = sum(1 for j in range(sp.m) if sp.leq(j, i))
    rc = sum(1 for j in range(sp.m) if sp.rel(j, i))
    return (bin(sp.order[i]).count("1"), oc, bin(sp.R[i]).count("1"), rc,
            sp.rel(i, i))


def spaces_isomorphic(s1: SubordinationSpace,
                      s2: SubordinationSpace) -> tuple[bool, Optional[tuple]]:
    """Search for an order- and relation-preserving bijection; returns it
    as a tuple sending positions of the first space into the second."""
    if s1.m != s2.m:
        return False, None
    m = s1.m
    sig1 = [_signature(s1, i) for i in range(m)]
    sig2 = [_signature(s2, i) for i in range(m)]
    if sorted(sig1) != sorted(sig2):
        return False, None
    candidates = [[j for j in range(m) if sig2[j] == sig1[i]] for i in range(m)]
    image = [-1] * m
    used = [False] * m

    def fits(i: int, j: int) -> bool:
        for k in range(i):
            jk = image[k]
            if s1.leq(i, k) != s2.leq(j, jk) or s1.leq(k, i) != s2.leq(jk, j):
                return False
            if s1.rel(i, k) != s2.rel(j, jk) or s1.rel(k, i) != s2.rel(jk, j):
                return False
        return s1.leq(i, i) == s2.leq(j, j) and s1.rel(i, i) == s2.rel(j, j)

    def search(i: int) -> bool:
        if i == m:
            return True
        for j in candidates[i]:
            if not used[j] and fits(i, j):
                used[j] = True
                image[i] = j
                if search(i + 1):
                    return True
                used[j] = False
                image[i] = -1
        return False

    if search(0):
        return True, tuple(image)
    return False, None


class RelCondition(Enum):
    REFLEXIVE = "REFLEXIVE"
    TRANSITIVE = "TRANSITIVE"
    DENSE = "DENSE"
    CT_REL = "CT_REL"
    S9_FWD_REL = "S9_FWD_REL"
    S9_BWD_REL = "S9_BWD_REL"
    SL1_REL = "SL1_REL"
    SL2_REL = "SL2_REL"
    PROPER_REL = "PROPER_REL"


def check_relational(sp: SubordinationSpace,
                     cond: RelCondition) -> tuple[bool, Optional[tuple]]:
    """Evaluate a relational condition verbatim over the points; on
    failure return the first witnessing tuple of point positions."""
    m = sp.m
    R, leq = sp.rel, sp.leq

    if cond is RelCondition.REFLEXIVE:
        for i in range(m):
            if not R(i, i):
                return False, (i,)
        return True, None
    if cond is RelCondition.TRANSITIVE:
        for i in range(m):
            for j in bits(sp.R[i]):
                for k in bits(sp.R[j]):
                    if not R(i, k):
                        return False, (i, j, k)
        return True, None
    if cond is RelCondition.DENSE:
        for i in range(m):
            for j in bits(sp.R[i]):
                if not any(R(i, k) and R(k, j) for k in range(m)):
                    return False, (i, j)
        return True, None
    if cond is RelCondition.CT_REL:
        for j in range(m):
            for i in bits(sp.R[j]):
                if not any(leq(k, j) and R(j, k) and R(k, i) for k in range(m)):
                    return False, (j, i)
        return True, None
    if cond is RelCondition.S9_FWD_REL:
        for i3 in range(m):
            for i1 in range(m):
                for i2 in range(m):
                    if R(i3, i1) and R(i3, i2):
                        if not any(leq(i1, j) and R(j, i2) and R(i3, j)
                                   for j in range(m)):
                            return False, (i3, i1, i2)
        return True, None
    if cond is RelCondition.S9_BWD_REL:
        for i3 in range(m):
            for i1 in range(m):
                for i2 in range(m):
                    if any(leq(i1, j) and R(j, i2) and R(i3, j) for j in range(m)):
                        if not (R(i3, i1) and R(i3, i2)):
                            return False, (i3, i1, i2)
        return True, None
    if cond is RelCondition.SL1_REL:
        for i4 in range(m):
            for i1 in bits(sp.R[i4]):
                for i2 in bits(sp.R[i4]):
                    for i3 in range(m):
                        if R(i3, i4):
                            if not any(leq(i1, j) and leq(i2, j) and R(i3, j)
                                       for j in range(m)):
                                return False, (i4, i1, i2, i3)
        return True, None
    if cond is RelCondition.SL2_REL:
        for i4 in range(m):
            for i1 in range(m):
                for i2 in range(m):
                    if R(i1, i4) and R(i2, i4):
                        for i3 in bits(sp.R[i4]):
                            if not any(leq(j, i1) and leq(j, i2) and R(j, i3)
                                       for j in range(m)):
                                return False, (i1, i2, i4, i3)
        return True, None
    if cond is RelCondition.PROPER_REL:
        full = (1 << m) - 1
        for y in range(full):  # proper up-sets only (y != full)
            if any(sp.order[i] & ~y for i in bits(y)):
                continue
            if all(sp.R[p] & y for p in range(m)):
                return False, tuple(bits(y))
        return True, None
    raise AssertionError(cond)

