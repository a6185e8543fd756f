"""Proto-subordination algebras: a carrier order plus a binary relation.

A ``ProtoSubAlg`` is one object: the carrier and the relation ``prec``,
held as one bitmask row per element (``rows[a]`` holds the heads ``x``
with ``a prec x``), with its columns built on first use.  This module
provides the full first-order property checker (SI, WO, AND, OR, CT, T,
D, DD, UD, S6, S9, SL1, SL2, inclusion and properness conditions), the
named-class classifier, and least-fixpoint closure under the Horn rules,
including the four standard rule systems used to close normative
systems.

Each property is stated once, as an exact quantifier sweep over the
finite carrier that returns its lexicographically first counterexample,
or None; ``check_property`` runs the sweeps for that witness and
``property_holds`` for the verdict alone, which lets a sweep stop at the
first counterexample it meets.

Ten properties are *local*: each holds exactly when every row (BOT, TOP,
WO, AND, DD, PREC_IN_LEQ, LEQ_IN_PREC) or every column (OR, UD, PROPER)
passes one test, stated once in ``LOCAL_TESTS``: a law of the mask alone
(``order.subset_law_failure``) or a test of the index and the mask.
Their sweep returns the witness of the first row or column that fails.
The verification harness tabulates the same tests over every index and
mask of a small lattice (``harness.catalog.local_tables``); this module
builds no tables, so a one-shot call costs one sweep.

A flag mask has bit ``i`` set for ``FLAG_PROPERTIES[i]`` (``flag_mask``);
``missing_flags`` gives the flags whose property needs structure a
carrier lacks.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .errors import InputFormatError, MissingStructure, NotALattice, NotBounded
from .order import (
    FinLattice,
    FinPoset,
    bits,
    image,
    index_pairs,
    join_irreducibles,
    lattice_from_json,
    lattice_to_json,
    load_json,
    poset_from_json,
    poset_to_json,
    subset_law_failure,
    transpose,
)

Carrier = Union[FinPoset, FinLattice]


class Property(Enum):
    BOT = "BOT"
    TOP = "TOP"
    SI = "SI"
    WO = "WO"
    AND = "AND"
    OR = "OR"
    D = "D"
    S6 = "S6"
    CT = "CT"
    T = "T"
    DD = "DD"
    UD = "UD"
    S9_FWD = "S9_FWD"
    S9_BWD = "S9_BWD"
    SL1 = "SL1"
    SL2 = "SL2"
    PREC_IN_LEQ = "PREC_IN_LEQ"
    LEQ_IN_PREC = "LEQ_IN_PREC"
    PROPER = "PROPER"


P = Property

#: the property of each flag bit: bit ``i`` of a flag mask stands for
#: ``FLAG_PROPERTIES[i]``
FLAG_PROPERTIES = tuple(Property)
_POSITION = {q: i for i, q in enumerate(FLAG_PROPERTIES)}


def flag_mask(*props) -> int:
    """The properties as a flag mask."""
    return sum(1 << _POSITION[q] for q in set(props))


#: rules whose conclusions are non-existential, hence closable by a
#: monotone fixpoint, in the order ``close`` reads them.  (D) stays
#: check-only.
_CLOSE_ORDER = (Property.BOT, Property.TOP, Property.SI, Property.WO,
                Property.AND, Property.OR, Property.CT, Property.T)
CLOSABLE_RULES = frozenset(_CLOSE_ORDER)

#: the six rules of a subordination algebra
SUBORDINATION_RULES = frozenset({P.BOT, P.TOP, P.SI, P.WO, P.AND, P.OR})

#: the four closure systems for normative reasoning
SYSTEM_RULES = {
    1: frozenset({Property.TOP, Property.SI, Property.WO, Property.AND}),
    2: frozenset({Property.TOP, Property.SI, Property.WO, Property.AND, Property.OR}),
    3: frozenset({Property.TOP, Property.SI, Property.WO, Property.AND, Property.CT}),
    4: frozenset({Property.TOP, Property.SI, Property.WO, Property.AND,
                  Property.OR, Property.CT}),
}

_NEEDS_MEET_JOIN = {Property.AND, Property.OR, Property.CT,
                    Property.S9_FWD, Property.S9_BWD, Property.SL1, Property.SL2}
_NEEDS_BOUNDS = {Property.BOT, Property.TOP, Property.PROPER}


class ProtoSubAlg:
    """A carrier order with a binary relation on it, one bitmask row per
    element: ``rows[a]`` holds the heads ``x`` with ``a prec x``."""

    __slots__ = ("carrier", "poset", "lattice", "n", "rows", "_cols")

    def __init__(self, carrier: Carrier, rows: Sequence[int]):
        n = carrier.n
        if len(rows) != n:
            raise InputFormatError("relation must have one row per element")
        full = (1 << n) - 1
        if any(r & ~full for r in rows):
            raise InputFormatError("relation indices out of carrier range")
        self.carrier = carrier
        if isinstance(carrier, FinLattice):
            self.poset, self.lattice = carrier.poset, carrier
        else:
            self.poset, self.lattice = carrier, None
        self.n = n
        self.rows = tuple(rows)
        self._cols = None

    @classmethod
    def from_pairs(cls, carrier: Carrier,
                   pairs: Iterable[tuple[int, int]]) -> "ProtoSubAlg":
        n = carrier.n
        rows = [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise InputFormatError(f"relation pair {(a, b)} out of range")
            rows[a] |= 1 << b
        return cls(carrier, rows)

    @property
    def cols(self) -> tuple[int, ...]:
        """``cols[b]`` holds the tails ``a`` with ``a prec b``."""
        if self._cols is None:
            self._cols = transpose(self.rows)
        return self._cols

    def pairs(self) -> list[tuple[int, int]]:
        return [(a, b) for a, r in enumerate(self.rows) for b in bits(r)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, ProtoSubAlg)
                and self.rows == other.rows and self.carrier == other.carrier)

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"ProtoSubAlg(n={self.n}, prec={self.pairs()!r})"


# ---------------------------------------------------------------------------
# structure a property needs
# ---------------------------------------------------------------------------

def _bounds(carrier: Carrier) -> tuple[int, int]:
    if isinstance(carrier, FinLattice):
        return carrier.bot, carrier.top
    full = (1 << carrier.n) - 1
    bot = next((a for a in range(carrier.n) if carrier.up[a] == full), None)
    top = next((a for a in range(carrier.n) if carrier.down[a] == full), None)
    if bot is None or top is None:
        raise MissingStructure("bounds", "a bounded carrier")
    return bot, top


def _require(S: ProtoSubAlg, prop: Property) -> None:
    if prop in _NEEDS_MEET_JOIN and S.lattice is None:
        raise MissingStructure(prop.value, "lattice operations")
    if prop is Property.S6 and (S.lattice is None or S.lattice.neg is None):
        raise MissingStructure("S6", "a negation table on the carrier")
    if prop in _NEEDS_BOUNDS:
        _bounds(S.carrier)


def missing_flags(carrier: Carrier) -> int:
    """The flags whose property needs structure the carrier lacks."""
    S = ProtoSubAlg(carrier, [0] * carrier.n)
    out = 0
    for i, prop in enumerate(FLAG_PROPERTIES):
        try:
            _require(S, prop)
        except MissingStructure:
            out |= 1 << i
    return out


# ---------------------------------------------------------------------------
# the ten local properties: one test of one row or one column each
# ---------------------------------------------------------------------------

def _first_at(a: int, bad: int) -> Optional[tuple]:
    return (a, next(bits(bad))) if bad else None


#: each local property: the side it tests and its test.  A subset law
#: (``order.subset_law_failure``) reads only the mask, and its pair
#: ``(x, y)`` is reported as ``(a, x, y)`` on row ``a`` and ``(x, y, a)``
#: on column ``a``.  A test of ``(up, (bot, top), a, mask)`` reads the
#: index ``a`` too and returns the whole witness.
LOCAL_TESTS = {
    P.WO: ("rows", "up-closed"),
    P.AND: ("rows", "meet-closed"),
    P.DD: ("rows", "down-directed"),
    P.OR: ("cols", "join-closed"),
    P.UD: ("cols", "up-directed"),
    # the bottom's row holds the bottom, the top's row the top
    P.BOT: ("rows", lambda up, ends, a, m: () if a == ends[0] and not m >> a & 1 else None),
    P.TOP: ("rows", lambda up, ends, a, m: () if a == ends[1] and not m >> a & 1 else None),
    # the row of a lies above a; it holds everything above a
    P.PREC_IN_LEQ: ("rows", lambda up, ends, a, m: _first_at(a, m & ~up[a])),
    P.LEQ_IN_PREC: ("rows", lambda up, ends, a, m: _first_at(a, up[a] & ~m)),
    # every column but the bottom's holds a non-bottom
    P.PROPER: ("cols", lambda up, ends, a, m:
               (a,) if a != ends[0] and not m & ~(1 << ends[0]) else None),
}
LOCAL_FLAGS = flag_mask(*LOCAL_TESTS)


def _local_failure(S: ProtoSubAlg, prop: Property) -> Optional[tuple]:
    """The witness of the first row or column failing a local property."""
    side, test = LOCAL_TESTS[prop]
    up = S.poset.up
    bounds = _bounds(S.carrier) if prop in _NEEDS_BOUNDS else None
    for a, m in enumerate(S.rows if side == "rows" else S.cols):
        if isinstance(test, str):
            pair = subset_law_failure(S.carrier, m, test)
            witness = pair and ((a, *pair) if side == "rows" else (*pair, a))
        else:
            witness = test(up, bounds, a, m)
        if witness is not None:
            return witness
    return None


# ---------------------------------------------------------------------------
# property evaluation
# ---------------------------------------------------------------------------

def property_holds(S: ProtoSubAlg, prop: Property) -> bool:
    """Exact truth of the quantified condition; raises MissingStructure
    when the carrier lacks what the property mentions."""
    _require(S, prop)
    return _sweep(S, prop, least=False) is None


def check_property(S: ProtoSubAlg, prop: Property) -> tuple[bool, Optional[tuple]]:
    """Evaluate one property; on failure also return the first
    counterexample tuple in index order."""
    _require(S, prop)
    witness = _sweep(S, prop)
    return witness is None, witness


def _sweep(S: ProtoSubAlg, prop: Property, least: bool = True) -> Optional[tuple]:
    """Lexicographically first counterexample tuple, in the property's
    stated variable order; None when the property holds.  (S9 states its
    witness as ``(x, a, b)`` and is swept over ``a``, ``b``, then ``x``.)
    Without ``least`` any counterexample will do: SL1, the one sweep
    whose first witness is not the first it meets, stops there."""
    if prop in LOCAL_TESTS:
        return _local_failure(S, prop)
    p = S.poset
    rows = S.rows
    n = S.n
    lat = S.lattice
    if prop is Property.SI:
        for a in range(n):
            for b in bits(p.up[a]):
                bad = rows[b] & ~rows[a]
                if bad:
                    return (a, b, next(bits(bad)))
    elif prop is Property.D:
        for a in range(n):
            bad = rows[a] & ~image(rows, rows[a])
            if bad:
                return (a, next(bits(bad)))
    elif prop is Property.T:
        for a in range(n):
            for b in bits(rows[a]):
                bad = rows[b] & ~rows[a]
                if bad:
                    return (a, b, next(bits(bad)))
    elif prop is Property.CT:
        for a in range(n):
            for b in bits(rows[a]):
                bad = rows[lat.meet[a][b]] & ~rows[a]
                if bad:
                    return (a, b, next(bits(bad)))
    elif prop is Property.S6:
        neg = lat.neg
        for a in range(n):
            for b in bits(rows[a]):
                if not rows[neg[b]] >> neg[a] & 1:
                    return (a, b)
    elif prop is Property.S9_FWD or prop is Property.S9_BWD:
        # S9 relates, for all x, a, b:
        #   (L)  some c with  c prec b  and  x prec a v c
        #   (R)  some a', b' with  a' prec a,  b' prec b,  x <= a' v b'.
        # Forward demands L => R, backward R => L.  Per (a, b) both sides
        # are point sets: L is the union of the columns of a v c over
        # c prec b, R the down-closure of the joins a' v b'.  The witness
        # is (x, a, b) with the least x of the first (a, b) that fails.
        # R is also the union over c prec b of the points below some
        # a' v c with a' prec a, a mask per c built once per a.
        forward = prop is Property.S9_FWD
        join, cols, down = lat.join, S.cols, p.down
        for a in range(n):
            join_a = join[a]
            right_of = [0] * n
            for ap in bits(cols[a]):
                right_of = [r | down[x] for r, x in zip(right_of, join[ap])]
            for b in range(n):
                left = right = 0
                for c in bits(cols[b]):
                    left |= cols[join_a[c]]
                    right |= right_of[c]
                bad = left & ~right if forward else right & ~left
                if bad:
                    return (next(bits(bad)), a, b)
    elif prop is Property.SL1:
        # (a, b, c) with a prec b v c but no b' prec b, c' prec c with
        # a prec b' v c'.  Per (b, c) the predecessors of the joins
        # b' v c' form one mask: the union over c' prec c of those of
        # b' v c' for every b' prec b, which is built once per b.  Only
        # an a below the best witness so far can improve it, so each
        # (b, c) tests just those predecessors of b v c.
        join, cols = lat.join, S.cols
        first, below = None, (1 << n) - 1
        for b in range(n):
            join_b = join[b]
            reach_of = None
            for c in range(n):
                candidates = cols[join_b[c]] & below
                if not candidates:
                    continue
                if reach_of is None:
                    reach_of = [0] * n
                    for bp in bits(cols[b]):
                        reach_of = [r | cols[x] for r, x in zip(reach_of, join[bp])]
                reach = 0
                for cp in bits(cols[c]):
                    reach |= reach_of[cp]
                bad = candidates & ~reach
                if bad:
                    a = next(bits(bad))
                    first, below = (a, b, c), (1 << a) - 1
                    if not below or not least:
                        return first
        return first
    elif prop is Property.SL2:
        # (b, c, a) with b ^ c prec a but no b prec b', c prec c' with
        # b' ^ c' prec a.  The witnesses come from the direct images (the
        # order-dual of SL1's inverse-image witnesses); that is the
        # reading under which SL2 is equivalent to the diamond inequality
        # <>(<>a & <>b) <= <>(a & b) on directed carriers, verified
        # exhaustively by the test suite.  Per (b, c) the heads reached
        # from the meets b' ^ c' form one mask, the union over c' of the
        # heads reached from b' ^ c', which is built once per b.
        meet = lat.meet
        for b in range(n):
            meet_b = meet[b]
            reach_of = [0] * n
            for bp in bits(rows[b]):
                reach_of = [r | rows[x] for r, x in zip(reach_of, meet[bp])]
            for c in range(n):
                reach = 0
                for cp in bits(rows[c]):
                    reach |= reach_of[cp]
                bad = rows[meet_b[c]] & ~reach
                if bad:
                    return (b, c, next(bits(bad)))
    return None


# ---------------------------------------------------------------------------
# named classes
# ---------------------------------------------------------------------------

CLASS_TABLE: tuple[tuple[str, frozenset], ...] = (
    ("diamond-premonotone", frozenset({P.SI})),
    ("box-premonotone", frozenset({P.WO})),
    ("premonotone", frozenset({P.SI, P.WO})),
    ("diamond-directed", frozenset({P.WO, P.DD})),
    ("box-directed", frozenset({P.SI, P.UD})),
    ("diamond-monotone", frozenset({P.WO, P.DD, P.SI})),
    ("box-monotone", frozenset({P.SI, P.UD, P.WO})),
    ("directed/monotone", frozenset({P.SI, P.WO, P.UD, P.DD})),
    ("diamond-regular", frozenset({P.SI, P.WO, P.DD, P.OR})),
    ("box-regular", frozenset({P.SI, P.WO, P.UD, P.AND})),
    ("regular", frozenset({P.SI, P.WO, P.OR, P.AND})),
    ("diamond-normal", frozenset({P.SI, P.WO, P.DD, P.OR, P.BOT})),
    ("box-normal", frozenset({P.SI, P.WO, P.UD, P.AND, P.TOP})),
    ("subordination algebra", SUBORDINATION_RULES),
)


def classify(S: ProtoSubAlg) -> set[str]:
    """Names of every class from the standard table whose defining
    properties all hold.  Classes needing structure the carrier lacks
    are simply not reported."""
    verdicts: dict = {}

    def holds(prop: Property) -> bool:
        if prop not in verdicts:
            try:
                verdicts[prop] = property_holds(S, prop)
            except MissingStructure:
                verdicts[prop] = None
        return bool(verdicts[prop])

    out = set()
    for name, props in CLASS_TABLE:
        if all(holds(q) for q in props):
            out.add(name)
    return out


def is_subordination_algebra(S: ProtoSubAlg) -> bool:
    try:
        # in flag order, not set order, so every process runs the same sweeps
        return all(property_holds(S, q) for q in FLAG_PROPERTIES if q in SUBORDINATION_RULES)
    except MissingStructure:
        return False


# ---------------------------------------------------------------------------
# Horn-rule closure
# ---------------------------------------------------------------------------

def close(S: ProtoSubAlg, rules: Iterable[Property]) -> ProtoSubAlg:
    """Smallest extension of the relation satisfying every given rule.

    When the rules hold TOP, SI, WO and AND (every closure system and
    the six subordination rules do) on a lattice, every closed row is
    the principal filter above one element, its diamond ``d(a)``, so
    the fixpoint runs over the n-vector ``d``.  It starts from the meet
    of each row (with BOT, ``d(bot) = bot``), and each rule lowers ``d``
    as far as the rule forces:

    - SI: ``d(a) ^= d(c)`` for each upper cover ``c``, walked top down,
      so one pass reaches every element above;
    - OR on a distributive lattice: ``d(a) ^= V{d(j) : j <= a}`` over
      the join-irreducibles ``j`` (for ``a != bot``); since
      ``J(a v b) = J(a) u J(b)`` there, OR holds at the fixpoint.  On a
      non-distributive lattice that step is incomplete, and OR stays
      pairwise: ``d(a v b) ^= d(a) v d(b)``;
    - CT: ``d(a) ^= d(a ^ d(a))``;
    - T: ``d(a) ^= d(d(a))``.

    The row ``a`` of the result is ``up[d(a)]``.  Other rule sets run
    one fixpoint over the bitmask rows: the one-step consequence
    operator of each rule, in the order SI, WO and AND, OR, CT, T.
    Their rows may be empty, so they are not all principal filters;
    when WO and AND are both asked for on a lattice, the joint step
    sets each nonempty row to the principal filter of its meet, which
    is the least WO- and AND-closed row above it.  Either way every
    added pair is forced by some rule instance, so the result is the
    least rules-closed superset: extensive, monotone and idempotent.
    """
    bot, top, si, wo, and_, or_, ct, t = _rules_in(frozenset(rules))
    lat = S.lattice
    if (and_ or or_ or ct) and lat is None:
        raise MissingStructure("AND/OR/CT closure", "lattice operations")

    n = S.n
    up = S.poset.up
    rows = list(S.rows)
    if bot or top:
        lo, hi = _bounds(S.carrier)
        if bot:
            rows[lo] |= 1 << lo
        if top:
            rows[hi] |= 1 << hi
    guard = n * n + 2
    if top and si and wo and and_:
        d = _close_diamond(lat, [lat.meet_all(r) for r in rows], or_, ct, t, guard)
        return ProtoSubAlg(S.carrier, [up[x] for x in d])
    filters = lat is not None and wo and and_
    strict_up = [list(bits(up[a] ^ (1 << a))) for a in range(n)] if si else None
    for _ in range(guard + 1):
        before = rows[:]
        if si:
            for a, above in enumerate(strict_up):
                acc = rows[a]
                for b in above:
                    acc |= rows[b]
                rows[a] = acc
        if filters:
            for a in range(n):
                r = rows[a]
                # a row that is the principal filter of its lowest-index
                # member x already has meet x
                if r and up[(r & -r).bit_length() - 1] != r:
                    rows[a] = up[lat.meet_all(r)]
        else:
            if wo:
                for a in range(n):
                    rows[a] = image(up, rows[a])
            if and_:
                meet = lat.meet
                for a in range(n):
                    acc = rows[a]
                    members = list(bits(acc))
                    for x in members:
                        for y in members:
                            acc |= 1 << meet[x][y]
                    rows[a] = acc
        if or_:
            join = lat.join
            for a in range(n):
                ra = rows[a]
                if not ra:
                    continue
                for b in range(a, n):
                    common = ra & rows[b]
                    if common:
                        rows[join[a][b]] |= common
        if ct:
            meet = lat.meet
            for a in range(n):
                acc = rows[a]
                for b in bits(rows[a]):
                    acc |= rows[meet[a][b]]
                rows[a] = acc
        if t:
            for a in range(n):
                rows[a] |= image(rows, rows[a])
        if rows == before:
            break
    else:
        raise AssertionError("closure failed to converge within the pair bound")
    return ProtoSubAlg(S.carrier, rows)


@lru_cache(maxsize=None)
def _rules_in(ruleset: frozenset) -> tuple[bool, ...]:
    """Which rules of ``_CLOSE_ORDER`` the rule set holds, decoded once
    per distinct rule set, not in every ``close`` call or pass."""
    bad = ruleset - CLOSABLE_RULES
    if bad:
        raise MissingStructure(
            "/".join(sorted(q.value for q in bad)), "a closable Horn rule")
    return tuple(map(ruleset.__contains__, _CLOSE_ORDER))


def _diamond_shape(lat: FinLattice) -> tuple[tuple, Optional[tuple]]:
    """The walk of ``_close_diamond`` over ``lat``, built on first use and
    kept on the lattice, so it goes when the lattice goes.

    ``walk`` pairs every element with its upper covers, from the top
    down: ordered by the size of the up-set, which shrinks strictly
    going up, so no index order is assumed.  On a distributive lattice
    ``below[a]`` lists the join-irreducibles under ``a``; elsewhere
    ``below`` is None.
    """
    if "close walk" not in lat._memo:
        up, down = lat.poset.up, lat.poset.down
        walk = []
        for a in sorted(range(lat.n), key=lambda a: up[a].bit_count()):
            above = up[a] ^ (1 << a)
            walk.append((a, [c for c in bits(above) if above & down[c] == 1 << c]))
        below = None
        if lat.is_distributive:
            irreducible = join_irreducibles(lat)
            below = tuple(list(bits(irreducible & d)) for d in down)
        lat._memo["close walk"] = (tuple(walk), below)
    return lat._memo["close walk"]


def _close_diamond(lat: FinLattice, d: list[int], or_: bool, ct: bool, t: bool,
                   guard: int) -> list[int]:
    """The fixpoint of ``close`` over the diamond vector ``d`` (see there)
    for a rule set holding TOP, SI, WO and AND; ``d`` is updated in place
    and returned."""
    meet, join, n = lat.meet, lat.join, lat.n
    walk, below = _diamond_shape(lat)
    for _ in range(guard + 1):
        before = d[:]
        for a, covers in walk:
            x = d[a]
            for c in covers:
                x = meet[x][d[c]]
            d[a] = x
        if or_ and below is not None:
            for a, js in enumerate(below):
                if js:
                    x = lat.bot
                    for j in js:
                        x = join[x][d[j]]
                    d[a] = meet[d[a]][x]
        elif or_:
            for a in range(n):
                for b in range(a + 1, n):
                    ab = join[a][b]
                    d[ab] = meet[d[ab]][join[d[a]][d[b]]]
        if ct:
            for a in range(n):
                x = d[a]
                d[a] = meet[x][d[meet[a][x]]]
        if t:
            for a in range(n):
                x = d[a]
                d[a] = meet[x][d[x]]
        if d == before:
            return d
    raise AssertionError("closure failed to converge within the pair bound")


def close_i(S: ProtoSubAlg, i: int) -> ProtoSubAlg:
    """Closure under rule system ``i`` (1..4)."""
    if i not in SYSTEM_RULES:
        raise InputFormatError(f"closure system must be 1..4, got {i}")
    if S.lattice is None:
        raise MissingStructure(f"closure system {i}", "a bounded lattice carrier")
    return close(S, SYSTEM_RULES[i])


# ---------------------------------------------------------------------------
# JSON interchange
#
# Subordination JSON: {"algebra": <algebra JSON or file path>,
#                      "prec": [[i, j], ...]}
# ---------------------------------------------------------------------------

def subalg_from_json(obj: dict, base_dir: Optional[str] = None) -> ProtoSubAlg:
    import os

    if not isinstance(obj, dict) or "prec" not in obj:
        raise InputFormatError('subordination JSON needs "algebra" and "prec"')
    alg = obj.get("algebra")
    if isinstance(alg, str):
        alg = load_json(alg if os.path.isabs(alg) or base_dir is None
                        else os.path.join(base_dir, alg))
    if not isinstance(alg, dict):
        raise InputFormatError('"algebra" must be an object or a file path')
    try:
        carrier: Carrier = lattice_from_json(alg)
    except (NotALattice, NotBounded):
        carrier, _ = poset_from_json(alg)
    return ProtoSubAlg.from_pairs(carrier, index_pairs(obj["prec"], "prec"))


def subalg_to_json(S: ProtoSubAlg) -> dict:
    lat = S.lattice
    alg = lattice_to_json(lat) if lat is not None else poset_to_json(S.poset)
    return {"algebra": alg, "prec": [list(p) for p in S.pairs()]}
