"""Proto-subordination algebras: a carrier order plus a binary relation.

The relation ``prec`` is stored as one bitmask row per element
(``rows[a]`` holds the heads ``x`` with ``a prec x``).  This module
provides the full first-order property checker (SI, WO, AND, OR, CT, T,
D, DD, UD, S6, S9, SL1, SL2, inclusion and properness conditions), the
named-class classifier, and least-fixpoint closure under the Horn rules,
including the four standard rule systems used to close normative
systems.

Each property is one exact quantifier sweep over the finite carrier that
returns its lexicographically first counterexample, or None.  On small
carriers (``n <= 10``) per-carrier lookup tables over all ``2^n`` row
masks decide WO, AND, OR, DD and UD without a sweep, which makes them
cheap enough to run over every one of the ``2^(n*n)`` relations of an
enumeration; the sweep then runs only to find the witness of a failure.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional, Sequence, Union

from .errors import InputFormatError, MissingStructure, NotALattice, NotBounded
from .order import (
    FinLattice,
    FinPoset,
    bits,
    is_down_directed,
    is_up_directed,
    lattice_from_json,
    lattice_to_json,
    poset_from_json,
    poset_to_json,
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


#: rules whose conclusions are non-existential, hence closable by a
#: monotone fixpoint.  (D) stays check-only.
CLOSABLE_RULES = frozenset({
    Property.BOT, Property.TOP, Property.SI, Property.WO,
    Property.AND, Property.OR, Property.CT, Property.T,
})

#: the four closure systems for normative reasoning
SYSTEM_RULES = {
    1: frozenset({Property.TOP, Property.SI, Property.WO, Property.AND}),
    2: frozenset({Property.TOP, Property.SI, Property.WO, Property.AND, Property.OR}),
    3: frozenset({Property.TOP, Property.SI, Property.WO, Property.AND, Property.CT}),
    4: frozenset({Property.TOP, Property.SI, Property.WO, Property.AND,
                  Property.OR, Property.CT}),
}

_NEEDS_LATTICE = {Property.AND, Property.OR, Property.CT,
                  Property.S9_FWD, Property.S9_BWD, Property.SL1, Property.SL2}
_NEEDS_BOUNDS = {Property.BOT, Property.TOP, Property.PROPER}

_TABLE_CAP = 10


class SubordRel:
    """Binary relation over carrier indices, one bitmask row per element."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int]):
        if len(rows) != n:
            raise InputFormatError("relation must have one row per element")
        full = (1 << n) - 1
        if any(r & ~full for r in rows):
            raise InputFormatError("relation indices out of carrier range")
        self.n = n
        self.rows = tuple(rows)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "SubordRel":
        rows = [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise InputFormatError(f"relation pair {(a, b)} out of range")
            rows[a] |= 1 << b
        return cls(n, rows)

    def has(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def pairs(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.n) for b in bits(self.rows[a])]

    def columns(self) -> tuple[int, ...]:
        cols = [0] * self.n
        for a in range(self.n):
            for b in bits(self.rows[a]):
                cols[b] |= 1 << a
        return tuple(cols)

    def __eq__(self, other) -> bool:
        return isinstance(other, SubordRel) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"SubordRel({self.pairs()!r})"


class ProtoSubAlg:
    """Carrier order with a subordination-style relation on it."""

    __slots__ = ("carrier", "prec", "_cols")

    def __init__(self, carrier: Carrier, prec: SubordRel):
        n = carrier.n
        if prec.n != n:
            raise InputFormatError("carrier and relation sizes differ")
        self.carrier = carrier
        self.prec = prec
        self._cols = None

    @classmethod
    def from_pairs(cls, carrier: Carrier,
                   pairs: Iterable[tuple[int, int]]) -> "ProtoSubAlg":
        n = carrier.n
        return cls(carrier, SubordRel.from_pairs(n, pairs))

    @property
    def poset(self) -> FinPoset:
        c = self.carrier
        return c.poset if isinstance(c, FinLattice) else c

    @property
    def lattice(self) -> Optional[FinLattice]:
        return self.carrier if isinstance(self.carrier, FinLattice) else None

    @property
    def n(self) -> int:
        return self.prec.n

    @property
    def rows(self) -> tuple[int, ...]:
        return self.prec.rows

    @property
    def cols(self) -> tuple[int, ...]:
        if self._cols is None:
            self._cols = self.prec.columns()
        return self._cols

    def with_rows(self, rows: Sequence[int]) -> "ProtoSubAlg":
        return ProtoSubAlg(self.carrier, SubordRel(self.n, rows))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ProtoSubAlg)
                and self.prec == other.prec and self.carrier == other.carrier)

    def __hash__(self) -> int:
        return hash((self.prec, self.n))

    def __repr__(self) -> str:
        return f"ProtoSubAlg(n={self.n}, prec={self.prec.pairs()!r})"


# ---------------------------------------------------------------------------
# per-carrier lookup tables
# ---------------------------------------------------------------------------

def _carrier_tables(S: ProtoSubAlg) -> Optional[dict]:
    p = S.poset
    if p.n > _TABLE_CAP:
        return None
    if p._tables is None:
        n = p.n
        size = 1 << n
        upclose = [0] * size
        downclose = [0] * size
        dd = [True] * size
        ud = [True] * size
        for m in range(1, size):
            low = (m & -m).bit_length() - 1
            rest = m & (m - 1)
            upclose[m] = upclose[rest] | p.up[low]
            downclose[m] = downclose[rest] | p.down[low]
            dd[m] = is_down_directed(m, p)
            ud[m] = is_up_directed(m, p)
        tables = {"upclose": upclose, "downclose": downclose, "dd": dd, "ud": ud}
        lat = S.lattice
        if lat is not None:
            for key, op in (("meetclose", lat.meet), ("joinclose", lat.join)):
                closed = [0] * size
                for m in range(1, size):
                    low = (m & -m).bit_length() - 1
                    rest = closed[m & (m - 1)]
                    acc = rest | 1 << low
                    for y in bits(rest):
                        acc |= 1 << op[low][y]
                    closed[m] = acc
                tables[key] = closed
        p._tables = tables
    return p._tables


def _bounds(S: ProtoSubAlg) -> tuple[int, int]:
    lat = S.lattice
    if lat is not None:
        return lat.bot, lat.top
    p = S.poset
    full = (1 << p.n) - 1
    bot = next((a for a in range(p.n) if p.up[a] == full), None)
    top = next((a for a in range(p.n) if p.down[a] == full), None)
    if bot is None or top is None:
        raise MissingStructure("bounds", "a bounded carrier")
    return bot, top


def _require(S: ProtoSubAlg, prop: Property) -> None:
    if prop in _NEEDS_LATTICE and S.lattice is None:
        raise MissingStructure(prop.value, "lattice operations")
    if prop is Property.S6 and (S.lattice is None or S.lattice.neg is None):
        raise MissingStructure("S6", "a negation table on the carrier")
    if prop in _NEEDS_BOUNDS:
        _bounds(S)


# ---------------------------------------------------------------------------
# property evaluation
# ---------------------------------------------------------------------------

def _table_verdict(S: ProtoSubAlg, prop: Property) -> Optional[bool]:
    """Exact verdict of WO, AND, OR, DD or UD read off the per-carrier
    tables over all ``2^n`` row masks; None for the other properties and
    on carriers without tables."""
    t = _carrier_tables(S)
    if t is None:
        return None
    if prop is Property.WO:
        uc = t["upclose"]
        return all(uc[r] == r for r in S.rows)
    if prop is Property.AND and "meetclose" in t:
        mc = t["meetclose"]
        return all(mc[r] == r for r in S.rows)
    if prop is Property.OR and "joinclose" in t:
        jc = t["joinclose"]
        return all(jc[c] == c for c in S.cols)
    if prop is Property.DD:
        dd = t["dd"]
        return all(dd[r] for r in S.rows)
    if prop is Property.UD:
        ud = t["ud"]
        return all(ud[c] for c in S.cols)
    return None


def property_holds(S: ProtoSubAlg, prop: Property) -> bool:
    """Exact truth of the quantified condition; raises MissingStructure
    when the carrier lacks what the property mentions."""
    _require(S, prop)
    verdict = _table_verdict(S, prop)
    return _sweep(S, prop) is None if verdict is None else verdict


def check_property(S: ProtoSubAlg, prop: Property) -> tuple[bool, Optional[tuple]]:
    """Evaluate one property; on failure also return the first
    counterexample tuple in index order."""
    _require(S, prop)
    if _table_verdict(S, prop):
        return True, None
    witness = _sweep(S, prop)
    return witness is None, witness


def _sweep(S: ProtoSubAlg, prop: Property) -> Optional[tuple]:
    """Lexicographically first counterexample tuple, in the property's
    stated variable order; None when the property holds."""
    p = S.poset
    rows = S.rows
    n = S.n
    lat = S.lattice
    if prop is Property.BOT or prop is Property.TOP:
        bot, top = _bounds(S)
        e = bot if prop is Property.BOT else top
        return None if rows[e] >> e & 1 else ()
    elif prop is Property.SI:
        for a in range(n):
            for b in bits(p.up[a]):
                bad = rows[b] & ~rows[a]
                if bad:
                    return (a, b, next(bits(bad)))
    elif prop is Property.WO:
        for b in range(n):
            for x in bits(rows[b]):
                bad = p.up[x] & ~rows[b]
                if bad:
                    return (b, x, next(bits(bad)))
    elif prop is Property.AND:
        for a in range(n):
            for x in bits(rows[a]):
                for y in bits(rows[a]):
                    if not rows[a] >> lat.meet[x][y] & 1:
                        return (a, x, y)
    elif prop is Property.OR:
        cols = S.cols
        for x in range(n):
            for a in bits(cols[x]):
                for b in bits(cols[x]):
                    if not cols[x] >> lat.join[a][b] & 1:
                        return (a, b, x)
    elif prop is Property.D:
        for a in range(n):
            reach = 0
            for b in bits(rows[a]):
                reach |= rows[b]
            bad = rows[a] & ~reach
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
    elif prop is Property.DD:
        for a in range(n):
            for x1 in bits(rows[a]):
                for x2 in bits(rows[a]):
                    if not p.down[x1] & p.down[x2] & rows[a]:
                        return (a, x1, x2)
    elif prop is Property.UD:
        cols = S.cols
        for x in range(n):
            for a1 in bits(cols[x]):
                for a2 in bits(cols[x]):
                    if not p.up[a1] & p.up[a2] & cols[x]:
                        return (a1, a2, x)
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
        # Forward demands L => R, backward R => L; the witness is (x, a, b).
        forward = prop is Property.S9_FWD
        join, cols = lat.join, S.cols
        for a in range(n):
            for b in range(n):
                rmask = 0
                for ap in bits(cols[a]):
                    for bp in bits(cols[b]):
                        rmask |= 1 << join[ap][bp]
                joins_ac = [join[a][c] for c in bits(cols[b])]
                for x in range(n):
                    left = any(rows[x] >> j & 1 for j in joins_ac)
                    right = bool(rmask & p.up[x])
                    if (left and not right) if forward else (right and not left):
                        return (x, a, b)
    elif prop is Property.SL1:
        # (a, b, c) with a prec b v c but no b' prec b, c' prec c with
        # a prec b' v c'
        join, cols = lat.join, S.cols
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if not rows[a] >> join[b][c] & 1:
                        continue
                    if not any(rows[a] >> join[bp][cp] & 1
                               for bp in bits(cols[b]) for cp in bits(cols[c])):
                        return (a, b, c)
    elif prop is Property.SL2:
        # (b, c, a) with b ^ c prec a but no b prec b', c prec c' with
        # b' ^ c' prec a.  The witnesses come from the direct images (the
        # order-dual of SL1's inverse-image witnesses); that is the
        # reading under which SL2 is equivalent to the diamond inequality
        # <>(<>a & <>b) <= <>(a & b) on directed carriers, verified
        # exhaustively by the test suite.
        meet = lat.meet
        for b in range(n):
            for c in range(n):
                for a in bits(rows[meet[b][c]]):
                    if not any(rows[meet[bp][cp]] >> a & 1
                               for bp in bits(rows[b]) for cp in bits(rows[c])):
                        return (b, c, a)
    elif prop is Property.PREC_IN_LEQ:
        for a in range(n):
            bad = rows[a] & ~p.up[a]
            if bad:
                return (a, next(bits(bad)))
    elif prop is Property.LEQ_IN_PREC:
        for a in range(n):
            bad = p.up[a] & ~rows[a]
            if bad:
                return (a, next(bits(bad)))
    elif prop is Property.PROPER:
        bot, _ = _bounds(S)
        cols = S.cols
        for a in range(n):
            if a != bot and not cols[a] & ~(1 << bot):
                return (a,)
    return None


# ---------------------------------------------------------------------------
# named classes
# ---------------------------------------------------------------------------

P = Property
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
    ("subordination algebra", frozenset({P.SI, P.WO, P.OR, P.AND, P.BOT, P.TOP})),
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
        return all(property_holds(S, q)
                   for q in (P.BOT, P.TOP, P.SI, P.WO, P.AND, P.OR))
    except MissingStructure:
        return False


# ---------------------------------------------------------------------------
# Horn-rule closure
# ---------------------------------------------------------------------------

def close(S: ProtoSubAlg, rules: Iterable[Property]) -> ProtoSubAlg:
    """Smallest extension of the relation satisfying every given rule.

    On every lattice carrier, a rule set containing WO and AND is closed
    in filter form (``_close_filterform``); any other rule set runs the
    generic fixpoint (``_close_fixpoint``), which tests keep as the
    reference for the filter form.  Extensive, monotone and idempotent
    by construction.
    """
    ruleset = frozenset(rules)
    bad = ruleset - CLOSABLE_RULES
    if bad:
        raise MissingStructure(
            "/".join(sorted(q.value for q in bad)), "a closable Horn rule")
    lat = S.lattice
    if ruleset & {P.AND, P.OR, P.CT} and lat is None:
        raise MissingStructure("AND/OR/CT closure", "lattice operations")
    if ruleset & {P.BOT, P.TOP}:
        _bounds(S)

    if lat is not None and {P.WO, P.AND} <= ruleset:
        return S.with_rows(_close_filterform(S, ruleset))
    return S.with_rows(_close_fixpoint(S, ruleset))


def _close_fixpoint(S: ProtoSubAlg, ruleset: frozenset) -> list[int]:
    """Generic closure: the one-step consequence operator of each rule is
    applied until the joint fixpoint.  Every added pair is forced by some
    rule instance, so the result is the least rules-closed superset."""
    lat = S.lattice
    n = S.n
    p = S.poset
    rows = list(S.rows)
    if P.BOT in ruleset:
        bot, _ = _bounds(S)
        rows[bot] |= 1 << bot
    if P.TOP in ruleset:
        _, top = _bounds(S)
        rows[top] |= 1 << top
    guard = n * n + 2
    for _ in range(guard + 1):
        before = tuple(rows)
        if P.SI in ruleset:
            for a in range(n):
                acc = rows[a]
                for b in bits(p.up[a] ^ (1 << a)):
                    acc |= rows[b]
                rows[a] = acc
        if P.WO in ruleset:
            for a in range(n):
                rows[a] = p.up_closure(rows[a])
        if P.AND in ruleset:
            meet = lat.meet
            for a in range(n):
                acc = rows[a]
                members = list(bits(acc))
                for x in members:
                    for y in members:
                        acc |= 1 << meet[x][y]
                rows[a] = acc
        if P.OR in ruleset:
            join = lat.join
            for a in range(n):
                ra = rows[a]
                if not ra:
                    continue
                for b in range(a, n):
                    common = ra & rows[b]
                    if common:
                        rows[join[a][b]] |= common
        if P.CT in ruleset:
            meet = lat.meet
            for a in range(n):
                acc = rows[a]
                for b in bits(rows[a]):
                    acc |= rows[meet[a][b]]
                rows[a] = acc
        if P.T in ruleset:
            for a in range(n):
                acc = rows[a]
                for b in bits(rows[a]):
                    acc |= rows[b]
                rows[a] = acc
        if tuple(rows) == before:
            break
    else:
        raise AssertionError("closure failed to converge within the pair bound")
    return rows


def _close_filterform(S: ProtoSubAlg, ruleset: frozenset) -> list[int]:
    """Closure for rule sets containing WO and AND on a lattice.

    Rows of any {WO, AND}-closed relation are filters, i.e. up-sets of
    their minimum, so the whole relation is tracked as the vector of row
    minima (None for an empty row).  Each rule becomes a pointwise
    operation on minima; every decrease corresponds to pairs derivable
    by a chain of AND/WO steps, so the concrete least closure is
    recovered as the up-sets of the fixpoint vector.
    """
    lat = S.lattice
    p = S.poset
    n = S.n
    meet, join = lat.meet, lat.join

    def merge(cur, new):
        return new if cur is None else meet[cur][new]

    d: list[Optional[int]] = [None] * n
    for a in range(n):
        for x in bits(S.rows[a]):
            d[a] = merge(d[a], x)
    if P.BOT in ruleset:
        d[lat.bot] = merge(d[lat.bot], lat.bot)
    if P.TOP in ruleset:
        d[lat.top] = merge(d[lat.top], lat.top)

    changed = True
    while changed:
        changed = False
        if P.SI in ruleset:
            # every element above a is read, so one sweep in any order
            # reaches the SI fixpoint
            for a in range(n):
                acc = d[a]
                for b in bits(p.up[a] ^ (1 << a)):
                    if d[b] is not None:
                        acc = merge(acc, d[b])
                if acc != d[a]:
                    d[a] = acc
                    changed = True
        if P.OR in ruleset:
            for a in range(n):
                if d[a] is None:
                    continue
                for b in range(a, n):
                    if d[b] is None:
                        continue
                    c = join[a][b]
                    new = merge(d[c], join[d[a]][d[b]])
                    if new != d[c]:
                        d[c] = new
                        changed = True
        if P.CT in ruleset:
            for a in range(n):
                if d[a] is None:
                    continue
                acc = d[a]
                for b in bits(p.up[acc]):
                    if d[meet[a][b]] is not None:
                        acc = merge(acc, d[meet[a][b]])
                if acc != d[a]:
                    d[a] = acc
                    changed = True
        if P.T in ruleset:
            for a in range(n):
                if d[a] is None:
                    continue
                acc = d[a]
                for b in bits(p.up[acc]):
                    if d[b] is not None:
                        acc = merge(acc, d[b])
                if acc != d[a]:
                    d[a] = acc
                    changed = True
    return [0 if d[a] is None else p.up[d[a]] for a in range(n)]


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
    import json
    import os

    if not isinstance(obj, dict) or "prec" not in obj:
        raise InputFormatError('subordination JSON needs "algebra" and "prec"')
    alg = obj.get("algebra")
    if isinstance(alg, str):
        path = alg if os.path.isabs(alg) or base_dir is None \
            else os.path.join(base_dir, alg)
        with open(path, "r", encoding="utf-8") as fh:
            alg = json.load(fh)
    if not isinstance(alg, dict):
        raise InputFormatError('"algebra" must be an object or a file path')
    try:
        carrier: Carrier = lattice_from_json(alg)
    except (NotALattice, NotBounded):
        carrier, _ = poset_from_json(alg)
    pairs = [tuple(x) for x in obj["prec"]]
    return ProtoSubAlg.from_pairs(carrier, pairs)


def subalg_to_json(S: ProtoSubAlg) -> dict:
    lat = S.lattice
    alg = lattice_to_json(lat) if lat is not None else poset_to_json(S.poset)
    return {"algebra": alg, "prec": [list(p) for p in S.prec.pairs()]}
