"""Extremality of the closure operators, decided from per-carrier tables.

For a directed instance, the closure-``i`` diamond dominates every map
below the original diamond that is monotone (all systems), also
join-preserving (2, 4), and also satisfies the contraction law
``f(a) <= f(a ^ f(a))`` (3, 4).  Dually, the closure box of systems 1
and 2 is below every map above the original box that is monotone,
submultiplicative over meets and fixes the top.

Tables.  "Every qualifying map below ``dia`` lies below ``dia_i``" says
the same as "the pointwise join of the qualifying maps below ``dia``
lies below ``dia_i``"; dually for the box, with the pointwise meet of
the qualifying maps above ``box``.  Each carrier (at most four elements,
so at most ``n^n`` maps) keeps, next to its ``order.subset_tables``,
the qualifying maps of each system listed once, and reads ``dia`` and
``box`` off its meet and join tables (``order.mask_meet_join``); a row
mask that is not down-directed, or a column mask that is not
up-directed (the carrier's ``down-directed``/``up-directed`` tables),
codes past the end, so directedness costs no second sweep.

Lemma.  Every system contains TOP, SI, WO and AND, so ``close`` runs
its fixpoint on the diamond vector, starting from the meet of each row:
the closure under system ``i`` is determined by the unclosed diamond
alone.  ``close_i``, the closure box and the whole diamond-side verdict
are therefore computed once per (carrier, system, diamond tuple), and
the box side against the meet memoised per box tuple.  So the four
verdicts of an instance depend only on the carrier, the unclosed
diamond and the unclosed box, and ``verify_prop41`` decides them
together, as one flag group (the four ``closure*-extremal`` bits of the
catalog), once per (carrier, diamond, box): the pair packs into one
index below ``n^(2n)`` (at most 65,536) of a flat per-carrier verdict
table, read off per-position code tables of the row and column masks.

Oracle.  The tests hold ``verify_prop41`` to an exhaustive enumeration
of all ``n^n`` maps of the carrier, written from the laws above
(``tests/oracles.py``).

No analogous first-order law pins down the box of systems 3 and 4: the
contraction closure adds pairs whose columns depend on row structure
the box cannot see, and on B4 with the single seed pair (x, y) the
system-3 box itself violates the candidate law box(a v box(a)) <=
box(a).  The box side is therefore checked for systems 1 and 2 only.
"""

from __future__ import annotations

from operator import getitem
from typing import Iterator, Sequence

from ..completion import dm_completion  # noqa: F401  (perfbench traces this binding)
from ..errors import MissingStructure, TooLarge
from ..order import FinLattice, is_monotone, mask_meet_join, subset_tables
from ..slanted import build_slanted  # noqa: F401  (perfbench traces this binding)
from ..subordination import (  # noqa: F401  (property_holds: perfbench traces this binding)
    ProtoSubAlg,
    close_i,
    property_holds,
)

_N_CAP = 4
#: the marker of a decided entry of a verdict table, above the four
#: verdict bits (bit ``i - 1`` for system ``i``)
_DECIDED = 16


def _monotone_maps(lat: FinLattice) -> Iterator[tuple[int, ...]]:
    """All monotone maps of the carrier, pruned early on monotonicity
    against already-fixed positions."""
    p = lat.poset
    n = lat.n
    f = [0] * n

    def rec(a: int) -> Iterator[tuple[int, ...]]:
        if a == n:
            yield tuple(f)
            return
        for v in range(n):
            ok = True
            for b in range(a):
                if p.leq(a, b) and not p.leq(v, f[b]):
                    ok = False
                    break
                if p.leq(b, a) and not p.leq(f[b], v):
                    ok = False
                    break
            if ok:
                f[a] = v
                yield from rec(a + 1)

    return rec(0)


def _pointwise_leq(lat: FinLattice, f: Sequence[int], g: Sequence[int]) -> bool:
    up = lat.poset.up
    return all(up[x] >> y & 1 for x, y in zip(f, g))


def _diamond_qualifies(lat: FinLattice, f: Sequence[int], i: int) -> bool:
    n = lat.n
    if i in (2, 4):
        if any(f[lat.join[a][b]] != lat.join[f[a]][f[b]]
               for a in range(n) for b in range(n)):
            return False
    if i in (3, 4):
        if any(not lat.leq(f[a], f[lat.meet[a][f[a]]]) for a in range(n)):
            return False
    return True


def _box_qualifies(lat: FinLattice, g: Sequence[int]) -> bool:
    n = lat.n
    if g[lat.top] != lat.top:
        return False
    return not any(not lat.leq(lat.meet[g[x]][g[y]], g[lat.meet[x][y]])
                   for x in range(n) for y in range(n))


class _ExtremalityTables:
    """Closure-extremality tables of one lattice carrier, filled as
    diamonds and boxes are met.

    ``row_code[a][m]`` is the digit of row mask ``m`` at index ``a``, its
    meet ``meet(m)`` times ``n^a``, and ``col_code[b][m]`` that of
    column mask ``m`` at index ``b``, its join ``join(m)`` times
    ``n^(n+b)``; a mask that is not directed codes past the end.  So the
    sum over a relation's rows and columns is the index of its (diamond,
    box) in ``verdicts``, whose entry is 0 until it is decided and then
    ``_DECIDED`` with the four verdict bits."""

    __slots__ = ("lat", "meet", "join", "row_code", "col_code", "verdicts",
                 "_qualifying", "_closures", "_box_bounds")

    def __init__(self, lat: FinLattice, dd: Sequence[bool], ud: Sequence[bool]):
        n = lat.n
        size = n ** (2 * n)
        self.lat = lat
        meet, join = self.meet, self.join = mask_meet_join(lat)
        masks = range(len(dd))
        self.row_code = [[meet(m) * n ** a if dd[m] else size for m in masks]
                         for a in range(n)]
        self.col_code = [[join(m) * n ** (n + b) if ud[m] else size for m in masks]
                         for b in range(n)]
        self.verdicts = bytearray(size)
        self._qualifying: dict = {}  # system i or "box" -> qualifying maps
        self._closures: dict = {}    # (i, dia) -> (box_i, verdict short of the box bounds)
        self._box_bounds: dict = {}  # box -> meet of qualifying maps above it

    def qualifying(self, key) -> list[tuple[int, ...]]:
        """Monotone maps with the laws of diamond system ``key`` (1..4),
        or of the box side when ``key`` is ``"box"``."""
        maps = self._qualifying.get(key)
        if maps is None:
            lat = self.lat
            monotone = _monotone_maps(lat)
            if key == "box":
                maps = [g for g in monotone if _box_qualifies(lat, g)]
            else:
                maps = [f for f in monotone if _diamond_qualifies(lat, f, key)]
            self._qualifying[key] = maps
        return maps

    def closure(self, S: ProtoSubAlg, i: int,
                dia: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
        """``(box_i, verdict)`` for system ``i`` on a relation whose
        unclosed diamond is ``dia``: the closure box, and whether the
        closure diamond is the largest qualifying map below ``dia``
        (and, for systems 1 and 2, the closure box obeys its laws)."""
        got = self._closures.get((i, dia))
        if got is None:
            lat = self.lat
            closed = close_i(S, i)
            dia_i = list(map(self.meet, closed.rows))
            box_i = tuple(map(self.join, closed.cols))
            join = lat.join
            largest = [lat.bot] * lat.n
            for f in self.qualifying(i):
                if _pointwise_leq(lat, f, dia):
                    largest = [join[x][y] for x, y in zip(largest, f)]
            p = lat.poset
            ok = (_pointwise_leq(lat, dia_i, dia) and is_monotone(dia_i, p, p)
                  and _diamond_qualifies(lat, dia_i, i)
                  and _pointwise_leq(lat, largest, dia_i))
            if i in (1, 2):
                ok = ok and is_monotone(box_i, p, p) and _box_qualifies(lat, box_i)
            got = self._closures[(i, dia)] = (box_i, ok)
        return got

    def box_bound(self, box: tuple[int, ...]) -> list[int]:
        """Pointwise meet of the qualifying box maps above ``box``."""
        got = self._box_bounds.get(box)
        if got is None:
            lat = self.lat
            meet = lat.meet
            got = [lat.top] * lat.n
            for g in self.qualifying("box"):
                if _pointwise_leq(lat, box, g):
                    got = [meet[x][y] for x, y in zip(got, g)]
            self._box_bounds[box] = got
        return got

    def decide(self, S: ProtoSubAlg, index: int) -> int:
        """Decide all four systems on a relation whose entry ``index`` of
        ``verdicts`` is undecided, and store the entry once all four are
        decided."""
        lat = self.lat
        dia = tuple(map(self.meet, S.rows))
        box = tuple(map(self.join, S.cols))
        got = _DECIDED
        for i in (1, 2, 3, 4):
            box_i, ok = self.closure(S, i, dia)
            if ok and i in (1, 2):
                ok = (_pointwise_leq(lat, box, box_i)
                      and _pointwise_leq(lat, box_i, self.box_bound(box)))
            got |= ok << (i - 1)
        self.verdicts[index] = got
        return got


def _extremality_tables(S: ProtoSubAlg) -> _ExtremalityTables:
    tables = subset_tables(S.poset)
    got = tables.get("extremality")
    if got is None:
        got = tables["extremality"] = _ExtremalityTables(
            S.lattice, tables["down-directed"], tables["up-directed"])
    return got


def verify_prop41(S: ProtoSubAlg) -> int:
    """The closure-extremality verdicts of a directed instance as a mask:
    bit ``i - 1`` is set when both closure-``i`` operators are extremal.
    One lookup in the carrier's verdict table, decided on a miss."""
    if S.n > _N_CAP:
        raise TooLarge(f"map enumeration on {S.n} elements")
    lat = S.lattice
    if lat is None or not lat.is_distributive:
        raise MissingStructure("closure extremality",
                               "a bounded distributive lattice carrier")
    t = _extremality_tables(S)
    index = sum(map(getitem, t.row_code, S.rows)) + sum(map(getitem, t.col_code, S.cols))
    if index >= len(t.verdicts):
        raise MissingStructure("closure extremality", "a directed instance")
    return (t.verdicts[index] or t.decide(S, index)) & ~_DECIDED
