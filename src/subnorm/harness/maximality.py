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
so at most ``n^n`` maps) keeps, in its ``FinPoset._tables``, the
qualifying maps of each system listed once, and reads ``dia`` and
``box`` off two ``2^n`` tables (the meet of each down-directed row mask,
the join of each up-directed column mask); a mask that is not directed
reads None, so directedness costs no second sweep.

Lemma.  Every system contains TOP and SI, so after the first SI step of
the filter-form closure every row minimum is defined and the closure
reads only those minima: the closure under system ``i`` is determined
by the unclosed diamond alone.  ``close_i``, the closure box and the
whole diamond-side verdict are therefore computed once per (carrier,
system, diamond tuple); per instance only the box side is checked,
against the meet memoised per box tuple.

Oracle.  ``verify_by_enumeration`` is the exhaustive search: it builds
the completion and both slanted algebras and enumerates every candidate
map.  When a table verdict fails, ``verify_prop41`` returns the
enumeration's result, so every witness comes from the search, and the
tests hold the tables to it.

No analogous first-order law pins down the box of systems 3 and 4: the
contraction closure adds pairs whose columns depend on row structure
the box cannot see, and on B4 with the single seed pair (x, y) the
system-3 box itself violates the candidate law box(a v box(a)) <=
box(a).  The box side is therefore checked for systems 1 and 2 only;
``box_minimality_failure`` stays exposed for experiments.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..completion import dm_completion
from ..errors import MissingStructure, TooLarge
from ..order import FinLattice, bits
from ..slanted import build_slanted
from ..subordination import (
    ProtoSubAlg,
    Property,
    _carrier_tables,
    close_i,
    property_holds,
)

_N_CAP = 4


def _dominated_maps(lat: FinLattice, bound: Sequence[int],
                    below: bool) -> Iterator[tuple[int, ...]]:
    """All maps pointwise below (or above) the bound, pruned early on
    monotonicity against already-fixed positions."""
    p = lat.poset
    n = lat.n
    choices = [sorted(bits(p.down[bound[a]] if below else p.up[bound[a]]))
               for a in range(n)]
    f = [0] * n

    def rec(a: int) -> Iterator[tuple[int, ...]]:
        if a == n:
            yield tuple(f)
            return
        for v in choices[a]:
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


def _is_monotone(lat: FinLattice, f: Sequence[int]) -> bool:
    p = lat.poset
    return all(lat.leq(f[a], f[b]) for a in range(lat.n) for b in bits(p.up[a]))


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


def diamond_maximality_failure(lat: FinLattice, dia: Sequence[int],
                               dia_i: Sequence[int], i: int) -> Optional[dict]:
    """A qualifying map below ``dia`` that ``dia_i`` fails to dominate,
    or a reason ``dia_i`` itself does not qualify; None when maximal."""
    if not all(lat.leq(dia_i[a], dia[a]) for a in range(lat.n)):
        return {"side": "diamond", "reason": "closure map not dominated",
                "map": list(dia_i)}
    if not (_is_monotone(lat, dia_i) and _diamond_qualifies(lat, dia_i, i)):
        return {"side": "diamond", "reason": "closure map fails its own laws",
                "map": list(dia_i)}
    for f in _dominated_maps(lat, dia, below=True):
        if not _diamond_qualifies(lat, f, i):
            continue
        if not all(lat.leq(f[a], dia_i[a]) for a in range(lat.n)):
            return {"side": "diamond", "reason": "larger qualifying map",
                    "map": list(f)}
    return None


def box_minimality_failure(lat: FinLattice, box: Sequence[int],
                           box_i: Sequence[int]) -> Optional[dict]:
    if not all(lat.leq(box[a], box_i[a]) for a in range(lat.n)):
        return {"side": "box", "reason": "closure map not dominating",
                "map": list(box_i)}
    if not (_is_monotone(lat, box_i) and _box_qualifies(lat, box_i)):
        return {"side": "box", "reason": "closure map fails its own laws",
                "map": list(box_i)}
    for g in _dominated_maps(lat, box, below=False):
        if not _box_qualifies(lat, g):
            continue
        if not all(lat.leq(box_i[a], g[a]) for a in range(lat.n)):
            return {"side": "box", "reason": "smaller qualifying map",
                    "map": list(g)}
    return None


class _ExtremalityTables:
    """Closure-extremality tables of one lattice carrier, filled as
    diamonds and boxes are met."""

    __slots__ = ("lat", "dia_of", "box_of", "_qualifying", "_closures",
                 "_box_bounds")

    def __init__(self, lat: FinLattice, dd: Sequence[bool], ud: Sequence[bool]):
        self.lat = lat
        self.dia_of = [lat.meet_all(m) if dd[m] else None for m in range(len(dd))]
        self.box_of = [lat.join_all(m) if ud[m] else None for m in range(len(ud))]
        self._qualifying: dict = {}  # system i or "box" -> qualifying maps
        self._closures: dict = {}    # (i, dia) -> (box_i, verdict short of the box bounds)
        self._box_bounds: dict = {}  # box -> meet of qualifying maps above it

    def qualifying(self, key) -> list[tuple[int, ...]]:
        """Monotone maps with the laws of diamond system ``key`` (1..4),
        or of the box side when ``key`` is ``"box"``."""
        maps = self._qualifying.get(key)
        if maps is None:
            lat = self.lat
            monotone = _dominated_maps(lat, [lat.top] * lat.n, below=True)
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
            dia_i = [lat.meet_all(r) for r in closed.rows]
            box_i = tuple(lat.join_all(c) for c in closed.cols)
            join = lat.join
            largest = [lat.bot] * lat.n
            for f in self.qualifying(i):
                if _pointwise_leq(lat, f, dia):
                    largest = [join[x][y] for x, y in zip(largest, f)]
            ok = (_pointwise_leq(lat, dia_i, dia) and _is_monotone(lat, dia_i)
                  and _diamond_qualifies(lat, dia_i, i)
                  and _pointwise_leq(lat, largest, dia_i))
            if i in (1, 2):
                ok = ok and _is_monotone(lat, box_i) and _box_qualifies(lat, box_i)
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


def _extremality_tables(S: ProtoSubAlg) -> _ExtremalityTables:
    tables = _carrier_tables(S)
    got = tables.get("extremality")
    if got is None:
        got = tables["extremality"] = _ExtremalityTables(
            S.lattice, tables["dd"], tables["ud"])
    return got


def _require_small_distributive(S: ProtoSubAlg) -> FinLattice:
    if S.n > _N_CAP:
        raise TooLarge(f"map enumeration on {S.n} elements")
    lat = S.lattice
    if lat is None or not lat.is_distributive:
        raise MissingStructure("closure extremality",
                               "a bounded distributive lattice carrier")
    return lat


def extremal_from_tables(S: ProtoSubAlg, i: int) -> bool:
    """Whether both closure-``i`` operators of a directed instance are
    extremal, read off the carrier's tables."""
    lat = _require_small_distributive(S)
    t = _extremality_tables(S)
    dia = tuple([t.dia_of[r] for r in S.rows])
    box = tuple([t.box_of[c] for c in S.cols])
    if None in dia or None in box:
        raise MissingStructure("closure extremality", "a directed instance")
    box_i, ok = t.closure(S, i, dia)
    if ok and i in (1, 2):
        ok = (_pointwise_leq(lat, box, box_i)
              and _pointwise_leq(lat, box_i, t.box_bound(box)))
    return ok


def verify_prop41(S: ProtoSubAlg, i: int) -> tuple[bool, Optional[dict]]:
    """Confirm extremality of both closure-``i`` operators on a directed
    instance from the carrier's tables; on failure, the verdict and
    witness of ``verify_by_enumeration``."""
    if extremal_from_tables(S, i):
        return True, None
    return verify_by_enumeration(S, i)


def verify_by_enumeration(S: ProtoSubAlg, i: int) -> tuple[bool, Optional[dict]]:
    """Confirm extremality of both closure-``i`` operators on a directed
    instance by exhaustive map enumeration."""
    lat = _require_small_distributive(S)
    if not (property_holds(S, Property.DD) and property_holds(S, Property.UD)):
        raise MissingStructure("closure extremality", "a directed instance")
    ext = dm_completion(lat)
    sa = build_slanted(S, ext)
    sai = build_slanted(close_i(S, i), ext)
    bad = diamond_maximality_failure(lat, sa.dia, sai.dia, i)
    if bad is not None:
        return False, bad
    if i in (1, 2):
        bad = box_minimality_failure(lat, sa.box, sai.box)
        if bad is not None:
            return False, bad
    return True, None
