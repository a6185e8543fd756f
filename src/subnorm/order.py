"""Finite posets, lattices and Boolean algebras over dense integer carriers.

Elements are the indices ``0..n-1``.  The order is stored row-wise as
bitmasks (``up[a]`` has bit ``b`` set iff ``a <= b``), which keeps pair
tests O(1) and lets closures and subset sweeps run bit-parallel; that is
what makes exhaustive enumeration over all ``2^(n*n)`` relations on a
carrier practical.  Subsets of the carrier are plain ``int`` bitmasks
throughout the package.

Two kinds of law are stated here once for the whole package, each as
one witness-returning check: the five laws of a subset
(``subset_law_failure``: up-closed, down- and up-directed, meet- and
join-closed), which the subordination rules WO, DD, UD, AND and OR
demand of every row or column of a relation, and the four negation
laws (``negation_law_failure``).  ``subset_tables`` tabulates the three
order laws over every subset of a small carrier, and ``mask_meet_join``
the meet and the join of every subset of a small lattice.  ``opposite``
is the order dual of a lattice, ``prime_filters`` the principal filters
of its join-irreducibles, and ``image`` the image of a subset under a
relation given by bitmask rows.

All structures are immutable after construction and safe to share
between workers.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    InputFormatError,
    NotALattice,
    NotBounded,
    NotDistributive,
    PosetLawViolation,
    TooManyVariables,
)


_TABLE_CAP = 10  # tables over all 2^n subsets stop being cheap beyond this


def _set_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bit_lists(width: int) -> tuple[tuple[int, ...], ...]:
    """Entry ``m`` lists the set bits of ``m``, ascending, for every mask
    of ``width`` bits: built by doubling, the masks with bit ``i`` set
    being those below ``2^i`` with ``i`` appended."""
    table = [()]
    for i in range(width):
        table += [t + (i,) for t in table]
    return tuple(table)


_BITS = _bit_lists(_TABLE_CAP)


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending; read off ``_BITS`` for a mask of
    at most ``_TABLE_CAP`` bits."""
    if 0 <= mask < 1 << _TABLE_CAP:
        return iter(_BITS[mask])
    return _set_bits(mask)


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """The transpose of a square bitmask matrix: bit ``i`` of entry ``j``
    is bit ``j`` of ``rows[i]``."""
    cols = [0] * len(rows)
    for i, r in enumerate(rows):
        for j in bits(r):
            cols[j] |= 1 << i
    return tuple(cols)


def image(rows: Sequence[int], mask: int) -> int:
    """The image of the subset ``mask`` under the bitmask rows ``rows``:
    the union of the rows of its members."""
    out = 0
    for a in bits(mask):
        out |= rows[a]
    return out


class FinPoset:
    """Finite partial order.

    ``up[a]`` is the bitmask of elements above-or-equal ``a`` (including
    ``a`` itself).  The constructor trusts its input; use
    :func:`validate_poset` for unchecked matrices.
    """

    __slots__ = ("n", "up", "down", "labels", "_tables")

    def __init__(self, up: Sequence[int], labels: Optional[Sequence[str]] = None):
        self.n = len(up)
        self.up = tuple(up)
        self.down = transpose(self.up)
        self.labels = tuple(labels) if labels is not None else None
        self._tables = None  # lazy per-carrier lookup tables, see subset_tables

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinPoset) and self.up == other.up

    def __hash__(self) -> int:
        return hash(self.up)

    def __repr__(self) -> str:
        return f"FinPoset(n={self.n})"


def validate_poset(matrix: Sequence[Sequence[object]],
                   labels: Optional[Sequence[str]] = None) -> FinPoset:
    """Build a poset from an n*n truth matrix, checking the order laws.

    Raises :class:`PosetLawViolation` naming the first offending pair or
    triple in index order.
    """
    if not (isinstance(matrix, (list, tuple)) and all(
            isinstance(row, (list, tuple)) and len(row) == len(matrix)
            and all(x in (0, 1) for x in row) for row in matrix)):
        raise InputFormatError("order matrix must be a square list of 0/1 rows")
    n = len(matrix)
    up = [mask_of(b for b in range(n) if matrix[a][b]) for a in range(n)]
    for a in range(n):
        if not up[a] >> a & 1:
            raise PosetLawViolation("reflexivity", (a,))
    for a in range(n):
        for b in bits(up[a]):
            if a != b and up[b] >> a & 1:
                raise PosetLawViolation("antisymmetry", (a, b))
    for a in range(n):
        for b in bits(up[a]):
            if up[a] | up[b] != up[a]:
                c = next(c for c in bits(up[b] & ~up[a]))
                raise PosetLawViolation("transitivity", (a, b, c))
    return FinPoset(up, labels)


def poset_from_hasse(n: int, pairs: Iterable[tuple[int, int]],
                     labels: Optional[Sequence[str]] = None) -> FinPoset:
    """Reflexive-transitive closure of covering pairs ``i < j``."""
    up = [1 << a for a in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise InputFormatError(f"hasse pair {(i, j)} out of range")
        up[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for a in range(n):
            acc = image(up, up[a])
            if acc != up[a]:
                up[a] = acc
                changed = True
    return validate_poset([[bool(up[a] >> b & 1) for b in range(n)] for a in range(n)], labels)


class FinLattice:
    """Bounded lattice over a :class:`FinPoset` carrier.

    ``meet``/``join`` are full n*n element tables.  ``is_distributive``
    and ``is_boolean`` are decided at construction; ``neg`` is the
    complement table when the lattice is Boolean, or any caller-supplied
    negation table otherwise.
    """

    __slots__ = ("poset", "meet", "join", "bot", "top",
                 "is_distributive", "is_boolean", "neg", "_memo")

    def __init__(self, poset: FinPoset, meet, join, bot: int, top: int,
                 is_distributive: bool, is_boolean: bool,
                 neg: Optional[Sequence[int]] = None):
        self.poset = poset
        self.meet = tuple(tuple(row) for row in meet)
        self.join = tuple(tuple(row) for row in join)
        self.bot = bot
        self.top = top
        self.is_distributive = is_distributive
        self.is_boolean = is_boolean
        self.neg = tuple(neg) if neg is not None else None
        # data derived from the lattice alone, built on first use and kept
        # with it, so it goes when the lattice goes: the walk of
        # subordination.close, the closure-generated corpora and the opposite
        self._memo = {}

    @property
    def n(self) -> int:
        return self.poset.n

    def leq(self, a: int, b: int) -> bool:
        return self.poset.leq(a, b)

    def label(self, i: int) -> str:
        return self.poset.label(i)

    def meet_all(self, mask: int) -> int:
        """Meet of a subset; the empty meet is top."""
        acc = self.top
        for x in bits(mask):
            acc = self.meet[acc][x]
        return acc

    def join_all(self, mask: int) -> int:
        """Join of a subset; the empty join is bottom."""
        acc = self.bot
        for x in bits(mask):
            acc = self.join[acc][x]
        return acc

    def with_neg(self, neg: Sequence[int]) -> "FinLattice":
        return FinLattice(self.poset, self.meet, self.join, self.bot, self.top,
                          self.is_distributive, self.is_boolean, neg)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FinLattice) and self.poset == other.poset
                and self.meet == other.meet and self.neg == other.neg)

    def __hash__(self) -> int:
        return hash((self.poset, self.meet, self.neg))

    def __repr__(self) -> str:
        return f"FinLattice(n={self.n})"


def _greatest_of(p: FinPoset, mask: int) -> Optional[int]:
    for m in bits(mask):
        if mask & ~p.down[m] == 0:
            return m
    return None


def _least_of(p: FinPoset, mask: int) -> Optional[int]:
    for m in bits(mask):
        if mask & ~p.up[m] == 0:
            return m
    return None


def to_lattice(p: FinPoset) -> FinLattice:
    """Compute meet/join tables, bounds and structural flags.

    Raises :class:`NotALattice` at the first pair (index order) lacking a
    greatest lower or least upper bound, and :class:`NotBounded` if the
    poset has no global bottom/top (a finite lattice always has both once
    all pairs have bounds, so this only triggers on the empty carrier).
    """
    n = p.n
    if n == 0:
        raise NotBounded("empty carrier has no bounds")
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            g = _greatest_of(p, p.down[a] & p.down[b])
            if g is None:
                raise NotALattice("greatest lower bound", (a, b))
            l = _least_of(p, p.up[a] & p.up[b])
            if l is None:
                raise NotALattice("least upper bound", (a, b))
            meet[a][b] = meet[b][a] = g
            join[a][b] = join[b][a] = l
    bot = next(a for a in range(n) if p.up[a] == (1 << n) - 1)
    top = next(a for a in range(n) if p.down[a] == (1 << n) - 1)
    distributive = all(
        meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
        for a in range(n) for b in range(n) for c in range(n))
    neg = None
    boolean = False
    if distributive:
        comp = []
        for a in range(n):
            c = next((b for b in range(n)
                      if meet[a][b] == bot and join[a][b] == top), None)
            if c is None:
                break
            comp.append(c)
        else:
            boolean = True
            neg = comp
    return FinLattice(p, meet, join, bot, top, distributive, boolean, neg)


def join_irreducibles(L: FinLattice) -> int:
    """Bitmask of non-bottom elements ``x`` with ``x = a v b  =>  x in {a, b}``.

    On a finite distributive lattice these coincide with the completely
    join-prime elements.  The meet-irreducibles are the join-irreducibles
    of ``opposite(L)``.
    """
    out = 0
    for x in range(L.n):
        if x == L.bot:
            continue
        if all(x in (a, b)
               for a in bits(L.poset.down[x]) for b in bits(L.poset.down[x])
               if L.join[a][b] == x):
            out |= 1 << x
    return out


def opposite(L: FinLattice) -> FinLattice:
    """The order dual of ``L``: the same elements with ``up``/``down``,
    ``meet``/``join`` and ``bot``/``top`` swapped, keeping the flags and
    the negation.  Built once and kept with ``L``; its opposite is ``L``
    itself."""
    if "opposite" not in L._memo:
        dual = FinLattice(FinPoset(L.poset.down, L.poset.labels), L.join, L.meet,
                          L.top, L.bot, L.is_distributive, L.is_boolean, L.neg)
        dual._memo["opposite"] = L
        L._memo["opposite"] = dual
    return L._memo["opposite"]


def prime_filters(L: FinLattice) -> list[int]:
    """All proper filters ``P`` with ``a v b in P  =>  a in P or b in P``,
    as bitmasks in ascending numeric order.

    On a finite distributive lattice these are exactly the principal
    filters ``up[j]`` of the join-irreducibles ``j`` (each prime filter
    is the principal filter of its meet, which is join-prime); the
    enumeration over all subsets is ``tests/oracles.py::prime_filters_oracle``.
    """
    if not L.is_distributive:
        raise NotDistributive("prime filters computed on distributive lattices only")
    return sorted(L.poset.up[j] for j in bits(join_irreducibles(L)))


def is_monotone(f: Sequence[int], dom: FinPoset, cod: FinPoset) -> bool:
    """``a <= b`` in ``dom`` forces ``f[a] <= f[b]`` in ``cod``."""
    up = cod.up
    return all(up[f[a]] >> f[b] & 1 for a in range(dom.n) for b in bits(dom.up[a]))


def subset_law_failure(carrier: FinPoset | FinLattice, mask: int, law: str) -> Optional[tuple]:
    """First pair, in index order, at which the subset ``mask`` of the
    carrier (a poset or lattice) breaks ``law``; None when it holds.

    ``up-closed``: ``x`` in the subset and ``x <= y`` force ``y`` in it,
    witness ``(x, y)``;
    ``down-directed``/``up-directed``: every two members ``x, y`` have a
    lower/upper bound in the subset, witness ``(x, y)`` (so the empty
    subset is directed);
    ``meet-closed``/``join-closed`` (lattices only): every two members
    have their meet/join in the subset, witness ``(x, y)``.
    """
    p = carrier if isinstance(carrier, FinPoset) else carrier.poset
    if law == "up-closed":
        return next(((x, y) for x in bits(mask) for y in bits(p.up[x] & ~mask)), None)
    members = list(bits(mask))
    if law == "down-directed" or law == "up-directed":
        bound = p.down if law == "down-directed" else p.up
        return next(((x, y) for x in members for y in members
                     if not bound[x] & bound[y] & mask), None)
    if law == "meet-closed" or law == "join-closed":
        op = carrier.meet if law == "meet-closed" else carrier.join
        return next(((x, y) for x in members for y in members
                     if not mask >> op[x][y] & 1), None)
    raise ValueError(f"unknown subset law {law!r}")


#: the subset laws of the order alone, tabulated by ``subset_tables``
ORDER_LAWS = ("up-closed", "down-directed", "up-directed")


def subset_tables(p: FinPoset) -> Optional[dict]:
    """Lookup tables over all ``2^n`` subset masks of a small carrier
    (``n <= 10``), built on first use and kept in ``p._tables``; None on
    larger carriers.

    ``tables[law][m]`` says whether mask ``m`` obeys each of the
    ``ORDER_LAWS`` (``subset_law_failure`` decides each mask once), and
    ``tables["nonempty down-directed"]`` lists the nonempty down-directed
    masks in ascending order.  Other modules keep their own per-carrier
    tables in the same dict.
    """
    if p.n > _TABLE_CAP:
        return None
    if p._tables is None:
        masks = range(1 << p.n)
        t = p._tables = {law: [subset_law_failure(p, m, law) is None for m in masks]
                         for law in ORDER_LAWS}
        t["nonempty down-directed"] = [m for m in masks[1:] if t["down-directed"][m]]
    return p._tables


def mask_meet_join(lat: FinLattice) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """``(meet, join)``: the meet and the join of a subset mask of the
    lattice (the empty meet is the top, the empty join the bottom).  On
    a carrier small enough for ``subset_tables`` both are read off
    tables over all ``2^n`` masks, built on first use and kept with
    those; above that they are ``lat.meet_all`` and ``lat.join_all``."""
    tables = subset_tables(lat.poset)
    if tables is None:
        return lat.meet_all, lat.join_all
    if "meet and join" not in tables:
        masks = range(1 << lat.n)
        tables["meet and join"] = (list(map(lat.meet_all, masks)).__getitem__,
                                   list(map(lat.join_all, masks)).__getitem__)
    return tables["meet and join"]


def negation_law_failure(p: FinPoset, neg: Sequence[int],
                         law: str) -> Optional[tuple]:
    """First instance, in index order, at which ``neg`` breaks ``law``
    on ``p``; None when the law holds.

    ``antitone``: ``a <= b`` forces ``~b <= ~a``, witness ``(a, b)``;
    ``involutive``: ``~~a = a``, witness ``(a,)``;
    ``left-self-adjunction``: ``~a <= b`` iff ``~b <= a``, witness ``(a, b)``;
    ``right-self-adjunction``: ``a <= ~b`` iff ``b <= ~a``, witness ``(a, b)``.
    """
    n, leq = p.n, p.leq
    if law == "antitone":
        bad = ((a, b) for a in range(n) for b in bits(p.up[a])
               if not leq(neg[b], neg[a]))
    elif law == "involutive":
        bad = ((a,) for a in range(n) if neg[neg[a]] != a)
    elif law == "left-self-adjunction":
        bad = ((a, b) for a in range(n) for b in range(n)
               if leq(neg[a], b) != leq(neg[b], a))
    elif law == "right-self-adjunction":
        bad = ((a, b) for a in range(n) for b in range(n)
               if leq(a, neg[b]) != leq(b, neg[a]))
    else:
        raise ValueError(f"unknown negation law {law!r}")
    return next(bad, None)


_FREE_BA_CAP = 3


@lru_cache(maxsize=None)
def free_boolean_algebra(k: int) -> tuple[FinLattice, tuple[int, ...]]:
    """Free Boolean algebra on ``k`` generators as truth-table bitvectors.

    Element ``i`` *is* its truth table over the ``2^k`` valuations, so
    meet/join/complement are bitwise ops and the order is bitmask
    inclusion.  Generator ``g`` maps to its projection table.  Capped at
    ``k = 3`` (256 elements); larger requests are rejected outright, the
    relation matrices above that would be astronomically large.
    """
    if not 0 <= k <= _FREE_BA_CAP:
        raise TooManyVariables(k, _FREE_BA_CAP)
    m = 1 << k          # valuations
    n = 1 << m          # elements = truth tables
    full = n - 1
    up = [0] * n
    for a in range(n):
        rest = full & ~a
        s = rest
        acc = 1 << (a | rest)
        while s:
            s = (s - 1) & rest
            acc |= 1 << (a | s)
            if s == 0:
                break
        up[a] = acc | 1 << a
    poset = FinPoset(up)
    meet = [[a & b for b in range(n)] for a in range(n)]
    join = [[a | b for b in range(n)] for a in range(n)]
    neg = [full ^ a for a in range(n)]
    lat = FinLattice(poset, meet, join, 0, full, True, True, neg)
    gens = []
    for g in range(k):
        gens.append(mask_of(v for v in range(m) if v >> g & 1))
    return lat, tuple(gens)


# ---------------------------------------------------------------------------
# JSON interchange
#
# Algebra JSON is either {"elements": [...], "leq": [[0/1,...],...]} or
# {"hasse": [[i,j],...]} (reflexive-transitive closure applied), with an
# optional "neg" table.  Indices refer to positions in "elements".
# ---------------------------------------------------------------------------

def load_json(path: str):
    """Parse a JSON file; a file that is not UTF-8 JSON is an
    InputFormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise InputFormatError(f"{path} is not JSON: {exc}") from None


def index_pairs(obj, key: str) -> list[tuple[int, int]]:
    """The ``[i, j]`` integer pairs listed under ``key``."""
    if not isinstance(obj, (list, tuple)):
        raise InputFormatError(f'"{key}" must be a list of [i, j] pairs')
    for x in obj:
        if not (isinstance(x, (list, tuple)) and len(x) == 2
                and all(type(i) is int for i in x)):
            raise InputFormatError(f'"{key}" entry {x!r} is not a pair of integers')
    return [(i, j) for i, j in obj]


def poset_from_json(obj: dict) -> tuple[FinPoset, Optional[tuple[int, ...]]]:
    if not isinstance(obj, dict):
        raise InputFormatError("algebra JSON must be an object")
    labels = obj.get("elements")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(x, str) for x in labels)):
        raise InputFormatError('"elements" must be a list of names')
    if "leq" in obj:
        leq = obj["leq"]
        # JSON true/false and 1.0/0.0 compare equal to 1/0; only integers
        # are order-matrix entries
        if not (isinstance(leq, list) and all(
                isinstance(row, list) and all(type(x) is int for x in row) for row in leq)):
            raise InputFormatError("order matrix must be a square list of 0/1 rows")
        p = validate_poset(leq, labels)
    elif "hasse" in obj:
        pairs = index_pairs(obj["hasse"], "hasse")
        if labels is not None:
            n = len(labels)
        else:
            n = 1 + max((max(i, j) for i, j in pairs), default=-1)
        p = poset_from_hasse(n, pairs, labels)
    else:
        raise InputFormatError('algebra JSON needs "leq" or "hasse"')
    if labels is not None and len(labels) != p.n:
        raise InputFormatError(f'"elements" names {len(labels)} elements, '
                               f'the order has {p.n}')
    neg = obj.get("neg")
    if neg is not None:
        if not (isinstance(neg, list) and len(neg) == p.n
                and all(type(x) is int and 0 <= x < p.n for x in neg)):
            raise InputFormatError('"neg" must map every element index')
        neg = tuple(neg)
    return p, neg


def lattice_from_json(obj: dict) -> FinLattice:
    p, neg = poset_from_json(obj)
    lat = to_lattice(p)
    if neg is not None:
        lat = lat.with_neg(neg)
    return lat


def poset_to_json(p: FinPoset, neg: Optional[Sequence[int]] = None) -> dict:
    out = {
        "elements": [p.label(i) for i in range(p.n)],
        "leq": [[1 if p.leq(a, b) else 0 for b in range(p.n)] for a in range(p.n)],
    }
    if neg is not None:
        out["neg"] = list(neg)
    return out


def lattice_to_json(L: FinLattice) -> dict:
    return poset_to_json(L.poset, L.neg)
