"""The built-in catalog of verification checks.

Each entry ties a first-order property of the relation to a statement
about the induced operators (an operator law, an inequality evaluated
in the carrier, a dual-space condition, or an extremality claim) and
says whether the link is an equivalence or a one-directional
implication.  One-sided statements stay one-sided here; equivalences
are claimed only where they hold under the entry's preconditions.

The runner (``run``) decides each precondition per instance:
instances failing it are *skipped*, the others have the check decided,
and a check that skips the whole corpus is a configuration error rather
than a pass.  A check is data: every precondition and every side of an
``iff`` or ``implies`` check is a flag mask (an ``int``, built by
``_flags``, ``_inequalities``, ``_monotone`` or ``_rel_cond``), and a
``law`` is a mask or a body.  The runner decides every mask from the
instance's flag bits (``run._decide``) and runs only the bodies.  A
mask's bits are property flags and the bits of ``FLAG_BITS``, one owner per
fact: the ``Local`` sides (seriality of the rows and of the columns
among them), the conditions on the carrier alone (``CarrierCondition``),
which every instance starts with settled, the ``Fact`` of each
operator law that one instance decides on its own: each compiled
inequality that is not local, the monotonicity of ``<>`` and of ``[]``,
and each dual-space condition (``RelCondition``), and the four
``Extremal`` bits of closure extremality, decided together
(``extremal_flags``).  Each is decided at most once per instance,
however many checks state it: additivity of ``<>`` is the rhs of five
checks.

Fourteen checks are local: the diamond of an element is the meet of its
row and the box the join of its column (``order.mask_meet_join``), so
each of their sides is a conjunction of one test per row or per column.
Each such side is stated once, as a ``Local`` test of (index, mask,
operator value): the catalog inequalities that the compiler marks local
(``a <= <>a``, ``[]a <= a``, ``<>a <= a``, ``<>F <= F``, ``T <= []T``;
see ``_local_side``) and the laws ``bounds-of-related-pairs`` (one row
test and one column test), ``diamond-detects-rel`` (a row test) and
``box-detects-rel`` (a column test).  Each ``Local`` owns a flag bit.
``local_tables`` is the one local table of a carrier: one loop over
every index and every one of the ``2^n`` masks tabulates the ten tests
of ``subordination.LOCAL_TESTS``, SI's column law and every ``Local``
side, so the runner decides the ten local flags, SI and all these sides
in one ``local_flags`` pass of ``2n`` lookups per instance and each such
side is a mask test, like a flag.  Above ``order._TABLE_CAP`` each side
applies the same test to each row or column directly (``Local.holds``).
The four remaining local checks (``and-implies-downdirected``,
``or-implies-updirected``, ``downdirected-iff-and-under-wo``,
``updirected-iff-or-under-si``) have only local-flag sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, NamedTuple, Optional, Union

from .. import duality
from ..completion import dm_completion, extend_negation_pi, extend_negation_sigma
from ..duality import RelCondition
from ..order import (bits, image, is_monotone, negation_law_failure, opposite,
                     subset_law_failure, subset_tables)
from ..subordination import (FLAG_PROPERTIES, LOCAL_FLAGS, LOCAL_TESTS, SUBORDINATION_RULES,
                             flag_mask)
from ..subordination import Property as P
from ..syntax import evaluate, parse_inequality, subterms, term_variables
from .maximality import _N_CAP, verify_prop41

_SUBSET_SCAN_CAP = 8


def _flags(*owners) -> int:
    """The mask of a conjunction of properties and owners of ``FLAG_BITS``."""
    mask = 0
    for o in owners:
        mask |= o.bit if isinstance(o, FlagBit) else flag_mask(o)
    return mask


@dataclass(frozen=True)
class CheckSpec:
    """One verifiable statement.

    ``mode`` is ``iff`` (lhs must equal rhs), ``implies`` (rhs must hold
    whenever lhs does) or ``law`` (a single statement must hold).
    ``precondition``, ``lhs`` and ``rhs`` are flag masks, each holding
    when every bit in it is True; a ``law`` is a flag mask too, or else a
    body, a predicate of the instance.  ``scope`` is ``relation``
    (decided per instance) or ``carrier`` (decided once per carrier).
    """

    name: str
    doc: str
    mode: str
    precondition: int = 0
    lhs: Optional[int] = None
    rhs: Optional[int] = None
    law: Union[int, Callable, None] = None
    scope: str = "relation"


# ---- flag bits above the property flags ---------------------------------

#: every owner of a flag bit above the property flags: the one at
#: position ``i`` owns bit ``len(FLAG_PROPERTIES) + i``.  It grows only as
#: owners are stated: the catalog's at import, and an inequality's side
#: when its text is first compiled.  A carrier's local table decides
#: the ``Local`` sides stated before it was built (its ``table_bits``); a
#: later side is tested directly.
FLAG_BITS: list["FlagBit"] = []


class FlagBit:
    """The owner of the next bit of ``FLAG_BITS``.  An owner that an
    instance decides has ``holds(inst)``, which ``run.Instance`` calls at
    most once per instance.  ``text`` is the inequality the bit decides,
    as written, or None."""

    __slots__ = ("bit", "text")

    def __init__(self):
        self.bit = 1 << (len(FLAG_PROPERTIES) + len(FLAG_BITS))
        self.text = None
        FLAG_BITS.append(self)


class CarrierCondition(FlagBit):
    """A condition on the carrier alone: ``test(ctx)`` of its
    ``CarrierContext``, decided once per context (``carrier_bits``)."""

    __slots__ = ("test",)

    def __init__(self, test: Callable):
        super().__init__()
        self.test = test


def carrier_bits(ctx) -> tuple[int, int]:
    """``(settled, held)``: the bits that the carrier alone settles (its
    ``missing`` flags, false, and every ``CarrierCondition``) and those of
    them that hold."""
    conditions = [c for c in FLAG_BITS if isinstance(c, CarrierCondition)]
    return (ctx.missing | sum(c.bit for c in conditions),
            sum(c.bit for c in conditions if c.test(ctx)))


class Fact(FlagBit):
    """A law of one instance's operators or dual space, ``test(inst)``:
    decided as the flag bit ``bit`` the first time a side reads it."""

    __slots__ = ("test",)

    def __init__(self, test: Callable):
        super().__init__()
        self.test = test

    def holds(self, inst) -> bool:
        return self.test(inst)


# ---- sides of the local checks: one test per row or per column ----------

def _operator(ctx, side: str) -> Callable[[int], int]:
    """The operator value read off a row mask (the diamond: the meet of
    the row) or a column mask (the box: the join of the column)."""
    return ctx.mask_meet if side == "rows" else ctx.mask_join


class Local(FlagBit):
    """A side that holds exactly when every row (``side == "rows"``) or
    every column (``"cols"``) passes ``test(ctx, a, m, v)``: the row or
    column at index ``a`` is the mask ``m`` and the operator there is
    ``v`` (``<>a`` on rows, ``[]a`` on columns), read from the carrier's
    ``CarrierContext`` ``ctx``.  Decided as the flag bit ``bit``.  A side
    with ``reads_mask`` false reads only ``a`` and ``v`` (its test gets
    None for ``m``), so its table is built once per (index, value)."""

    __slots__ = ("side", "test", "reads_mask")

    def __init__(self, side: str, test: Callable, reads_mask: bool = True):
        super().__init__()
        self.side = side
        self.test = test
        self.reads_mask = reads_mask

    def holds(self, inst) -> bool:
        """The side on the instance, testing each row or column directly
        (above the table cap, or for a side stated after the table)."""
        ctx, S = inst.ctx, inst.S
        value = _operator(ctx, self.side)
        return all(self.test(ctx, a, m, value(m))
                   for a, m in enumerate(S.rows if self.side == "rows" else S.cols))


#: a flag the local table decides beside ``subordination.LOCAL_TESTS``:
#: SI holds exactly when every column is down-closed, WO's up-closed law
#: read on the order dual.  Only the verdict is tabulated, so SI stays
#: out of ``LOCAL_TESTS``: its witness, the first ``(a, b, x)``, is the
#: one ``subordination._sweep`` finds.
_TABLE_TESTS = {P.SI: ("cols", "down-closed")}


def local_tables(ctx) -> Optional[tuple[int, tuple, tuple]]:
    """``(bits, rowsig, colsig)``: the local table of the context's
    lattice, built on first use and kept with its ``order.subset_tables``;
    None above the table cap.

    ``rowsig[a][m]`` holds the row-local bits that row mask ``m`` passes
    at index ``a``: the flags of ``subordination.LOCAL_TESTS`` and the
    ``Local`` row sides; ``colsig`` the same for columns, with SI's bit
    where the column mask is down-closed (``_TABLE_TESTS``).  A subset
    law is decided once per mask (read from the order-law tables where
    they have it; ``down-closed`` is ``up-closed`` on ``order.opposite``),
    a side that reads only the operator value once per (index, value),
    every other test once per (index, mask).  Each entry also holds every
    bit of the other side, so the AND of ``bits`` and the entries of a
    relation's rows and columns (``local_flags``) is its verdicts.
    ``bits`` are the ten local flags, SI and the sides stated before the
    table was built."""
    tables = subset_tables(ctx.lat.poset)
    if tables is None:
        return None
    if "local" not in tables:
        tables["local"] = _build_local_tables(ctx, tables)
    return tables["local"]


def _build_local_tables(ctx, tables: dict) -> tuple[int, tuple, tuple]:
    lat = ctx.lat
    up, ends, masks = lat.poset.up, (lat.bot, lat.top), range(1 << lat.n)
    sides = [s for s in FLAG_BITS if isinstance(s, Local)]
    every = LOCAL_FLAGS | flag_mask(*_TABLE_TESTS) | sum(s.bit for s in sides)
    out = [every]
    for side in ("rows", "cols"):
        flags = [(flag_mask(q), test) for q, (s, test)
                 in (*LOCAL_TESTS.items(), *_TABLE_TESTS.items()) if s == side]
        laws = [(bit, tables.get(law) or _law_table(lat, law))
                for bit, law in flags if isinstance(law, str)]
        tests = [(bit, test) for bit, test in flags if not isinstance(test, str)]
        mine = [s for s in sides if s.side == side]
        other = every & ~sum(bit for bit, _ in flags) & ~sum(s.bit for s in mine)
        free = [other | sum(bit for bit, holds in laws if holds[m]) for m in masks]
        values = list(map(_operator(ctx, side), masks))
        by_mask = [s for s in mine if s.reads_mask]
        by_value = [s for s in mine if not s.reads_mask]
        sigs = []
        for a in range(lat.n):
            value_bits = {v: sum(s.bit for s in by_value if s.test(ctx, a, None, v))
                          for v in set(values)}
            sigs.append(tuple(
                free[m] | value_bits[values[m]]
                | sum(bit for bit, test in tests if test(up, ends, a, m) is None)
                | sum(s.bit for s in by_mask if s.test(ctx, a, m, values[m]))
                for m in masks))
        out.append(tuple(sigs))
    return tuple(out)


def _law_table(lat, law: str) -> list[bool]:
    """Whether each of the ``2^n`` subset masks obeys ``law``
    (``order.subset_law_failure``); ``down-closed`` is ``up-closed`` on
    the order dual."""
    if law == "down-closed":
        lat, law = opposite(lat), "up-closed"
    return [subset_law_failure(lat, m, law) is None for m in range(1 << lat.n)]


def local_flags(S, table: tuple[int, tuple, tuple]) -> int:
    """The bits of ``table`` (``local_tables``) that hold on ``S``: one
    lookup per row and per column."""
    acc, rowsig, colsig = table
    for sig, r in zip(rowsig, S.rows):
        acc &= sig[r]
    for sig, c in zip(colsig, S.cols):
        acc &= sig[c]
    return acc


# ---- conditions on the carrier, and seriality ----------------------------

_DISTRIBUTIVE = CarrierCondition(lambda ctx: ctx.lat.is_distributive)
_SMALL_ENOUGH_FOR_SUBSETS = CarrierCondition(lambda ctx: ctx.lat.n <= _SUBSET_SCAN_CAP)
_SMALL_ENOUGH_FOR_MAPS = CarrierCondition(lambda ctx: ctx.lat.n <= _N_CAP)


def _negation_obeys(p, neg, *laws: str) -> bool:
    """``neg`` is a negation table on ``p`` obeying every law of ``laws``
    (``order.negation_law_failure``)."""
    return neg is not None and all(negation_law_failure(p, neg, law) is None for law in laws)


def _involutive_adjoint_negation(ctx) -> bool:
    # an antitone involution is self-adjoint on both sides: ~a <= b gives
    # ~b <= ~~a = a, and dually
    p, neg = ctx.lat.poset, ctx.lat.neg
    return _negation_obeys(p, neg, "antitone", "involutive")


_INVOLUTIVE_ADJOINT_NEGATION = CarrierCondition(_involutive_adjoint_negation)

# every row (column) is nonempty: no diamond (box) value is vacuous
_DIA_SERIAL = Local("rows", lambda ctx, a, m, v: m != 0)
_BOX_SERIAL = Local("cols", lambda ctx, b, m, v: m != 0)


# ---- operator-side predicates -------------------------------------------

_MONOTONE = {"dia": Fact(lambda inst: is_monotone(inst.dia, inst.S.poset, inst.S.poset)),
             "box": Fact(lambda inst: is_monotone(inst.box, inst.S.poset, inst.S.poset))}


def _monotone(*operators) -> int:
    """The named base operators (``"dia"``, ``"box"``) are monotone."""
    return _flags(*(_MONOTONE[op] for op in operators))


# Operator inequalities are written as the paper states them, parsed once
# and evaluated by ``syntax.evaluate`` in the carrier, with the base dia,
# box and negation tables.  Every carrier is a lattice, so the carrier is
# its own completion, the lifted negation is the carrier's, and the
# sigma/pi extension of a monotone operator is the operator; an operator
# is nested inside another only under SI or WO, which make the nested
# one monotone.  The base reading needs no extension, so
# the inclusion characterisations stay meaningful on non-monotone
# instances, where sigma/pi are undefined.

@lru_cache(maxsize=None)
def _columns(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Per-variable columns of all ``n^k`` assignments in lexicographic
    order."""
    return tuple(zip(*product(range(n), repeat=k)))


class _Compiled(NamedTuple):
    holds: Callable  # the inequality on an instance, over every assignment
    side: FlagBit    # its flag bit: a row or column test, or else a Fact of holds


@lru_cache(maxsize=None)
def _compile_inequality(text: str) -> _Compiled:
    ineq = parse_inequality(text)
    names = tuple(term_variables(ineq.lhs, ineq.rhs))

    def leq(lat, dia, box, valuation, memo=None) -> bool:
        """The inequality under every assignment of ``valuation``, with
        ``dia``/``box`` as the operators' tables (``memo`` as in
        ``syntax.evaluate``)."""
        unary = {"dia": dia, "box": box, "not": lat.neg}
        up = lat.poset.up
        return all(up[u] >> v & 1
                   for u, v in zip(evaluate(ineq.lhs, valuation, lat, unary, memo),
                                   evaluate(ineq.rhs, valuation, lat, unary, memo)))

    def holds(inst) -> bool:
        # every text with these variables has this valuation, so their
        # subterms share one column per instance
        lat = inst.ctx.lat
        return leq(lat, inst.dia, inst.box, dict(zip(names, _columns(lat.n, len(names)))),
                   inst.terms.setdefault(names, {}))

    side = _local_side(ineq, names, leq) or Fact(holds)
    side.text = text
    return _Compiled(holds, side)


def _local_side(ineq, names: tuple[str, ...], leq) -> Optional[Local]:
    """The inequality as a ``Local`` side, when it has at most one
    variable, only one of ``<>``/``[]`` occurs, and every occurrence is
    applied to one and the same variable or constant: then an assignment
    reads the operator at one index only, the variable's value or the
    constant.  The test evaluates the inequality with the operator's
    table standing in as ``v``, the row's meet (the column's join), at
    every index: under ``x = a`` at index ``a``; under every assignment
    at a constant's own index, and vacuously elsewhere."""
    applied = {s for t in (ineq.lhs, ineq.rhs) for s in subterms(t) if s[0] in ("dia", "box")}
    if len(names) > 1 or len({s[0] for s in applied}) != 1:
        return None
    operands = {s[1] for s in applied}
    if len(operands) != 1:
        return None
    (operand,) = operands
    side = "rows" if next(iter(applied))[0] == "dia" else "cols"

    def at(ctx, v: int, valuation) -> bool:
        stand_in = (v,) * ctx.lat.n
        return leq(ctx.lat, stand_in, stand_in, valuation)

    if operand[0] == "var":
        return Local(side, lambda ctx, a, m, v: at(ctx, v, {names[0]: (a,)}), reads_mask=False)
    if operand[0] in ("top", "bot"):
        return Local(side, lambda ctx, a, m, v: (
            a != getattr(ctx.lat, operand[0])
            or at(ctx, v, dict(zip(names, _columns(ctx.lat.n, len(names)))))),
            reads_mask=False)
    return None


def _inequalities(*texts: str) -> int:
    """The conjunction of operator inequalities, each valid when it holds
    under every assignment of carrier elements to its variables: the
    mask of one flag bit per text (``_compile_inequality``), a ``Local``
    side when the compiler marks it local and a ``Fact`` evaluating it
    under every assignment otherwise.  One text is one bit however many
    conjunctions state it, and its owner keeps the text as written."""
    return _flags(*(_compile_inequality(t).side for t in texts))


_DIA_ADDITIVE = _inequalities("<>(a | b) <= <>a | <>b")
_BOX_MULTIPLICATIVE = _inequalities("[]a & []b <= [](a & b)")
_DIA_GROUNDED = _inequalities("<>F <= F")
_BOX_CAPPED = _inequalities("T <= []T")
_REGULAR = _DIA_ADDITIVE | _BOX_MULTIPLICATIVE | _inequalities(
    "<>a | <>b <= <>(a | b)", "[](a & b) <= []a & []b")
_NORMAL = _REGULAR | _DIA_GROUNDED | _BOX_CAPPED


# ---- laws quantified inside one instance ---------------------------------

# a rel b forces <>a <= b (every member of row a lies above <>a) and
# a <= []b (every member of column b lies below []b)
_REL_BOUNDS = _flags(Local("rows", lambda ctx, a, m, v: not m & ~ctx.lat.poset.up[v]),
                     Local("cols", lambda ctx, b, m, v: not m & ~ctx.lat.poset.down[v]))
# <>a <= b exactly when a rel b: row a is the elements above <>a
_DIA_DETECTS = _flags(Local("rows", lambda ctx, a, m, v: ctx.lat.poset.up[v] == m))
# a <= []b exactly when a rel b: column b is the elements below []b
_BOX_DETECTS = _flags(Local("cols", lambda ctx, b, m, v: ctx.lat.poset.down[v] == m))


def _law_directed_image(inst) -> bool:
    t = subset_tables(inst.S.poset)
    directed, img = t["down-directed"], inst.image
    return all(directed[img[m]] for m in t["nonempty down-directed"])


# The paper states the directed-family and bound-reflection laws in the
# canonical extension, over its closed and open elements, with <> and []
# as their sigma and pi extensions.  A finite lattice is its own
# canonical extension, every element closed and open, and each law's
# precondition makes its operator monotone, hence its own extension: so
# each law ranges over all elements and reads ``dia`` or ``box``.

def _law_dia_of_meet(inst) -> bool:
    # <> of a down-directed meet is the meet of the image (closed, as all are)
    meet, img, dia = inst.ctx.mask_meet, inst.image, inst.dia
    return all(dia[meet(m)] == meet(img[m])
               for m in subset_tables(inst.S.poset)["nonempty down-directed"])


# The bound-reflection laws ask for a rel-pair (a, b) with a above k and
# b below o.  The heads reached from above k are the union of the rows of
# the elements above k, so each law is one mask test per (k, b) or (k, o)
# family.

def _law_dia_bound_reflects(inst) -> bool:
    # <>k <= b forces b into the heads reached from above k, every k closed
    rows, dia, up = inst.S.rows, inst.dia, inst.S.poset.up
    return all(not up[dia[k]] & ~image(rows, up[k]) for k in range(inst.S.n))


def _law_dia_open_bound_reflects(inst) -> bool:
    # <>k <= o forces a head reached from above k below o, all k, o closed, open
    rows, dia, p = inst.S.rows, inst.dia, inst.S.poset
    up, down = p.up, p.down
    for k in range(inst.S.n):
        reach = image(rows, up[k])
        if any(not reach & down[o] for o in bits(up[dia[k]])):
            return False
    return True


# On the order dual of the carrier, with the converse relation, the box
# of the relation is the diamond of its converse (the join of a column is
# the dual meet of a row of the converse), up-directed sets are
# down-directed, preimages are images and open elements are closed ones.
# So each box-side law is its diamond-side law read on the instance's
# dual (``run.Instance.dual``).

def _on_dual(law: Callable) -> Callable:
    """The box-side law of a diamond-side ``law``: ``law`` read on the
    instance's dual."""
    return lambda inst: law(inst.dual)


# ---- dual-space sides -----------------------------------------------------

# ``duality.check_relational`` is looked up at each call, where a tracer
# may have replaced it
_REL_CONDITIONS = {c: Fact(lambda inst, c=c: duality.check_relational(inst.space, c)[0])
                   for c in RelCondition}


def _rel_cond(*conds: RelCondition) -> int:
    """The dual space meets every condition in ``conds``."""
    return _flags(*(_REL_CONDITIONS[c] for c in conds))


def _law_spaces_isomorphic(inst) -> bool:
    return duality.spaces_isomorphic(inst.space, inst.space_pf)[0]


# ---- closure extremality: four bits decided together --------------------

class Extremal(FlagBit):
    """Whether both closure-``i`` operators of a directed instance are
    extremal, for one system ``i``: one of the four consecutive bits
    ``EXTREMAL`` that ``extremal_flags`` decides together, once per
    instance."""

    __slots__ = ()


_EXTREMAL = [Extremal() for _ in range(4)]
EXTREMAL = _flags(*_EXTREMAL)


def extremal_flags(inst) -> int:
    """The bits of ``EXTREMAL`` that hold on a directed instance: the
    verdict mask of ``verify_prop41`` (bit ``i - 1`` for system ``i``),
    moved up to the first owner's bit.  ``verify_prop41`` is looked up at
    each call, where a tracer may have replaced it."""
    return verify_prop41(inst.S) * _EXTREMAL[0].bit


# ---- carrier-scoped: negation lifting laws --------------------------------

def _neg_lifting(lift, adjunction: str) -> dict:
    """Precondition and law of a negation-lifting check: on a carrier
    whose negation is antitone and satisfies ``adjunction``, the lifted
    table is antitone and satisfies ``adjunction`` too, and is involutive
    when the carrier's negation is.  (Under either adjunction ``~~`` is
    deflationary or inflationary on both sides, so involution is the only
    further law to carry over.)"""
    laws = ("antitone", adjunction)

    def precondition(ctx) -> bool:
        return _negation_obeys(ctx.lat.poset, ctx.lat.neg, *laws)

    def law(inst) -> bool:
        lat = inst.ctx.lat
        ext = dm_completion(lat)
        involutive = ("involutive",) if _negation_obeys(lat.poset, lat.neg, "involutive") else ()
        return _negation_obeys(ext.delta.poset, lift(ext, lat.neg), *laws, *involutive)

    return {"precondition": _flags(CarrierCondition(precondition)), "law": law}


# ---- preconditions shared by several checks ------------------------------

_DIA_DIRECTED = _flags(P.WO, P.DD, _DIA_SERIAL)
_BOX_DIRECTED = _flags(P.SI, P.UD, _BOX_SERIAL)
_DIA_CLASS = _flags(P.SI, P.DD, P.WO, _DIA_SERIAL)
_BOX_CLASS = _flags(P.SI, P.UD, P.WO, _BOX_SERIAL)
# Conjunction of the diamond-directed (WO+DD) and box-directed (SI+UD)
# classes, plus seriality both ways.  The transfer equivalences fail
# under bare DD+UD: the identity relation on the two-chain is directed
# and serial with both operators monotone, yet satisfies neither SI nor WO.
_BIDIRECTED = _flags(P.WO, P.DD, P.SI, P.UD, _DIA_SERIAL, _BOX_SERIAL)
# the S6 equivalences lean on both detection laws, so they need the full
# bidirected package, not bare DD+UD
_S6_PRE = _flags(P.WO, P.DD, P.SI, P.UD, _DIA_SERIAL, _BOX_SERIAL,
                 _INVOLUTIVE_ADJOINT_NEGATION)
_PROP41_PRE = _flags(P.DD, P.UD, _SMALL_ENOUGH_FOR_MAPS, _DISTRIBUTIVE)
_SUBORDINATION_PRE = _flags(*SUBORDINATION_RULES, _DISTRIBUTIVE)


CATALOG: tuple[CheckSpec, ...] = (
    # -- bounds and detection -------------------------------------------
    CheckSpec("bounds-of-related-pairs",
              "a rel b forces <>a <= b and a <= []b",
              "law", law=_REL_BOUNDS),
    CheckSpec("diamond-detects-rel",
              "under WO+DD, <>a <= b exactly when a rel b",
              "law", precondition=_DIA_DIRECTED,
              law=_DIA_DETECTS),
    CheckSpec("box-detects-rel",
              "under SI+UD, a <= []b exactly when a rel b",
              "law", precondition=_BOX_DIRECTED,
              law=_BOX_DETECTS),
    # -- directedness from the binary rules ------------------------------
    CheckSpec("or-implies-updirected", "OR forces UD on lattice carriers",
              "implies", lhs=_flags(P.OR), rhs=_flags(P.UD)),
    CheckSpec("and-implies-downdirected", "AND forces DD on lattice carriers",
              "implies", lhs=_flags(P.AND), rhs=_flags(P.DD)),
    CheckSpec("updirected-iff-or-under-si", "under SI, UD and OR coincide",
              "iff", precondition=_flags(P.SI),
              lhs=_flags(P.UD), rhs=_flags(P.OR)),
    CheckSpec("downdirected-iff-and-under-wo", "under WO, DD and AND coincide",
              "iff", precondition=_flags(P.WO),
              lhs=_flags(P.DD), rhs=_flags(P.AND)),
    # -- rules force operator laws ---------------------------------------
    CheckSpec("si-makes-diamond-monotone", "SI makes the diamond monotone",
              "implies", lhs=_flags(P.SI), rhs=_monotone("dia")),
    CheckSpec("and-makes-box-multiplicative-dl",
              "on distributive carriers, SI+AND force []a ^ []b <= [](a ^ b)",
              "implies", precondition=_flags(_DISTRIBUTIVE),
              lhs=_flags(P.SI, P.AND), rhs=_BOX_MULTIPLICATIVE),
    CheckSpec("and-makes-box-multiplicative-ud",
              "SI+UD+AND force []a ^ []b <= [](a ^ b)",
              "implies", lhs=_flags(P.SI, P.UD, P.AND), rhs=_BOX_MULTIPLICATIVE),
    CheckSpec("wo-makes-box-monotone", "WO makes the box monotone",
              "implies", lhs=_flags(P.WO), rhs=_monotone("box")),
    CheckSpec("or-makes-diamond-additive-dl",
              "on distributive carriers, WO+OR force <>(a v b) <= <>a v <>b",
              "implies", precondition=_flags(_DISTRIBUTIVE),
              lhs=_flags(P.WO, P.OR), rhs=_DIA_ADDITIVE),
    CheckSpec("or-makes-diamond-additive-dd",
              "WO+DD+OR force <>(a v b) <= <>a v <>b",
              "implies", lhs=_flags(P.WO, P.DD, P.OR), rhs=_DIA_ADDITIVE),
    CheckSpec("bot-rule-grounds-diamond", "the bottom rule forces <>F <= F",
              "implies", lhs=_flags(P.BOT), rhs=_DIA_GROUNDED),
    CheckSpec("top-rule-caps-box", "the top rule forces T <= []T",
              "implies", lhs=_flags(P.TOP), rhs=_BOX_CAPPED),
    # -- converses under directedness ------------------------------------
    CheckSpec("si-iff-diamond-monotone", "under WO+DD, SI = diamond monotone",
              "iff", precondition=_DIA_DIRECTED,
              lhs=_flags(P.SI), rhs=_monotone("dia")),
    CheckSpec("or-iff-diamond-additive",
              "under WO+DD, OR = diamond join-subadditivity",
              "iff", precondition=_DIA_DIRECTED,
              lhs=_flags(P.OR), rhs=_DIA_ADDITIVE),
    CheckSpec("bot-iff-diamond-grounded", "under WO+DD, the bottom rule = <>F <= F",
              "iff", precondition=_DIA_DIRECTED,
              lhs=_flags(P.BOT), rhs=_DIA_GROUNDED),
    CheckSpec("wo-iff-box-monotone", "under SI+UD, WO = box monotone",
              "iff", precondition=_BOX_DIRECTED,
              lhs=_flags(P.WO), rhs=_monotone("box")),
    CheckSpec("and-iff-box-multiplicative",
              "under SI+UD, AND = box meet-submultiplicativity",
              "iff", precondition=_BOX_DIRECTED,
              lhs=_flags(P.AND), rhs=_BOX_MULTIPLICATIVE),
    CheckSpec("top-iff-box-capped", "under SI+UD, the top rule = T <= []T",
              "iff", precondition=_BOX_DIRECTED,
              lhs=_flags(P.TOP), rhs=_BOX_CAPPED),
    # -- transfer of the named classes -----------------------------------
    CheckSpec("monotone-transfer",
              "on bidirected instances, SI+WO = both operators monotone",
              "iff", precondition=_BIDIRECTED,
              lhs=_flags(P.SI, P.WO), rhs=_monotone("dia", "box")),
    CheckSpec("regular-transfer",
              "on bidirected instances, the regular rule set = regular operators",
              "iff", precondition=_BIDIRECTED,
              lhs=_flags(P.SI, P.WO, P.OR, P.AND), rhs=_REGULAR),
    CheckSpec("normality-transfer",
              "on bidirected instances, the full rule set = normal operators",
              "iff", precondition=_BIDIRECTED,
              lhs=_flags(P.SI, P.WO, P.OR, P.AND, P.BOT, P.TOP),
              rhs=_NORMAL),
    # -- directed families through the operators -------------------------
    CheckSpec("directed-image-directed",
              "under SI+DD+WO, images of down-directed sets are down-directed",
              "law",
              precondition=_flags(P.SI, P.DD, P.WO, _SMALL_ENOUGH_FOR_SUBSETS),
              law=_law_directed_image),
    CheckSpec("diamond-of-meet",
              "under SI+DD+WO, <> of a directed meet is the meet over the image",
              "law",
              precondition=_flags(P.SI, P.DD, P.WO, _SMALL_ENOUGH_FOR_SUBSETS),
              law=_law_dia_of_meet),
    CheckSpec("diamond-bound-reflects",
              "under SI+DD+WO, <>k <= b reveals a rel-pair above k",
              "law", precondition=_DIA_CLASS,
              law=_law_dia_bound_reflects),
    CheckSpec("diamond-open-bound-reflects",
              "under SI+DD+WO, <>k <= o reveals a rel-pair across k, o",
              "law", precondition=_DIA_CLASS,
              law=_law_dia_open_bound_reflects),
    CheckSpec("codirected-preimage-directed",
              "under WO+UD+SI, preimages of up-directed sets are up-directed",
              "law",
              precondition=_flags(P.WO, P.UD, P.SI, _SMALL_ENOUGH_FOR_SUBSETS),
              law=_on_dual(_law_directed_image)),
    CheckSpec("box-of-join",
              "under WO+UD+SI, [] of a directed join is the join over the preimage",
              "law",
              precondition=_flags(P.WO, P.UD, P.SI, _SMALL_ENOUGH_FOR_SUBSETS),
              law=_on_dual(_law_dia_of_meet)),
    CheckSpec("box-bound-reflects",
              "under WO+UD+SI, a <= []o reveals a rel-pair below o",
              "law", precondition=_BOX_CLASS,
              law=_on_dual(_law_dia_bound_reflects)),
    CheckSpec("box-closed-bound-reflects",
              "under WO+UD+SI, k <= []o reveals a rel-pair across k, o",
              "law", precondition=_BOX_CLASS,
              law=_on_dual(_law_dia_open_bound_reflects)),
    # -- order/relation characterizations --------------------------------
    CheckSpec("rel-below-order-iff-inflationary-diamond",
              "rel inside the order = a <= <>a",
              "iff", lhs=_flags(P.PREC_IN_LEQ), rhs=_inequalities("a <= <>a")),
    CheckSpec("rel-below-order-iff-deflationary-box",
              "rel inside the order = []a <= a",
              "iff", lhs=_flags(P.PREC_IN_LEQ), rhs=_inequalities("[]a <= a")),
    CheckSpec("order-below-rel-iff-deflationary-diamond",
              "under WO+DD, order inside rel = <>a <= a",
              "iff", precondition=_DIA_DIRECTED,
              lhs=_flags(P.LEQ_IN_PREC), rhs=_inequalities("<>a <= a")),
    CheckSpec("t-iff-diamond-expanding",
              "under WO+DD+SI, transitivity of rel = <>a <= <><>a",
              "iff", precondition=_DIA_CLASS,
              lhs=_flags(P.T), rhs=_inequalities("<>a <= <><>a")),
    CheckSpec("d-iff-diamond-collapsing",
              "under WO+DD+SI, density of rel = <><>a <= <>a",
              "iff", precondition=_DIA_CLASS,
              lhs=_flags(P.D), rhs=_inequalities("<><>a <= <>a")),
    CheckSpec("ct-iff-diamond-contraction",
              "under WO+DD+SI, the contraction rule = <>a <= <>(a ^ <>a)",
              "iff",
              precondition=_flags(P.WO, P.DD, P.SI, _DIA_SERIAL),
              lhs=_flags(P.CT), rhs=_inequalities("<>a <= <>(a & <>a)")),
    CheckSpec("sl2-iff-diamond-meet-distribution",
              "under WO+DD+SI, SL2 = <>(<>a ^ <>b) <= <>(a ^ b)",
              "iff",
              precondition=_flags(P.WO, P.DD, P.SI, _DIA_SERIAL),
              lhs=_flags(P.SL2), rhs=_inequalities("<>(<>a & <>b) <= <>(a & b)")),
    CheckSpec("ct-implies-t-under-si", "under SI, contraction forces transitivity",
              "implies", precondition=_flags(P.SI),
              lhs=_flags(P.CT), rhs=_flags(P.T)),
    CheckSpec("s6-iff-negated-diamond-is-box",
              "on directed involutive carriers, S6 = (~<>a is []~a)",
              "iff", precondition=_S6_PRE,
              lhs=_flags(P.S6), rhs=_inequalities("~<>a <= []~a", "[]~a <= ~<>a")),
    CheckSpec("s6-iff-diamond-neg-is-neg-box",
              "on directed involutive carriers, S6 = (<>~a is ~[]a)",
              "iff", precondition=_S6_PRE,
              lhs=_flags(P.S6), rhs=_inequalities("<>~a <= ~[]a", "~[]a <= <>~a")),
    CheckSpec("s9fwd-iff-box-join-absorption",
              "under SI+UD+WO, forward S9 = [](a v []b) <= []a v []b",
              "iff", precondition=_BOX_CLASS,
              lhs=_flags(P.S9_FWD), rhs=_inequalities("[](a | []b) <= []a | []b")),
    CheckSpec("s9bwd-iff-box-join-coabsorption",
              "under SI+UD+WO, backward S9 = []a v []b <= [](a v []b)",
              "iff", precondition=_BOX_CLASS,
              lhs=_flags(P.S9_BWD), rhs=_inequalities("[]a | []b <= [](a | []b)")),
    CheckSpec("sl1-iff-box-join-distribution",
              "under SI+UD+WO, SL1 = [](a v b) <= []([]a v []b)",
              "iff", precondition=_BOX_CLASS,
              lhs=_flags(P.SL1), rhs=_inequalities("[](a | b) <= []([]a | []b)")),
    # -- closure extremality ----------------------------------------------
    CheckSpec("closure1-extremal", "system-1 operators are extremal",
              "law", precondition=_PROP41_PRE, law=_flags(_EXTREMAL[0])),
    CheckSpec("closure2-extremal", "system-2 operators are extremal",
              "law", precondition=_PROP41_PRE, law=_flags(_EXTREMAL[1])),
    CheckSpec("closure3-extremal", "system-3 diamond is extremal",
              "law", precondition=_PROP41_PRE, law=_flags(_EXTREMAL[2])),
    CheckSpec("closure4-extremal", "system-4 diamond is extremal",
              "law", precondition=_PROP41_PRE, law=_flags(_EXTREMAL[3])),
    # -- dual spaces -------------------------------------------------------
    CheckSpec("two-space-constructions-isomorphic",
              "irreducible-point and prime-filter spaces are isomorphic",
              "law", precondition=_SUBORDINATION_PRE, law=_law_spaces_isomorphic),
    CheckSpec("rel-below-order-iff-space-reflexive",
              "rel inside the order = reflexive dual relation",
              "iff", precondition=_SUBORDINATION_PRE,
              lhs=_flags(P.PREC_IN_LEQ), rhs=_rel_cond(RelCondition.REFLEXIVE)),
    CheckSpec("d-iff-space-transitive",
              "density of rel = transitive dual relation",
              "iff", precondition=_SUBORDINATION_PRE,
              lhs=_flags(P.D), rhs=_rel_cond(RelCondition.TRANSITIVE)),
    CheckSpec("t-iff-space-dense",
              "transitivity of rel = dense dual relation",
              "iff", precondition=_SUBORDINATION_PRE,
              lhs=_flags(P.T), rhs=_rel_cond(RelCondition.DENSE)),
    CheckSpec("properness-matches-space",
              "nonvanishing box below nonzero elements = proper dual relation",
              "iff", precondition=_SUBORDINATION_PRE,
              lhs=_flags(P.PROPER), rhs=_rel_cond(RelCondition.PROPER_REL)),
    CheckSpec("ct-relational-correspondence",
              "contraction rule = its dual-space condition",
              "iff", precondition=_SUBORDINATION_PRE,
              lhs=_flags(P.CT), rhs=_rel_cond(RelCondition.CT_REL)),
    CheckSpec("s9-relational-correspondence",
              "S9 = its dual-space condition",
              "iff", precondition=_SUBORDINATION_PRE,
              lhs=_flags(P.S9_FWD, P.S9_BWD),
              rhs=_rel_cond(RelCondition.S9_FWD_REL, RelCondition.S9_BWD_REL)),
    CheckSpec("sl1-relational-correspondence",
              "SL1 = its dual-space condition",
              "iff", precondition=_SUBORDINATION_PRE,
              lhs=_flags(P.SL1), rhs=_rel_cond(RelCondition.SL1_REL)),
    CheckSpec("sl2-relational-correspondence",
              "SL2 = its dual-space condition",
              "iff", precondition=_SUBORDINATION_PRE,
              lhs=_flags(P.SL2), rhs=_rel_cond(RelCondition.SL2_REL)),
    # -- carrier-level negation lifting -----------------------------------
    CheckSpec("sigma-negation-extension-laws",
              "the sigma lifting of a left-adjoint negation keeps its laws",
              "law", scope="carrier",
              **_neg_lifting(extend_negation_sigma, "left-self-adjunction")),
    CheckSpec("pi-negation-extension-laws",
              "the pi lifting of a right-adjoint negation keeps its laws",
              "law", scope="carrier",
              **_neg_lifting(extend_negation_pi, "right-self-adjunction")),
)

CHECKS_BY_NAME = {spec.name: spec for spec in CATALOG}
