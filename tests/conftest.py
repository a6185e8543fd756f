import pytest
from hypothesis import strategies as st

from subnorm.harness.carriers import load_carrier
from subnorm.order import poset_from_hasse, to_lattice, validate_poset
from subnorm.subordination import LOCAL_FLAGS, ProtoSubAlg
from subnorm.syntax import BOT, TOP, tand, tnot, tor, var


@pytest.fixture(scope="session")
def b4():
    return load_carrier("b4")


@pytest.fixture(scope="session")
def b8():
    return load_carrier("b8")


@pytest.fixture(scope="session")
def chain2():
    return load_carrier("chain2")


@pytest.fixture(scope="session")
def chain3():
    return load_carrier("chain3")


@pytest.fixture(scope="session")
def chain4():
    return load_carrier("chain4")


@pytest.fixture(scope="session")
def fdl2():
    return load_carrier("fdl2")


@pytest.fixture(scope="session")
def antichain2():
    return validate_poset([[1, 0], [0, 1]], ["x", "y"])


@pytest.fixture(scope="session")
def v_poset():
    return poset_from_hasse(3, [(0, 1), (0, 2)], ["z", "x", "y"])


#: the pentagon N5 and the diamond M3 by their covers: the two lattices
#: that are not distributive, both self-dual
NON_DISTRIBUTIVE = {"n5": [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],
                    "m3": [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]}


#: the 16-element Boolean algebra by its covers: element ``m`` is the set
#: of atoms ``m`` (four atoms, one bit each), covered by ``m`` plus an atom
B16_HASSE = [(m, m | 1 << k) for m in range(16) for k in range(4) if not m >> k & 1]


def lattice(name: str):
    """A built-in carrier by name, or N5 or M3 (``NON_DISTRIBUTIVE``)."""
    if name in NON_DISTRIBUTIVE:
        return to_lattice(poset_from_hasse(5, NON_DISTRIBUTIVE[name]))
    return load_carrier(name)


def leq_relation(lat) -> ProtoSubAlg:
    return ProtoSubAlg.from_pairs(
        lat, [(a, b) for a in range(lat.n) for b in range(lat.n) if lat.leq(a, b)])


@pytest.fixture(scope="session")
def b4_leq(b4):
    return leq_relation(b4)


def term_trees(unary, binary):
    """Hypothesis strategy for term trees over p, q, T and F built with
    the given one- and two-place constructors."""
    return st.recursive(
        st.sampled_from([var("p"), var("q"), TOP, BOT]),
        lambda t: st.one_of(*(st.builds(u, t) for u in unary),
                            *(st.builds(b, t, t) for b in binary)))


def formula_of_table(mask, atoms):
    """A formula whose truth table over ``atoms`` is ``mask``: the
    disjunction of one conjunction of literals per set bit (valuation
    ``v`` sets atom ``j`` iff bit ``j`` of ``v`` is set)."""
    out = BOT
    for v in range(1 << len(atoms)):
        if mask >> v & 1:
            term = TOP
            for j, name in enumerate(atoms):
                term = tand(term, var(name) if v >> j & 1 else tnot(var(name)))
            out = term if out == BOT else tor(out, term)
    return out


def has_flags(inst, mask: int) -> bool:
    """Every flag in ``mask`` is True on the harness instance ``inst``.
    Flags not yet known are computed local ones first (with the rest of
    the carrier's table bits), the others in bit order, stopping at the
    first that is not True: the order in which the runner's
    ``_Plan.key`` forces them."""
    while True:
        if mask & inst._known & ~inst._true:
            return False
        todo = mask & ~inst._known
        if not todo:
            return True
        inst._compute(todo & (LOCAL_FLAGS | inst.ctx.table_bits) or todo)
