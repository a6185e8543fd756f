"""Order duality as a metamorphic relation of the catalog.

For an order-reversing bijection ``phi`` of a carrier, the dual of a
relation R is R^d = {(phi b, phi a) : a R b}.  The diamond of R^d is
``phi`` after the box of R after ``phi^-1``, so every check whose
statement is the dual of another's must give R the verdict (skip, pass
or fail) that its dual gives R^d, and a check that is its own dual must
give R and R^d one verdict.  Where the precondition holds, an ``iff`` or
``implies`` check's lhs truth must match too, read from the plan key as
``run._decide`` reads it.  ``phi`` is found by a search over the
permutations of the carrier (the complement on b8), so the test does not
rest on ``order.opposite``.

The Tier-1 tests run chain2 and chain3 whole and seeded slices of
chain4, b4, fdl2, b8 and the two lattices that are not distributive, N5
and M3.  The whole of chain4 and b4 (131,072 relations)
runs as a script, printing its time and its mismatch count::

    PYTHONPATH=src python tests/test_metamorphic.py chain4 b4
"""

from __future__ import annotations

import random
import sys
import time
import zlib
from itertools import permutations

import pytest

from subnorm.harness import CHECKS_BY_NAME, CarrierContext, Instance, closure_generated
from subnorm.harness import run as runner
from subnorm.harness.generate import (SUBORDINATION_RULES, enumerate_relations,
                                     random_relations, relation_from_int)
from subnorm.order import bits
from subnorm.subordination import Property as P
from subnorm.subordination import ProtoSubAlg, close
from conftest import lattice

#: each check and the check that states its dual: <> for [], SI for WO,
#: DD for UD, AND for OR, BOT for TOP and SL1 for SL2
DUAL_PAIRS = (
    ("diamond-detects-rel", "box-detects-rel"),
    ("or-implies-updirected", "and-implies-downdirected"),
    ("updirected-iff-or-under-si", "downdirected-iff-and-under-wo"),
    ("si-makes-diamond-monotone", "wo-makes-box-monotone"),
    ("or-makes-diamond-additive-dl", "and-makes-box-multiplicative-dl"),
    ("or-makes-diamond-additive-dd", "and-makes-box-multiplicative-ud"),
    ("bot-rule-grounds-diamond", "top-rule-caps-box"),
    ("si-iff-diamond-monotone", "wo-iff-box-monotone"),
    ("or-iff-diamond-additive", "and-iff-box-multiplicative"),
    ("bot-iff-diamond-grounded", "top-iff-box-capped"),
    ("directed-image-directed", "codirected-preimage-directed"),
    ("diamond-of-meet", "box-of-join"),
    ("diamond-bound-reflects", "box-bound-reflects"),
    ("diamond-open-bound-reflects", "box-closed-bound-reflects"),
    ("rel-below-order-iff-inflationary-diamond", "rel-below-order-iff-deflationary-box"),
    ("sl2-iff-diamond-meet-distribution", "sl1-iff-box-join-distribution"),
    ("s6-iff-negated-diamond-is-box", "s6-iff-diamond-neg-is-neg-box"),
)
#: the checks that are their own duals
SELF_DUAL = ("bounds-of-related-pairs", "monotone-transfer", "regular-transfer",
             "normality-transfer")

DUAL = {**{a: b for a, b in DUAL_PAIRS}, **{b: a for a, b in DUAL_PAIRS},
        **{name: name for name in SELF_DUAL}}
NAMES = sorted(DUAL)
SPECS = [CHECKS_BY_NAME[name] for name in NAMES]
#: position in ``NAMES`` of the dual of each check
DUAL_AT = [NAMES.index(DUAL[name]) for name in NAMES]


def order_reversal(lat) -> tuple[int, ...]:
    """The first permutation, in lexicographic order, that reverses the
    carrier's order: ``a <= b`` exactly when ``phi b <= phi a``."""
    up, n = lat.poset.up, lat.n
    for phi in permutations(range(n)):
        if all((up[a] >> b & 1) == (up[phi[b]] >> phi[a] & 1)
               for a in range(n) for b in range(n)):
            return phi
    raise AssertionError("the carrier is not self-dual")


def complement(lat) -> tuple[int, ...]:
    """The complement of a Boolean carrier, checked to reverse the order."""
    phi, up, n = lat.neg, lat.poset.up, lat.n
    assert sorted(phi) == list(range(n))
    assert all((up[a] >> b & 1) == (up[phi[b]] >> phi[a] & 1) for a in range(n) for b in range(n))
    return phi


def dual_rows(rows, phi) -> tuple[int, ...]:
    """The rows of R^d = {(phi b, phi a) : a R b}."""
    out = [0] * len(rows)
    for a, row in enumerate(rows):
        for b in bits(row):
            out[phi[b]] |= 1 << phi[a]
    return tuple(out)


class Verdicts:
    """The verdicts of the checks of ``SPECS`` on relations of one
    carrier: one ``run._Plan`` forces the bits, ``run._decide`` reads the
    key and ``verify_check`` runs the ``law`` bodies, as in a suite run.
    Each distinct tuple of verdicts is kept once."""

    def __init__(self, lat):
        self.ctx = CarrierContext("metamorphic", lat)
        self.plan = runner._Plan(SPECS)
        self.seen: dict[tuple, tuple] = {}

    def __call__(self, rows) -> tuple[tuple[str, bool | None], ...]:
        """Per check of ``SPECS``, its status and the truth of its lhs
        when it is an ``iff`` or ``implies`` check whose precondition
        holds (else None)."""
        inst = Instance(self.ctx, ProtoSubAlg(self.ctx.lat, rows))
        key = self.plan.key(inst)
        out = []
        for spec in SPECS:
            status, _ = runner._decide(spec, key) or runner.verify_check(spec, inst)
            lhs = None
            if spec.mode != "law" and status != "skip":
                lhs = not spec.lhs & ~key
            out.append((status, lhs))
        out = tuple(out)
        return self.seen.setdefault(out, out)


def mismatches(lat, phi, relations) -> tuple[list, list[int]]:
    """``(bad, tested)``: every (relation, check) whose verdict differs
    from its dual's on the dual relation, and per check of ``NAMES`` the
    relations on which it did not skip.  Each relation is decided once,
    whether it comes as itself or as the dual of another."""
    decide, known = Verdicts(lat), {}

    def of(rows):
        if rows not in known:
            known[rows] = decide(rows)
        return known[rows]

    bad, tested = [], [0] * len(NAMES)
    for rows in relations:
        mine, theirs = of(rows), of(dual_rows(rows, phi))
        for i, j in enumerate(DUAL_AT):
            if mine[i] != theirs[j]:
                bad.append((rows, NAMES[i], mine[i], NAMES[j], theirs[j]))
            tested[i] += mine[i][0] != "skip"
    return bad, tested


def whole(lat) -> list[tuple[int, ...]]:
    """Every relation on the carrier; ``TooLarge`` above 2^16 of them."""
    return [S.rows for S in enumerate_relations(lat)]


def sample(lat, seed: int, count: int) -> list[tuple[int, ...]]:
    """A seeded slice: ``count`` random relations (packed integers on a
    carrier small enough to enumerate), each with its closures under SI
    and WO and under the subordination rules, and the closure-generated
    corpus from one seed pair, where the directed classes live."""
    if lat.n * lat.n <= 16:
        rng = random.Random(seed)
        rels = [ProtoSubAlg(lat, relation_from_int(lat.n, rng.randrange(1 << lat.n * lat.n)))
                for _ in range(count)]
    else:
        rels = random_relations(lat, count, seed)
    rels += [close(S, rules) for S in list(rels) for rules in ({P.SI, P.WO}, SUBORDINATION_RULES)]
    rels += closure_generated(lat, 1)
    return list(dict.fromkeys(S.rows for S in rels))


def test_the_map_of_names_is_a_pairing_of_catalog_checks():
    assert len(DUAL_PAIRS) == 17 and len(DUAL) == 38
    assert all(DUAL[DUAL[name]] == name for name in DUAL)
    assert all(CHECKS_BY_NAME[name].scope == "relation" for name in DUAL)
    assert all(CHECKS_BY_NAME[a].mode == CHECKS_BY_NAME[b].mode for a, b in DUAL_PAIRS)


def test_dual_rows_is_an_involution_onto_the_converse_order(chain3, b4):
    for lat in (chain3, b4):
        phi = order_reversal(lat)
        leq = tuple(lat.poset.up)
        assert dual_rows(leq, phi) == leq  # the order is its own dual
        for rows in whole(lat)[::37]:
            assert dual_rows(dual_rows(rows, phi), phi) == rows


def untested(lat, tested) -> set[str]:
    """The checks that skipped every relation, less those that skip on
    every relation of the carrier: the two S6 checks on a carrier
    without a negation, the two ``-dl`` checks on one that is not
    distributive."""
    out = {name for name, count in zip(NAMES, tested) if not count}
    if lat.neg is None:
        out -= {name for name in NAMES if name.startswith("s6-")}
    if not lat.is_distributive:
        out -= {name for name in NAMES if name.endswith("-dl")}
    return out


@pytest.mark.parametrize("name", ["chain2", "chain3"])
def test_every_relation_of_a_small_chain(name):
    lat = lattice(name)
    bad, tested = mismatches(lat, order_reversal(lat), whole(lat))
    assert bad == []
    assert untested(lat, tested) == set()


@pytest.mark.parametrize("name, count", [("chain4", 16000), ("b4", 16000), ("fdl2", 1000),
                                         ("b8", 400), ("n5", 600), ("m3", 600)])
def test_a_seeded_slice(name, count):
    lat = lattice(name)
    phi = complement(lat) if name == "b8" else order_reversal(lat)
    bad, tested = mismatches(lat, phi, sample(lat, zlib.crc32(name.encode()), count))
    assert bad == []
    assert untested(lat, tested) == set()


def main(names: list[str]) -> int:
    """Every relation on each named carrier, against its dual; prints the
    relations, the checks that did not skip, the time and the mismatches."""
    total = 0
    for name in names:
        lat = lattice(name)
        t0 = time.perf_counter()
        bad, tested = mismatches(lat, order_reversal(lat), whole(lat))
        print(f"{name}: {1 << lat.n * lat.n} relations, {sum(tested)} "
              f"(relation, check) pairs not skipped, {len(bad)} mismatches, "
              f"{time.perf_counter() - t0:.1f} s")
        for rows, check, got, dual, want in bad[:10]:
            print(f"  {rows} {check} {got} != {dual} {want} on the dual")
        total += len(bad)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["chain4", "b4"]))
