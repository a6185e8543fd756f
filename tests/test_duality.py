import random

import pytest

from subnorm.duality import (
    RelCondition,
    SubordinationSpace,
    build_space_jirr,
    build_space_primefilters,
    check_relational,
    spaces_isomorphic,
)
from subnorm.errors import NotSubordinationLattice
from subnorm.order import (bits, join_irreducibles, mask_of, opposite, poset_from_hasse,
                           to_lattice)
from subnorm.slanted import build_slanted, pi_extension, sigma_extension
from subnorm.subordination import ProtoSubAlg, close
from subnorm.harness.generate import SUBORDINATION_RULES
from conftest import leq_relation


def rel_by_labels(sp):
    return {(sp.labels[i], sp.labels[j]) for i, j in sp.rel_pairs()}


def transpose(sp):
    """The space with the converse relation."""
    cols = [0] * sp.m
    for i, j in sp.rel_pairs():
        cols[j] |= 1 << i
    return SubordinationSpace(sp.points, sp.labels, sp.order, cols)


def lambda_pairing(lat) -> dict:
    """Each join-irreducible to the largest element not above it."""
    return {j: lat.join_all(mask_of(x for x in range(lat.n) if not lat.leq(j, x)))
            for j in bits(join_irreducibles(lat))}


def kappa_pairing(lat) -> dict:
    """Each meet-irreducible to the least element not below it: on a
    finite distributive lattice, the inverse of ``lambda_pairing``."""
    return {m: lat.meet_all(mask_of(x for x in range(lat.n) if not lat.leq(x, m)))
            for m in bits(join_irreducibles(opposite(lat)))}


class TestSpaces:
    def test_b4_leq_points_and_relation(self, b4_leq):
        sp = build_space_jirr(b4_leq)
        assert sp.labels == ("x", "y")
        assert rel_by_labels(sp) == {("x", "x"), ("y", "y")}

    def test_chain_leq_relation(self, chain3):
        sp = build_space_jirr(leq_relation(chain3))
        assert sp.labels == ("1", "2")
        assert rel_by_labels(sp) == {("1", "1"), ("2", "1"), ("2", "2")}

    def test_full_relation_empty_dual(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [(a, b) for a in range(4) for b in range(4)])
        assert build_space_jirr(S).rel_pairs() == []
        assert build_space_primefilters(S).rel_pairs() == []

    def test_primefilter_relation_on_b4(self, b4_leq):
        sp = build_space_primefilters(b4_leq)
        assert rel_by_labels(sp) == {("{x,1}", "{x,1}"), ("{y,1}", "{y,1}")}

    def test_primefilter_order_is_reverse_inclusion(self, chain3):
        sp = build_space_primefilters(leq_relation(chain3))
        big = sp.labels.index("{1,2}")
        small = sp.labels.index("{2}")
        assert sp.leq(big, small) and not sp.leq(small, big)

    def test_requires_subordination_algebra(self, b4):
        with pytest.raises(NotSubordinationLattice):
            build_space_jirr(ProtoSubAlg.from_pairs(b4, []))

    def test_requires_distributive(self):
        m3 = to_lattice(poset_from_hasse(
            5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))
        S = leq_relation(m3)
        with pytest.raises(NotSubordinationLattice):
            build_space_jirr(S)

    @pytest.mark.parametrize("carrier", ["b4", "fdl2", "b8"])
    def test_shared_points_give_each_relation_its_space(self, carrier, request):
        # the harness reads both spaces off per-carrier points and the
        # diamond in the carrier; each relation's accessibility is held
        # to its definition, through the sigma extension on the completion
        from subnorm.harness import CarrierContext, Instance, closure_generated
        lat = request.getfixturevalue(carrier)
        ctx = CarrierContext(carrier, lat)
        for S in closure_generated(lat, 1):
            inst = Instance(ctx, S)
            jirr, pf = inst.space, inst.space_pf
            assert (jirr.to_json(), pf.to_json()) == (build_space_jirr(S).to_json(),
                                                      build_space_primefilters(S).to_json())
            sa = build_slanted(S)
            delta, sigma = sa.delta, sigma_extension(sa)
            for i, x in enumerate(jirr.points):
                for j, y in enumerate(jirr.points):
                    assert jirr.rel(i, j) == delta.leq(y, sigma[x])
            for i, f in enumerate(pf.points):
                image = {b for a in bits(f) for b in bits(S.rows[a])}
                for j, g in enumerate(pf.points):
                    assert pf.rel(i, j) == (image <= set(bits(g)))


class TestIsomorphism:
    @pytest.mark.parametrize("carrier", ["b4", "chain3", "chain4", "fdl2"])
    def test_constructions_isomorphic_on_leq(self, carrier, request):
        lat = request.getfixturevalue(carrier)
        S = leq_relation(lat)
        ok, image = spaces_isomorphic(build_space_jirr(S),
                                      build_space_primefilters(S))
        assert ok and image is not None

    def test_chain_space_not_isomorphic_to_transpose(self, chain3):
        sp = build_space_jirr(leq_relation(chain3))
        assert spaces_isomorphic(sp, transpose(sp))[0] is False

    def test_isomorphic_on_closure_generated_fdl2(self, fdl2):
        rng = random.Random(13)
        for _ in range(15):
            seed = [(rng.randrange(6), rng.randrange(6)) for _ in range(2)]
            S = close(ProtoSubAlg.from_pairs(fdl2, seed), SUBORDINATION_RULES)
            assert spaces_isomorphic(build_space_jirr(S),
                                     build_space_primefilters(S))[0]


class TestRelationalConditions:
    def test_reflexive_on_leq(self, b4_leq):
        sp = build_space_jirr(b4_leq)
        assert check_relational(sp, RelCondition.REFLEXIVE) == (True, None)

    def test_chain_transitive_dense(self, chain3):
        sp = build_space_jirr(leq_relation(chain3))
        assert check_relational(sp, RelCondition.TRANSITIVE)[0]
        assert check_relational(sp, RelCondition.DENSE)[0]

    def test_empty_relation_vacuous_transitive(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [(a, b) for a in range(4) for b in range(4)])
        sp = build_space_jirr(S)
        ok, witness = check_relational(sp, RelCondition.REFLEXIVE)
        assert not ok and witness == (0,)
        assert check_relational(sp, RelCondition.TRANSITIVE)[0]

    def test_proper_on_leq_improper_on_minimal(self, b4, b4_leq):
        assert check_relational(build_space_jirr(b4_leq),
                                RelCondition.PROPER_REL)[0]
        minimal = close(ProtoSubAlg.from_pairs(b4, []), SUBORDINATION_RULES)
        sp = build_space_jirr(minimal)
        ok, witness = check_relational(sp, RelCondition.PROPER_REL)
        assert not ok and witness is not None


class TestLambda:
    @pytest.mark.parametrize("carrier", ["chain4", "b4", "b8", "fdl2"])
    def test_bijection_and_inverse(self, carrier, request):
        # on a finite distributive lattice the pairing is an order
        # isomorphism from the join- onto the meet-irreducibles
        lat = request.getfixturevalue(carrier)
        lam, kap = lambda_pairing(lat), kappa_pairing(lat)
        assert set(lam.values()) == set(kap) == set(bits(join_irreducibles(opposite(lat))))
        assert all(kap[m] == j for j, m in lam.items())
        for j1, m1 in lam.items():
            for j2, m2 in lam.items():
                assert lat.leq(j1, j2) == lat.leq(m1, m2)

    @pytest.mark.parametrize("carrier", ["chain3", "b4", "fdl2"])
    def test_translation_law(self, carrier, request):
        # box(m) <= n iff kappa(m) <= dia(kappa(n)) over all pairs of
        # meet-irreducibles, on closure-generated subordination relations
        lat = request.getfixturevalue(carrier)
        kap = kappa_pairing(lat)
        rng = random.Random(17)
        rels = [leq_relation(lat)]
        for _ in range(10):
            seed = [(rng.randrange(lat.n), rng.randrange(lat.n))]
            rels.append(close(ProtoSubAlg.from_pairs(lat, seed), SUBORDINATION_RULES))
        for S in rels:
            sa = build_slanted(S)
            sig, pi = sigma_extension(sa), pi_extension(sa)
            for m1 in kap:
                for m2 in kap:
                    lhs = lat.leq(pi[m1], m2)
                    rhs = lat.leq(kap[m1], sig[kap[m2]])
                    assert lhs == rhs, (S.pairs(), m1, m2)
