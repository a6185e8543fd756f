import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnorm.errors import InputFormatError, MissingStructure
from subnorm.order import free_boolean_algebra, poset_from_hasse, to_lattice
from subnorm.subordination import (
    CLASS_TABLE,
    CLOSABLE_RULES,
    SYSTEM_RULES,
    Property,
    ProtoSubAlg,
    SubordRel,
    _close_fixpoint,
    check_property,
    classify,
    close,
    close_i,
    property_holds,
    subalg_from_json,
    subalg_to_json,
)
from subnorm.harness.generate import relation_from_int
from oracles import PROPERTY_ORACLES, closure_oracle

P = Property


class TestCheckProperty:
    def test_si_on_leq(self, b4_leq):
        assert check_property(b4_leq, P.SI) == (True, None)

    def test_empty_relation(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [])
        assert check_property(S, P.TOP) == (False, ())
        assert check_property(S, P.DD) == (True, None)

    def test_si_witness_is_lex_first(self, chain3):
        S = ProtoSubAlg.from_pairs(chain3, [(2, 0)])
        holds, witness = check_property(S, P.SI)
        assert not holds
        assert witness == (0, 2, 0)

    def test_s6_needs_negation(self, chain3):
        S = ProtoSubAlg.from_pairs(chain3, [])
        with pytest.raises(MissingStructure):
            check_property(S, P.S6)

    def test_proper(self, b4, b4_leq):
        assert check_property(b4_leq, P.PROPER)[0]
        S = ProtoSubAlg.from_pairs(b4, [(0, 1), (0, 2), (0, 0), (0, 3)])
        holds, witness = check_property(S, P.PROPER)
        assert not holds and witness == (1,)

    @pytest.mark.parametrize("prop", sorted(PROPERTY_ORACLES, key=str))
    def test_against_oracle_exhaustive_chain2(self, prop, chain2):
        for packed in range(1 << 4):
            S = ProtoSubAlg(chain2, relation_from_int(2, packed))
            want = PROPERTY_ORACLES[prop](S)
            assert property_holds(S, P[prop]) == want, packed
            assert check_property(S, P[prop])[0] == want, packed

    @pytest.mark.parametrize("prop", sorted(PROPERTY_ORACLES, key=str))
    def test_against_oracle_sampled_b4(self, prop, b4):
        rng = random.Random(hash(prop) & 0xFFFF)
        for _ in range(120):
            packed = rng.randrange(1 << 16)
            S = ProtoSubAlg(b4, relation_from_int(4, packed))
            want = PROPERTY_ORACLES[prop](S)
            assert property_holds(S, P[prop]) == want, packed
            assert check_property(S, P[prop])[0] == want, packed

    def test_witness_is_none_iff_holds(self, b4):
        rng = random.Random(5)
        for _ in range(200):
            S = ProtoSubAlg(b4, relation_from_int(4, rng.randrange(1 << 16)))
            for prop in P:
                holds, witness = check_property(S, prop)
                assert holds == (witness is None)


class TestClassify:
    def test_leq_is_subordination_algebra(self, b4_leq):
        got = classify(b4_leq)
        assert "subordination algebra" in got
        assert got == {name for name, _ in CLASS_TABLE}

    def test_empty_relation_classes(self, b4):
        got = classify(ProtoSubAlg.from_pairs(b4, []))
        assert "premonotone" in got and "directed/monotone" in got
        assert "subordination algebra" not in got

    def test_full_relation_is_subordination_algebra(self, b4):
        S = ProtoSubAlg.from_pairs(
            b4, [(a, b) for a in range(4) for b in range(4)])
        assert "subordination algebra" in classify(S)

    def test_classify_consistent_with_property_table(self, b4):
        rng = random.Random(9)
        for _ in range(100):
            S = ProtoSubAlg(b4, relation_from_int(4, rng.randrange(1 << 16)))
            got = classify(S)
            for name, props in CLASS_TABLE:
                assert (name in got) == all(property_holds(S, q) for q in props)


class TestClose:
    def test_top_rule_only(self, chain3):
        S = ProtoSubAlg.from_pairs(chain3, [])
        assert close(S, [P.TOP]).prec.pairs() == [(2, 2)]

    def test_si_wo_example(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [(1, 1)])
        got = close(S, [P.SI, P.WO])
        assert sorted(got.prec.pairs()) == [(0, 1), (0, 3), (1, 1), (1, 3)]

    def test_six_rule_example(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [(1, 1), (2, 2)])
        got = close(S, [P.BOT, P.TOP, P.SI, P.WO, P.AND, P.OR])
        assert sorted(got.prec.pairs()) == [
            (0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 3),
            (2, 2), (2, 3), (3, 3)]

    def test_close_i_nesting(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [(1, 1)])
        sets = {i: set(close_i(S, i).prec.pairs()) for i in (1, 2, 3, 4)}
        assert sets[1] <= sets[2] <= sets[4]
        assert sets[1] <= sets[3] <= sets[4]

    def test_result_satisfies_rules(self, b4):
        rng = random.Random(3)
        for _ in range(50):
            S = ProtoSubAlg(b4, relation_from_int(4, rng.randrange(1 << 16)))
            for i, rules in SYSTEM_RULES.items():
                closed = close_i(S, i)
                for rule in rules:
                    assert property_holds(closed, rule)

    def test_extensive_monotone_idempotent(self, b4):
        rng = random.Random(4)
        rules = SYSTEM_RULES[4]
        for _ in range(40):
            small = rng.randrange(1 << 16)
            big = small | rng.randrange(1 << 16)
            S1 = ProtoSubAlg(b4, relation_from_int(4, small))
            S2 = ProtoSubAlg(b4, relation_from_int(4, big))
            c1, c2 = close(S1, rules), close(S2, rules)
            assert all(a & ~b == 0 for a, b in zip(S1.rows, c1.rows))
            assert all(a & ~b == 0 for a, b in zip(c1.rows, c2.rows))
            assert close(c1, rules).rows == c1.rows

    def test_d_rule_not_closable(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [])
        with pytest.raises(MissingStructure):
            close(S, [P.D])

    def test_lattice_needed_for_and(self, antichain2):
        S = ProtoSubAlg.from_pairs(antichain2, [])
        with pytest.raises(MissingStructure):
            close(S, [P.AND])

    def test_minimality_against_oracle_chain2(self, chain2):
        for packed in range(1 << 4):
            pairs = set(relation_from_int(2, packed).pairs())
            for rules, names in [
                ({P.SI, P.WO}, {"SI", "WO"}),
                ({P.TOP, P.SI, P.WO, P.AND}, {"TOP", "SI", "WO", "AND"}),
                ({P.T}, {"T"}),
            ]:
                S = ProtoSubAlg.from_pairs(chain2, pairs)
                got = set(close(S, rules).prec.pairs())
                assert got == closure_oracle(chain2, pairs, names), (packed, names)

    def test_minimality_against_oracle_chain3_sampled(self, chain3):
        rng = random.Random(6)
        for _ in range(6):
            pairs = {(rng.randrange(3), rng.randrange(3))
                     for _ in range(rng.randrange(3))}
            S = ProtoSubAlg.from_pairs(chain3, pairs)
            got = set(close(S, SYSTEM_RULES[2]).prec.pairs())
            want = closure_oracle(chain3, pairs, {"TOP", "SI", "WO", "AND", "OR"})
            assert got == want, pairs

    def test_filterform_matches_generic_on_free_ba(self):
        lat, _ = free_boolean_algebra(2)
        rng = random.Random(1)
        for _ in range(25):
            pairs = [(rng.randrange(16), rng.randrange(16))
                     for _ in range(rng.randrange(4))]
            S = ProtoSubAlg.from_pairs(lat, pairs)
            for i in (1, 2, 3, 4):
                assert (close_i(S, i).rows
                        == tuple(_close_fixpoint(S, SYSTEM_RULES[i])))

    def test_filterform_matches_generic_on_small_lattices(self, b4, fdl2, b8):
        # close() takes the filter form for every closable rule set
        # containing WO and AND; the generic fixpoint is the reference,
        # on distributive carriers and on the non-distributive N5 and M3
        optional = sorted(CLOSABLE_RULES - {P.WO, P.AND}, key=lambda q: q.value)
        rulesets = [frozenset({P.WO, P.AND, *extra})
                    for k in range(len(optional) + 1)
                    for extra in itertools.combinations(optional, k)]
        assert len(rulesets) == 64
        n5 = to_lattice(poset_from_hasse(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]))
        m3 = to_lattice(poset_from_hasse(5, [(0, 1), (0, 2), (0, 3),
                                             (1, 4), (2, 4), (3, 4)]))
        assert not n5.is_distributive and not m3.is_distributive
        rng = random.Random(14)
        for lat in (b4, fdl2, b8, n5, m3):
            n = lat.n
            for _ in range(40):
                pairs = [(rng.randrange(n), rng.randrange(n))
                         for _ in range(rng.randrange(2 * n))]
                S = ProtoSubAlg.from_pairs(lat, pairs)
                for rules in rulesets:
                    assert (close(S, rules).rows
                            == tuple(_close_fixpoint(S, rules))), (n, pairs, rules)

    def test_terminates_within_pair_bound(self, b4):
        # worst case: a single seed pair expanded by the full rule set
        S = ProtoSubAlg.from_pairs(b4, [(2, 1)])
        close(S, CLOSABLE_RULES)  # must not raise the convergence guard


class TestJson:
    def test_roundtrip(self, b4_leq):
        again = subalg_from_json(subalg_to_json(b4_leq))
        assert again == b4_leq

    def test_bad_pairs_rejected(self, b4):
        with pytest.raises(InputFormatError):
            SubordRel.from_pairs(4, [(0, 7)])

    @pytest.mark.parametrize("hasse", [
        # bowtie 0 < a, b < c, d < 1: bounded, a and b have no join
        [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 5], [4, 5]],
        # V: z < x, y has no top
        [[0, 1], [0, 2]],
    ])
    def test_non_lattice_loads_as_poset(self, hasse):
        n = 1 + max(j for _, j in hasse)
        S = subalg_from_json({"algebra": {"hasse": hasse}, "prec": [[0, 1]]})
        assert S.lattice is None
        assert S.poset == poset_from_hasse(n, hasse)
        assert S.prec.pairs() == [(0, 1)]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
def test_close_monotone_hypothesis(a, b):
    from subnorm.harness.carriers import load_carrier
    b4 = load_carrier("b4")
    S1 = ProtoSubAlg(b4, relation_from_int(4, a & b))
    S2 = ProtoSubAlg(b4, relation_from_int(4, a))
    c1 = close(S1, SYSTEM_RULES[1])
    c2 = close(S2, SYSTEM_RULES[1])
    assert all(x & ~y == 0 for x, y in zip(c1.rows, c2.rows))


def test_rule_level_implications_sampled(b4):
    # OR forces UD, AND forces DD, and under SI contraction forces
    # transitivity; spot-check on closures which satisfy the premises
    rng = random.Random(12)
    for _ in range(40):
        S = ProtoSubAlg(b4, relation_from_int(4, rng.randrange(1 << 16)))
        closed = close_i(S, 4)
        assert property_holds(closed, P.UD) and property_holds(closed, P.DD)
        assert not property_holds(closed, P.CT) or property_holds(closed, P.T)
