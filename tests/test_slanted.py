import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnorm.errors import MissingNegation, NotMonotone, ParseError, UnboundVariable
from subnorm.order import bits
from subnorm.slanted import (
    BOT,
    TOP,
    Inequality,
    box,
    build_slanted,
    dia,
    evaluate,
    format_term,
    parse_inequality,
    parse_term,
    pi_extension,
    sigma_extension,
    tand,
    tnot,
    tor,
    valid,
    var,
)
from subnorm.subordination import ProtoSubAlg
from subnorm.harness import CarrierContext, Instance
from subnorm.harness.catalog import _NORMAL, _REGULAR, _monotone
from subnorm.harness.generate import relation_from_int
from conftest import leq_relation


class TestBuildSlanted:
    def test_leq_gives_identity(self, b4_leq):
        sa = build_slanted(b4_leq)
        assert sa.dia == (0, 1, 2, 3) and sa.box == (0, 1, 2, 3)
        assert sa.proper_diamond and sa.proper_box

    def test_empty_relation(self, b4):
        sa = build_slanted(ProtoSubAlg.from_pairs(b4, []))
        assert sa.dia == (3, 3, 3, 3)
        assert sa.box == (0, 0, 0, 0)
        assert sa.proper_diamond and sa.proper_box

    def test_chain_example(self, chain3):
        S = ProtoSubAlg.from_pairs(chain3, [(0, 2), (1, 2), (2, 2)])
        sa = build_slanted(S)
        assert sa.dia == (2, 2, 2)
        assert sa.box == (0, 0, 2)

    def test_improper_on_unbounded_base(self, antichain2):
        # meets of the two incomparable points leave the image
        S = ProtoSubAlg.from_pairs(antichain2, [(0, 0), (0, 1)])
        sa = build_slanted(S)
        assert not sa.proper_diamond

    def test_directed_instances_are_proper(self, b4):
        from subnorm.subordination import Property, property_holds
        rng = random.Random(2)
        hits = 0
        for _ in range(300):
            S = ProtoSubAlg(b4, relation_from_int(4, rng.randrange(1 << 16)))
            if property_holds(S, Property.DD) and property_holds(S, Property.UD):
                hits += 1
                sa = build_slanted(S)
                assert sa.proper_diamond and sa.proper_box
        assert hits > 10


class TestExtensions:
    def test_sigma_identity(self, b4_leq):
        assert sigma_extension(build_slanted(b4_leq)) == (0, 1, 2, 3)

    def test_sigma_constant_top(self, b4):
        sa = build_slanted(ProtoSubAlg.from_pairs(b4, []))
        assert sigma_extension(sa) == (3, 3, 3, 3)

    def test_sigma_chain_example(self, chain3):
        S = ProtoSubAlg.from_pairs(chain3, [(0, 2), (1, 2), (2, 2)])
        assert sigma_extension(build_slanted(S)) == (2, 2, 2)

    def test_not_monotone_rejected(self, chain3):
        # only the middle element has a successor below it
        S = ProtoSubAlg.from_pairs(chain3, [(1, 0)])
        with pytest.raises(NotMonotone):
            sigma_extension(build_slanted(S))

    def test_pi_dual(self, b4_leq):
        assert pi_extension(build_slanted(b4_leq)) == (0, 1, 2, 3)

    def test_sigma_agrees_with_dia_on_image_when_monotone(self, b4):
        from subnorm.subordination import Property, property_holds
        rng = random.Random(8)
        for _ in range(120):
            S = ProtoSubAlg(b4, relation_from_int(4, rng.randrange(1 << 16)))
            if not property_holds(S, Property.SI):
                continue
            sa = build_slanted(S)
            table = sigma_extension(sa)
            assert all(table[sa.ext.embed[a]] == sa.dia[a] for a in range(4))


class TestClassifySlanted:
    # the operator laws as the catalog states them, on b4 instances

    @staticmethod
    def laws(S):
        inst = Instance(CarrierContext("b4", S.lattice), S)
        return (_monotone("dia", "box")(inst), _REGULAR(inst), _NORMAL(inst))

    def test_leq_all_flags(self, b4_leq):
        assert self.laws(b4_leq) == (True, True, True)
        # tense: <>a <= b iff a <= []b
        sa = build_slanted(b4_leq)
        d, embed = sa.delta, sa.ext.embed
        assert all(d.leq(sa.dia[a], embed[b]) == d.leq(embed[a], sa.box[b])
                   for a in range(4) for b in range(4))

    def test_empty_not_normal(self, b4):
        monotone, _, normal = self.laws(ProtoSubAlg.from_pairs(b4, []))
        assert monotone and not normal

    def test_full_normal(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [(a, b) for a in range(4) for b in range(4)])
        assert self.laws(S)[2]


class TestParser:
    def test_precedence(self):
        assert parse_term("p & ~q | r") == tor(tand(var("p"), tnot(var("q"))), var("r"))

    def test_unary_stack(self):
        assert parse_term("~<>[]p") == tnot(dia(box(var("p"))))

    def test_constants(self):
        assert parse_term("T & F") == tand(TOP, BOT)

    def test_inequality_split(self):
        ineq = parse_inequality("<>p <= p | q")
        assert ineq == Inequality(dia(var("p")), tor(var("p"), var("q")))

    def test_two_arrows_rejected(self):
        with pytest.raises(ParseError):
            parse_inequality("p <= q <= r")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse_term("p &")

    def test_unknown_character_position(self):
        with pytest.raises(ParseError) as exc:
            parse_term("p ? q")
        assert exc.value.position == 2


TERMS = st.deferred(lambda: st.one_of(
    st.sampled_from([var("p"), var("q"), TOP, BOT]),
    st.builds(tand, TERMS, TERMS),
    st.builds(tor, TERMS, TERMS),
    st.builds(tnot, TERMS),
    st.builds(dia, TERMS),
    st.builds(box, TERMS),
))


@settings(max_examples=120, deadline=None)
@given(TERMS)
def test_format_parse_roundtrip(t):
    assert parse_term(format_term(t)) == t


class TestEvaluate:
    def test_dia_var(self, b4_leq):
        assert evaluate(dia(var("p")), {"p": 1}, build_slanted(b4_leq)) == 1

    def test_box_of_join(self, b4_leq):
        got = evaluate(parse_term("[](p|q)"), {"p": 1, "q": 2},
                       build_slanted(b4_leq))
        assert got == 3

    def test_dia_bot_on_empty(self, b4):
        sa = build_slanted(ProtoSubAlg.from_pairs(b4, []))
        assert evaluate(dia(BOT), {}, sa) == sa.delta.top

    def test_unbound_variable(self, b4_leq):
        with pytest.raises(UnboundVariable):
            evaluate(var("z"), {}, build_slanted(b4_leq))

    def test_negation_needs_table(self, chain3):
        sa = build_slanted(leq_relation(chain3))
        with pytest.raises(MissingNegation):
            evaluate(tnot(var("p")), {"p": 0}, sa)

    def test_modal_free_agrees_with_lattice(self, b4, b4_leq):
        sa = build_slanted(b4_leq)
        rng = random.Random(3)
        for _ in range(80):
            p, q = rng.randrange(4), rng.randrange(4)
            t = parse_term("(p & q) | ~p")
            want = b4.join[b4.meet[p][q]][b4.neg[p]]
            assert evaluate(t, {"p": p, "q": q}, sa) == sa.ext.embed[want]


class TestValid:
    def test_inflation_on_leq(self, b4_leq):
        sa = build_slanted(b4_leq)
        assert valid(sa, parse_inequality("p <= <>p")) == (True, None)
        assert valid(sa, parse_inequality("<>p <= p")) == (True, None)

    def test_chain_counterexample_is_lex_first(self, chain3):
        S = ProtoSubAlg.from_pairs(chain3, [(0, 2), (1, 2), (2, 2)])
        ok, witness = valid(build_slanted(S), parse_inequality("<>p <= p"))
        assert not ok
        assert witness == {"p": 0}

    def test_multivariable_order(self, b4):
        sa = build_slanted(ProtoSubAlg.from_pairs(b4, []))
        ok, witness = valid(sa, parse_inequality("<>(p & q) <= p"))
        assert not ok
        assert witness == {"p": 0, "q": 0}

    def test_rel_pairs_bound_operators(self, b4):
        # a rel b forces <>a <= b and a <= []b on every sampled instance
        rng = random.Random(10)
        for _ in range(100):
            S = ProtoSubAlg(b4, relation_from_int(4, rng.randrange(1 << 16)))
            sa = build_slanted(S)
            for a in range(4):
                for b in bits(S.rows[a]):
                    assert sa.delta.leq(sa.dia[a], sa.ext.embed[b])
                    assert sa.delta.leq(sa.ext.embed[a], sa.box[b])

    def test_negation_modes_agree_on_involutive_carrier(self, b4, b4_leq):
        sa = build_slanted(b4_leq)
        ineq = parse_inequality("~<>p <= []~p")
        assert valid(sa, ineq, neg_mode="sigma") == valid(sa, ineq, neg_mode="pi")
