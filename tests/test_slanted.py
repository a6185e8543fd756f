import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings

from subnorm.errors import (InputFormatError, MissingNegation, NotMonotone, ParseError,
                            UnboundVariable)
from subnorm.order import bits
from subnorm.slanted import (
    build_slanted,
    operator_tables,
    pi_extension,
    sigma_extension,
    valid,
)
from subnorm.subordination import ProtoSubAlg
from subnorm.syntax import (
    BOT,
    TOP,
    Inequality,
    box,
    dia,
    evaluate,
    format_term,
    parse_inequality,
    parse_term,
    tand,
    tnot,
    tor,
    var,
)
from subnorm.harness import CarrierContext, Instance
from subnorm.harness.catalog import _NORMAL, _REGULAR, _monotone
from subnorm.harness.generate import relation_from_int
from conftest import has_flags, leq_relation, term_trees


def dia_closed(sa):
    """Every diamond value is closed, the completion top counting as the
    empty meet."""
    closed = sa.ext.closed | 1 << sa.delta.top
    return all(closed >> v & 1 for v in sa.dia)


def box_open(sa):
    """Every box value is open, the completion bottom counting as the
    empty join."""
    open_ = sa.ext.open | 1 << sa.delta.bot
    return all(open_ >> v & 1 for v in sa.box)


class TestBuildSlanted:
    def test_leq_gives_identity(self, b4_leq):
        sa = build_slanted(b4_leq)
        assert sa.dia == (0, 1, 2, 3) and sa.box == (0, 1, 2, 3)
        assert dia_closed(sa) and box_open(sa)

    def test_empty_relation(self, b4):
        sa = build_slanted(ProtoSubAlg.from_pairs(b4, []))
        assert sa.dia == (3, 3, 3, 3)
        assert sa.box == (0, 0, 0, 0)
        assert dia_closed(sa) and box_open(sa)

    def test_chain_example(self, chain3):
        S = ProtoSubAlg.from_pairs(chain3, [(0, 2), (1, 2), (2, 2)])
        sa = build_slanted(S)
        assert sa.dia == (2, 2, 2)
        assert sa.box == (0, 0, 2)

    def test_improper_on_unbounded_base(self, antichain2):
        # meets of the two incomparable points leave the image
        S = ProtoSubAlg.from_pairs(antichain2, [(0, 0), (0, 1)])
        sa = build_slanted(S)
        assert not dia_closed(sa)

    def test_directed_instances_are_proper(self, b4):
        from subnorm.subordination import Property, property_holds
        rng = random.Random(2)
        hits = 0
        for _ in range(300):
            S = ProtoSubAlg(b4, relation_from_int(4, rng.randrange(1 << 16)))
            if property_holds(S, Property.DD) and property_holds(S, Property.UD):
                hits += 1
                sa = build_slanted(S)
                assert dia_closed(sa) and box_open(sa)
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
        return tuple(has_flags(inst, m) for m in (_monotone("dia", "box"), _REGULAR, _NORMAL))

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


@settings(max_examples=120, deadline=None)
@given(term_trees(unary=(tnot, dia, box), binary=(tand, tor)))
def test_format_parse_roundtrip(t):
    assert parse_term(format_term(t)) == t


def evaluate_in(sa, t, assignment, neg_mode="sigma"):
    """Value of ``t`` in the completion, variables assigned base elements."""
    embed = sa.ext.embed
    (value,) = evaluate(t, {name: [embed[x]] for name, x in assignment.items()}, sa.delta,
                        operator_tables(sa, t, neg_mode=neg_mode))
    return value


class TestEvaluate:
    def test_dia_var(self, b4_leq):
        assert evaluate_in(build_slanted(b4_leq), dia(var("p")), {"p": 1}) == 1

    def test_box_of_join(self, b4_leq):
        got = evaluate_in(build_slanted(b4_leq), parse_term("[](p|q)"),
                          {"p": 1, "q": 2})
        assert got == 3

    def test_dia_bot_on_empty(self, b4):
        sa = build_slanted(ProtoSubAlg.from_pairs(b4, []))
        assert evaluate_in(sa, dia(BOT), {}) == sa.delta.top

    def test_unbound_variable(self, b4_leq):
        with pytest.raises(UnboundVariable):
            evaluate_in(build_slanted(b4_leq), var("z"), {})

    def test_negation_needs_table(self, chain3):
        sa = build_slanted(leq_relation(chain3))
        with pytest.raises(MissingNegation):
            evaluate_in(sa, tnot(var("p")), {"p": 0})

    def test_modal_free_agrees_with_lattice(self, b4, b4_leq):
        sa = build_slanted(b4_leq)
        rng = random.Random(3)
        for _ in range(80):
            p, q = rng.randrange(4), rng.randrange(4)
            t = parse_term("(p & q) | ~p")
            want = b4.join[b4.meet[p][q]][b4.neg[p]]
            assert evaluate_in(sa, t, {"p": p, "q": q}) == sa.ext.embed[want]


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

    @pytest.mark.parametrize("text", ["p <= p", "~p <= p"])
    def test_unknown_negation_mode(self, b4_leq, text):
        # rejected whether or not the inequality uses ~
        with pytest.raises(InputFormatError):
            valid(build_slanted(b4_leq), parse_inequality(text), neg_mode="bogus")

    def test_witness_past_the_first_block_in_bounded_memory(self, b8):
        # 8^5 assignments; the first failure is p = 1 with q..t at the
        # bottom, assignment 4,096 in lexicographic order
        ineq = parse_inequality("p <= q | r | s | t")
        sa = build_slanted(leq_relation(b8))
        names = ["p", "q", "r", "s", "t"]
        want = next(dict(zip(names, xs)) for xs in product(range(b8.n), repeat=5)
                    if not b8.leq(xs[0], b8.join[b8.join[xs[1]][xs[2]]][b8.join[xs[3]][xs[4]]]))
        assert want == {"p": 1, "q": 0, "r": 0, "s": 0, "t": 0} and b8.bot == 0
        tracemalloc.start()
        try:
            got = valid(sa, ineq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (False, want)
        assert peak < 3 * 1024 * 1024
