import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnorm import iologic, order
from subnorm.errors import InputFormatError, ParseError, TooManyVariables
from subnorm.iologic import (
    Norm,
    NormativeSystem,
    derive,
    modal_output,
    out,
    parse_norm,
    truth_table,
)
from subnorm.order import free_boolean_algebra
from subnorm.subordination import ProtoSubAlg
from subnorm.syntax import (
    BOT,
    TOP,
    format_term,
    parse_formula,
    tand,
    term_variables,
    timp,
    tnot,
    tor,
    var,
)
from conftest import formula_of_table
from oracles import closure_output_oracle, eval_formula_oracle, out_oracle

F = parse_formula


class TestParse:
    def test_conjunction_of_negation(self):
        assert F("p & ~q") == tand(var("p"), tnot(var("q")))

    def test_precedence_imp_weakest(self):
        assert F("p -> q | r") == timp(var("p"), tor(var("q"), var("r")))

    def test_imp_right_associative(self):
        assert F("p -> q -> r") == timp(var("p"), timp(var("q"), var("r")))

    def test_error_on_dangling(self):
        with pytest.raises(ParseError):
            F("p &")

    def test_norm_line(self):
        norm = parse_norm("p & r |~ q | r")
        assert norm == Norm(F("p & r"), F("q | r"))

    def test_norm_file(self):
        text = "# preamble\np |~ q\n\nr |~ s  # trailing\n"
        N = NormativeSystem.parse(text)
        assert len(N) == 2
        assert str(N.norms[1]) == "r |~ s"

    def test_norm_file_error_names_line(self):
        with pytest.raises(ParseError) as exc:
            NormativeSystem.parse("p |~ q\np |~\n")
        assert "line 2" in str(exc.value)

    def test_format_roundtrip(self):
        for text in ["p & ~q", "p -> q -> r", "~(p | q) & T", "F | p"]:
            assert format_term(F(text)) == format_term(F(format_term(F(text))))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 4 - 1))
def test_truth_table_matches_pointwise_evaluation(v):
    f = F("(p -> q) & ~(r | F) | (p & T)")
    names = term_variables(f)
    tt = truth_table(f, names)
    for val in range(1 << len(names)):
        valuation = {name: bool(val >> i & 1) for i, name in enumerate(names)}
        assert bool(tt >> val & 1) == eval_formula_oracle(f, valuation)


class TestEntails:
    # phi entails psi iff psi is in the output of the norm T |~ phi on
    # the input T: every system weakens the output

    @staticmethod
    def entails(phi, psi):
        return out(NormativeSystem([Norm(TOP, phi)]), 1, [TOP], psi)

    def test_basic(self):
        assert self.entails(F("p & q"), F("p"))
        assert self.entails(F("p"), F("p | q"))
        assert not self.entails(F("p"), F("q"))

    def test_with_implication(self):
        assert self.entails(F("p & (p -> q)"), F("q"))

    def test_cap(self):
        with pytest.raises(TooManyVariables):
            self.entails(F("p & q"), F("r | s"))


class TestDerive:
    def test_si_then_wo(self):
        N = NormativeSystem.parse("p |~ q")
        assert derive(N, 1, (F("p & r"), F("q | r")))

    def test_empty_system_top(self):
        assert derive(NormativeSystem([]), 1, (TOP, TOP))

    def test_disjunctive_body_needs_covering_norms(self):
        # a single norm cannot reach a disjunctive body in any system,
        # but norms covering both disjuncts do exactly at the OR system
        single = NormativeSystem.parse("p |~ q")
        assert not derive(single, 1, (F("p | r"), F("q")))
        assert not derive(single, 2, (F("p | r"), F("q")))
        covering = NormativeSystem.parse("p |~ q\nr |~ q")
        assert not derive(covering, 1, (F("p | r"), F("q")))
        assert derive(covering, 2, (F("p | r"), F("q")))

    def test_semantic_countermodel_for_single_norm(self, b4):
        # valuation p,q -> u, r -> v in the four-element Boolean algebra:
        # the rules-2 closure of {(u,u)} never relates u|v to u, so the
        # disjunctive-body query is unreachable for the single norm
        from subnorm.subordination import close_i
        S = ProtoSubAlg.from_pairs(b4, [(1, 1)])
        assert not close_i(S, 2).rows[3] >> 1 & 1

    def test_monotone_in_system(self):
        rng = random.Random(20)
        atoms = ["p", "q", "r"]
        for _ in range(25):
            norms = [Norm(var(rng.choice(atoms)), var(rng.choice(atoms)))
                     for _ in range(rng.randrange(1, 3))]
            N = NormativeSystem(norms)
            query = (F("p & q"), F(rng.choice(atoms)))
            verdicts = {i: derive(N, i, query) for i in (1, 2, 3, 4)}
            assert verdicts[1] <= verdicts[2] <= verdicts[4]
            assert verdicts[1] <= verdicts[3] <= verdicts[4]

    def test_cap(self):
        N = NormativeSystem.parse("p |~ q\nr |~ s")
        with pytest.raises(TooManyVariables):
            derive(N, 1, (TOP, TOP))


class TestOut:
    def test_out1_is_upset_of_head(self):
        # over the 16 elements of the free algebra on p and q
        N = NormativeSystem.parse("p |~ q")
        atoms = ["p", "q"]
        q = truth_table(F("q"), atoms)
        got = {x for x in range(16) if out(N, 1, [F("p")], formula_of_table(x, atoms))}
        assert got == {x for x in range(16) if x & q == q}

    def test_membership_examples(self):
        N = NormativeSystem.parse("p |~ q")
        assert out(N, 1, [F("p")], F("q | r"))
        assert not out(N, 1, [], F("q"))

    def test_or_needed_for_disjunctive_input(self):
        N = NormativeSystem.parse("p |~ s\nq |~ s")
        assert not out(N, 1, [F("p | q")], F("s"))
        assert out(N, 2, [F("p | q")], F("s"))

    def test_tautologies_always_out_when_gamma_nonempty(self):
        N = NormativeSystem.parse("p |~ q")
        for i in (1, 2, 3, 4):
            assert out(N, i, [F("r")], F("q | ~q"))
            assert not out(N, i, [], F("q | ~q"))

    def test_monotone_in_gamma_and_norms(self):
        N1 = NormativeSystem.parse("p |~ q")
        N2 = NormativeSystem.parse("p |~ q\nr |~ q")
        assert not out(N1, 1, [F("r")], F("q"))
        assert out(N2, 1, [F("r")], F("q"))
        assert out(N2, 1, [F("r"), F("p")], F("q"))


def test_atom_cap_is_within_the_closure_route():
    """Each raise names its own cap, and the query cap is within what the
    closure route (``oracles.closure_output_oracle``, on the free Boolean
    algebra) can check: a query with ``_ATOM_CAP`` atoms is answered
    alike by ``derive`` and by that route in every system."""
    assert iologic._ATOM_CAP <= order._FREE_BA_CAP
    atoms = [f"p{i}" for i in range(iologic._ATOM_CAP)]
    pairs = [(var(a), var(b)) for a, b in zip(atoms, atoms[1:])]
    query = (var(atoms[0]), var(atoms[-1]))
    N = NormativeSystem.from_pairs(pairs)
    verdicts = {i: derive(N, i, query) for i in (1, 2, 3, 4)}
    assert verdicts == {i: closure_output_oracle(pairs, i, *query, atoms) for i in verdicts}
    assert set(verdicts.values()) == {True, False}
    with pytest.raises(TooManyVariables) as raised:
        derive(NormativeSystem.from_pairs(pairs + [(var("extra"), TOP)]), 1, query)
    assert raised.value.cap == iologic._ATOM_CAP
    with pytest.raises(TooManyVariables) as raised:
        free_boolean_algebra(order._FREE_BA_CAP + 1)
    assert raised.value.cap == order._FREE_BA_CAP


@pytest.mark.parametrize("gamma", [[], [F("p")]], ids=["empty", "nonempty"])
@pytest.mark.parametrize("norms, i, error", [
    ("p |~ q", 0, InputFormatError),
    ("p |~ q", 5, InputFormatError),
    ("p |~ q\nr |~ s", 1, TooManyVariables),
], ids=["system-0", "system-5", "four-atoms"])
@pytest.mark.parametrize("query", [
    lambda N, i, gamma, psi: derive(N, i, (gamma[0] if gamma else TOP, psi)),
    out,
    modal_output,
], ids=["derive", "out", "modal_output"])
def test_rejected_queries_raise(query, norms, i, error, gamma):
    # the system and the atom cap are checked before any input is met,
    # so an empty gamma (for derive, the body T) raises as well
    with pytest.raises(error):
        query(NormativeSystem.parse(norms), i, gamma, F("q"))


class TestModalOutput:
    def test_aggregates_across_bodies(self):
        N = NormativeSystem.parse("p & q |~ s")
        gamma = [F("p"), F("q")]
        assert modal_output(N, 1, gamma, F("s"))
        assert not out(N, 1, gamma, F("s"))

    def test_empty_gamma_reduces_to_top_query(self):
        N = NormativeSystem.parse("p |~ q")
        for i in (1, 2):
            assert modal_output(N, i, [], F("q")) == derive(N, i, (TOP, F("q")))

    def test_singleton_agreement(self):
        rng = random.Random(21)
        atoms = ["p", "q", "r"]
        for _ in range(30):
            norms = [Norm(F(rng.choice(atoms)), F(rng.choice(atoms)))
                     for _ in range(rng.randrange(1, 4))]
            N = NormativeSystem(norms)
            g = F(rng.choice(atoms))
            psi = F(rng.choice(atoms))
            for i in (1, 2, 3, 4):
                assert out(N, i, [g], psi) == modal_output(N, i, [g], psi)

    def test_is_derivability_of_the_conjoined_input(self):
        # every closed row is the principal filter above the closure
        # diamond, so aggregative output is the query (&gamma, psi)
        rng = random.Random(22)
        atoms = [var("p"), var("q"), var("r")]

        def formula(depth=2):
            if depth == 0 or rng.random() < 0.35:
                return rng.choice(atoms + [TOP])
            if rng.random() < 0.2:
                return tnot(formula(depth - 1))
            return rng.choice((tand, tor, timp))(formula(depth - 1), formula(depth - 1))

        for _ in range(40):
            N = NormativeSystem(Norm(formula(), formula()) for _ in range(rng.randrange(4)))
            gamma = [formula() for _ in range(rng.randrange(4))]
            psi = formula()
            conjoined = TOP
            for g in gamma:
                conjoined = tand(conjoined, g)
            for i in (1, 2, 3, 4):
                assert modal_output(N, i, gamma, psi) == derive(N, i, (conjoined, psi))


ONE_ATOM = (BOT, var("p"), tnot(var("p")), TOP)


def seeded_norms(rng, atoms):
    """One to three norms with random truth tables over ``atoms``."""
    size = 1 << (1 << len(atoms))
    return [(formula_of_table(rng.randrange(size), atoms),
             formula_of_table(rng.randrange(size), atoms))
            for _ in range(rng.randrange(1, 4))]


def seeded_query(rng, pairs, atoms):
    """A body below some norm body and a head above some norm head, or
    either one at random, so that both verdicts come up."""
    size = 1 << (1 << len(atoms))
    body, head = rng.choice(pairs)
    a, x = rng.randrange(size), rng.randrange(size)
    a = formula_of_table(a, atoms) if rng.random() < 0.3 else tand(body, formula_of_table(a, atoms))
    x = formula_of_table(x, atoms) if rng.random() < 0.3 else tor(head, formula_of_table(x, atoms))
    return a, x


class TestOutputOracle:
    """``derive``, ``out`` and ``modal_output`` against the semantic
    characterisations of out1..out4 (``oracles.out_oracle``), and the
    closure route (``oracles.closure_output_oracle``) against them on
    the same queries, so that ``close_i`` and its rule systems stay held
    to the semantics."""

    def test_derive_every_norm_set_over_one_atom(self):
        norms = [(b, h) for b in ONE_ATOM for h in ONE_ATOM]
        outcomes = Counter()
        for size in range(4):
            for pairs in combinations(norms, size):
                N = NormativeSystem.from_pairs(pairs)
                for i in (1, 2, 3, 4):
                    for a in ONE_ATOM:
                        for x in ONE_ATOM:
                            want = out_oracle(pairs, i, a, x, ["p"])
                            assert derive(N, i, (a, x)) == want, (str(N), i, a, x)
                            assert closure_output_oracle(pairs, i, a, x, ["p"]) == want
                            outcomes[i, want] += 1
        assert min(outcomes.values()) >= 1000, outcomes

    @pytest.mark.parametrize("k, count", [(2, 150), (3, 30)])
    def test_derive_seeded_norm_sets(self, k, count):
        atoms = ["p", "q", "r"][:k]
        rng = random.Random(k)
        outcomes = Counter()
        for _ in range(count):
            pairs = seeded_norms(rng, atoms)
            N = NormativeSystem.from_pairs(pairs)
            for i in (1, 2, 3, 4):
                for _ in range(12):
                    a, x = seeded_query(rng, pairs, atoms)
                    want = out_oracle(pairs, i, a, x, atoms)
                    assert derive(N, i, (a, x)) == want, (str(N), i, a, x)
                    assert closure_output_oracle(pairs, i, a, x, atoms) == want
                    outcomes[i, want] += 1
        assert min(outcomes.values()) >= count, outcomes

    @pytest.mark.parametrize("k, count", [(2, 100), (3, 15)])
    def test_out_and_modal_output(self, k, count):
        # out: some input in gamma yields psi; modal_output: the meet of
        # gamma (T when gamma is empty) yields psi
        atoms = ["p", "q", "r"][:k]
        rng = random.Random(10 + k)
        outcomes = Counter()
        for _ in range(count):
            pairs = seeded_norms(rng, atoms)
            N = NormativeSystem.from_pairs(pairs)
            for i in (1, 2, 3, 4):
                for _ in range(6):
                    queries = [seeded_query(rng, pairs, atoms) for _ in range(rng.randrange(4))]
                    gamma = [a for a, _ in queries]
                    psi = (rng.choice(queries)[1] if queries
                           else seeded_query(rng, pairs, atoms)[1])
                    conjoined = TOP
                    for g in gamma:
                        conjoined = tand(conjoined, g)
                    want = any(out_oracle(pairs, i, g, psi, atoms) for g in gamma)
                    assert out(N, i, gamma, psi) == want, (str(N), i, gamma, psi)
                    want_modal = out_oracle(pairs, i, conjoined, psi, atoms)
                    assert modal_output(N, i, gamma, psi) == want_modal, (str(N), i, gamma, psi)
                    assert want == any(closure_output_oracle(pairs, i, g, psi, atoms)
                                       for g in gamma)
                    assert closure_output_oracle(pairs, i, conjoined, psi, atoms) == want_modal
                    outcomes["out", want] += 1
                    outcomes["modal", want_modal] += 1
        assert min(outcomes.values()) >= count, outcomes


def test_consequence_operator_laws_exhaustive_two_vars():
    # up-sets realize consequence: the joint consequences of two formulas
    # are those of their meet, and the common consequences of either are
    # those of their join
    lat, _ = free_boolean_algebra(2)
    up = lat.poset.up
    for a in range(16):
        for b in range(16):
            assert up[a & b] == _generated_filter(lat, a, b)
            assert up[a | b] == up[a] & up[b]


def _generated_filter(lat, a, b):
    mask = lat.poset.up[a] | lat.poset.up[b]
    while True:
        new = mask
        for x in range(16):
            if mask >> x & 1:
                for y in range(16):
                    if mask >> y & 1:
                        new |= 1 << lat.meet[x][y]
        new = lat.poset.up_closure(new)
        if new == mask:
            return mask
        mask = new
