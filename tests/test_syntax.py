from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnorm import cli
from subnorm.errors import MissingNegation, ParseError, UnboundVariable
from subnorm.syntax import (
    MAX_DEPTH,
    TOP,
    box,
    dia,
    evaluate,
    format_term,
    parse_formula,
    parse_inequality,
    parse_term,
    tand,
    term_variables,
    timp,
    tnot,
    tor,
    var,
)
from conftest import term_trees
from oracles import term_value_oracle


@settings(max_examples=120, deadline=None)
@given(term_trees(unary=(tnot,), binary=(tand, tor, timp)))
def test_formula_format_parse_roundtrip(t):
    assert parse_formula(format_term(t)) == t


class TestPrinter:
    def test_arrow_operand_keeps_parentheses(self):
        t = parse_formula("(p -> q) -> r")
        assert t == timp(timp(var("p"), var("q")), var("r"))
        assert format_term(t) == "(p -> q) -> r"

    def test_right_nested_arrows(self):
        assert format_term(parse_formula("p -> q -> r")) == "p -> (q -> r)"

    def test_binary_children_parenthesised(self):
        assert format_term(parse_term("~(p | q) & <>p & []T")) == "(~(p | q) & <>p) & []T"


class TestForeignTokens:
    @pytest.mark.parametrize("text, token, position", [
        ("<>p", "<>", 0), ("p & []q", "[]", 4), ("p <= q", "<=", 2)])
    def test_formula_rejects_modal_tokens(self, text, token, position):
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert exc.value.message == f"unexpected token {token!r}"
        assert exc.value.position == position

    @pytest.mark.parametrize("parse", [parse_term, parse_inequality])
    def test_modal_languages_reject_arrow(self, parse):
        with pytest.raises(ParseError) as exc:
            parse("p -> q <= p")
        assert exc.value.message == "unexpected token '->'"
        assert exc.value.position == 2

    def test_term_rejects_inequality_sign_while_parsing(self):
        with pytest.raises(ParseError) as exc:
            parse_term("p <= q")
        assert exc.value.message == "trailing input '<='"
        assert exc.value.position == 2


class TestSlice:
    """``parse_formula(text, start, end)`` reads only the slice and
    counts every position in ``text``."""

    def test_reads_only_the_slice(self):
        assert parse_formula("q |~ p & r, s", 5, 10) == tand(var("p"), var("r"))

    @pytest.mark.parametrize("start, end, message, position", [
        (3, 9, "unexpected token ')'", 7),
        (3, 7, "unexpected end of input", 7),
        (8, None, "unexpected character '#'", 9),
    ])
    def test_positions_count_in_the_whole_text(self, start, end, message, position):
        with pytest.raises(ParseError) as exc:
            parse_formula("xx p & ) #", start, end)
        assert (exc.value.message, exc.value.position) == (message, position)


class TestNestingBound:
    @pytest.mark.parametrize("parse", [parse_formula, parse_term])
    def test_parentheses(self, parse):
        assert parse("(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH) == var("p")
        with pytest.raises(ParseError) as exc:
            parse("(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1))
        assert exc.value.position == MAX_DEPTH

    @pytest.mark.parametrize("parse, prefix", [
        (parse_formula, "~"), (parse_term, "~"), (parse_term, "<>"), (parse_term, "[]")])
    def test_prefix_stack(self, parse, prefix):
        t = parse(prefix * MAX_DEPTH + "p")
        assert format_term(t) == prefix * MAX_DEPTH + "p"
        with pytest.raises(ParseError) as exc:
            parse(prefix * (MAX_DEPTH + 1) + "p")
        # the outermost operator is the one whose subterm is too deep
        assert exc.value.position == 0

    @pytest.mark.parametrize("op", ["&", "|", "->"])
    def test_binary_chain(self, op):
        ok = f" {op} ".join(["p"] * (MAX_DEPTH + 1))
        assert format_term(parse_formula(ok)).count(op) == MAX_DEPTH
        too_deep = ok + f" {op} p"
        with pytest.raises(ParseError) as exc:
            parse_formula(too_deep)
        # & and | fold to the left, so their last operator is the deep
        # one; -> folds to the right, so its first one is
        operators = [i for i in range(len(too_deep)) if too_deep.startswith(op, i)]
        assert exc.value.position == (operators[0] if op == "->" else operators[-1])

    def test_inequality_sides(self):
        deep = "(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1)
        with pytest.raises(ParseError) as exc:
            parse_inequality(f"p <= {deep}")
        assert exc.value.position == 5 + MAX_DEPTH

    def test_deepest_term_evaluates(self, b4):
        t = parse_formula("~" * MAX_DEPTH + "p")
        assert evaluate(t, {"p": [1]}, b4, {"not": b4.neg}) == [1]

    def test_cli_help_states_the_bound(self):
        assert f"deeper than {MAX_DEPTH}" in " ".join(cli.__doc__.split())


class TestEvaluate:
    def test_connectives_read_lattice_tables(self, b4):
        unary = {"not": b4.neg}
        for a in range(4):
            for b in range(4):
                h = {"p": [a], "q": [b]}
                assert evaluate(parse_formula("p -> q"), h, b4, unary) == [b4.join[b4.neg[a]][b]]
                assert evaluate(parse_formula("p & q | F"), h, b4, unary) == [b4.meet[a][b]]
                assert evaluate(parse_formula("~p | T"), h, b4, unary) == [b4.top]

    def test_modal_operators_read_unary_tables(self, b4):
        unary = {"dia": (3, 3, 2, 1), "box": (0, 0, 1, 2)}
        assert evaluate(parse_term("<>[]p"), {"p": [3]}, b4, unary) == [2]

    @pytest.mark.parametrize("text", ["~p", "p -> p"])
    def test_negation_needs_a_table(self, b4, text):
        with pytest.raises(MissingNegation):
            evaluate(parse_formula(text), {"p": [0]}, b4, {"not": None})

    def test_unbound_variable(self, b4):
        with pytest.raises(UnboundVariable):
            evaluate(var("z"), {}, b4, {})


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["b4", "fdl2"]),
       t=term_trees(unary=(tnot, dia, box), binary=(tand, tor, timp)),
       seed=st.randoms(use_true_random=False))
def test_evaluate_matches_oracle_on_every_assignment(b4, fdl2, name, t, seed):
    # random tables for ~ <> [], and every assignment of p and q
    lat = {"b4": b4, "fdl2": fdl2}[name]
    unary = {op: tuple(seed.randrange(lat.n) for _ in range(lat.n))
             for op in ("not", "dia", "box")}
    assignments = list(product(range(lat.n), repeat=2))
    column = evaluate(t, {"p": [p for p, _ in assignments], "q": [q for _, q in assignments]},
                      lat, unary)
    assert column == [term_value_oracle(t, {"p": p, "q": q}, lat, unary)
                      for p, q in assignments]


def test_term_without_variables_has_one_entry(b4):
    assert evaluate(parse_term("<>F | T"), {}, b4, {"dia": (3, 3, 3, 3)}) == [b4.top]


def test_term_variables_of_several_terms():
    assert term_variables(parse_term("<>q & p"), parse_term("r1 | p"), TOP) == ["p", "q", "r1"]
