import itertools
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnorm.errors import InputFormatError, MissingStructure
from subnorm.order import (
    FinLattice,
    free_boolean_algebra,
    poset_from_hasse,
    to_lattice,
    validate_poset,
)
from subnorm.subordination import (
    CLASS_TABLE,
    CLOSABLE_RULES,
    LOCAL_FLAGS,
    SYSTEM_RULES,
    Property,
    ProtoSubAlg,
    check_property,
    classify,
    close,
    close_i,
    flag_mask,
    missing_flags,
    property_holds,
    subalg_from_json,
    subalg_to_json,
)
from subnorm.harness import CarrierContext
from subnorm.harness.carriers import load_carrier
from subnorm.harness.catalog import local_flags, local_tables
from subnorm.harness.generate import (
    SUBORDINATION_RULES,
    random_relations,
    relation_from_int,
)
from oracles import (
    LOCAL_WITNESS_ORACLES,
    PROPERTY_ORACLES,
    WITNESS_ORACLES,
    close_fixpoint,
    closure_oracle,
)

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
        rng = random.Random(zlib.crc32(prop.encode()))
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


def test_sweep_witnesses_match_oracles(b4, fdl2, b8):
    """S9, SL1 and SL2 return the oracle's first witness, on seeded random
    relations and their closures under the six subordination rules."""
    for lat, count in ((b4, 120), (fdl2, 80), (b8, 40)):
        outcomes = {prop: set() for prop in WITNESS_ORACLES}
        rels = random_relations(lat, count, seed=lat.n,
                                densities=(0.1, 0.3, 0.5, 0.7))
        for S in rels + [close(S, SUBORDINATION_RULES) for S in rels]:
            for prop, oracle in WITNESS_ORACLES.items():
                want = oracle(S)
                assert check_property(S, P[prop]) == (want is None, want), (prop, S)
                outcomes[prop].add(want is None)
        assert all(seen == {True, False} for seen in outcomes.values()), (lat, outcomes)


ROW_LOCAL = (P.BOT, P.TOP, P.WO, P.AND, P.DD, P.PREC_IN_LEQ, P.LEQ_IN_PREC)
COL_LOCAL = (P.OR, P.UD, P.PROPER)


@pytest.mark.parametrize("name", ["b4", "fdl2", "b8", "v_poset"])
def test_local_witnesses_on_every_row_and_column(name, request):
    """Each local property's verdict, witness and flag on the order
    relation with one row, or one column, replaced by each mask at each
    index, against the oracle's first witness.  The order relation
    passes all ten, so each failure is at the replaced row or column."""
    carrier = request.getfixturevalue(name)
    n, up = carrier.n, getattr(carrier, "poset", carrier).up
    missing = missing_flags(carrier)
    props = [q for q in ROW_LOCAL + COL_LOCAL if not flag_mask(q) & missing]
    # the harness tabulates lattices only; a bare poset has its sweeps
    table = None
    if isinstance(carrier, FinLattice):
        table = local_tables(CarrierContext(name, carrier))
    seen = {q: set() for q in props}
    for a in range(n):
        for m in range(1 << n):
            by_row = [m if b == a else up[b] for b in range(n)]
            by_col = [up[b] & ~(1 << a) | (m >> b & 1) << a for b in range(n)]
            for rows in (by_row, by_col):
                S = ProtoSubAlg(carrier, rows)
                flags = table and local_flags(S, table)
                for q in props:
                    want = LOCAL_WITNESS_ORACLES[q.value](S)
                    assert check_property(S, q) == (want is None, want), (a, m, rows, q)
                    if table:
                        assert bool(flags & flag_mask(q)) == (want is None), (a, m, rows, q)
                    seen[q].add(want is None)
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen


def holds_or_missing(S, q) -> bool:
    try:
        return property_holds(S, q)
    except MissingStructure:
        return False


class TestLocalFlags:
    """The harness's local table of each lattice (``catalog.local_tables``),
    and the sweeps on bare posets, against the set-based oracles of the
    ten local properties."""

    @staticmethod
    def table(lat):
        return local_tables(CarrierContext("test", lat))

    @staticmethod
    def agree(S, table, seen):
        """The local flags of ``S`` read from ``table``, or from
        ``property_holds`` when there is none, against the oracles."""
        got = table and local_flags(S, table)
        missing = missing_flags(S.carrier)
        for q in ROW_LOCAL + COL_LOCAL:
            want = not flag_mask(q) & missing and PROPERTY_ORACLES[q.value](S)
            if table:
                assert bool(got & flag_mask(q)) == want, (S, q)
            else:
                assert holds_or_missing(S, q) == want, (S, q)
            seen[q].add(want)

    def test_local_flags_are_the_row_and_column_properties(self):
        assert LOCAL_FLAGS == flag_mask(*ROW_LOCAL, *COL_LOCAL)
        assert bin(LOCAL_FLAGS).count("1") == 10

    def test_exhaustive_on_chain3(self, chain3):
        seen = {q: set() for q in ROW_LOCAL + COL_LOCAL}
        table = self.table(chain3)
        for packed in range(1 << 9):
            self.agree(ProtoSubAlg(chain3, relation_from_int(3, packed)), table, seen)
        # every subset of a chain is meet- and join-closed and directed
        closed = (P.AND, P.OR, P.DD, P.UD)
        assert all(seen[q] == {True} for q in closed)
        assert all(seen[q] == {True, False} for q in seen if q not in closed), seen

    @pytest.mark.parametrize("name", ["b4", "fdl2", "b8"])
    def test_seeded_relations_and_closures(self, name):
        lat = load_carrier(name)
        seen = {q: set() for q in ROW_LOCAL + COL_LOCAL}
        table = self.table(lat)
        for S in random_relations(lat, 2000, zlib.crc32(name.encode())):
            self.agree(S, table, seen)
            self.agree(close(S, SUBORDINATION_RULES), table, seen)
        assert all(outcomes == {True, False} for outcomes in seen.values()), seen

    def test_poset_carriers(self, b4, v_poset, antichain2):
        # a lattice order handed over as a bare poset has no AND/OR, and an
        # unbounded one no BOT/TOP/PROPER; those flags are never set
        for p in (v_poset, antichain2):
            seen = {q: set() for q in ROW_LOCAL + COL_LOCAL}
            for packed in range(1 << (p.n * p.n)):
                self.agree(ProtoSubAlg(p, relation_from_int(p.n, packed)), None, seen)
            assert all(seen[q] == {False} for q in (P.AND, P.OR, P.BOT, P.TOP, P.PROPER))
        seen = {q: set() for q in ROW_LOCAL + COL_LOCAL}
        for S in random_relations(b4.poset, 1000, 3):
            self.agree(S, None, seen)
        assert all(seen[q] == {False} for q in (P.AND, P.OR))
        assert all(seen[q] == {True, False} for q in (P.BOT, P.TOP, P.PROPER))

    def test_missing_flags_match_property_holds(self, chain3, b4, v_poset):
        for carrier in (chain3, b4, b4.poset, v_poset):
            S = ProtoSubAlg(carrier, [0] * carrier.n)
            want = 0
            for q in P:
                try:
                    property_holds(S, q)
                except MissingStructure:
                    want |= flag_mask(q)
            assert missing_flags(carrier) == want, carrier

    def test_one_shot_calls_build_no_tables(self):
        # property_holds and classify decide a relation with the sweeps
        # alone, so a fresh carrier gets no 2^n tables
        lat = to_lattice(poset_from_hasse(
            8, [(v, v | 1 << i) for v in range(8) for i in range(3) if not v >> i & 1],
            [str(v) for v in range(8)]))
        S = random_relations(lat, 1, 5)[0]
        for q in P:
            try:
                property_holds(S, q)
            except MissingStructure:
                pass
        classify(S)
        assert lat.poset._tables is None


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


def reversed_indices(p):
    """The poset ``p`` with index ``i`` renamed ``n - 1 - i``."""
    n = p.n
    return validate_poset([[int(p.leq(n - 1 - a, n - 1 - b)) for b in range(n)]
                           for a in range(n)])


class TestClose:
    def test_top_rule_only(self, chain3):
        S = ProtoSubAlg.from_pairs(chain3, [])
        assert close(S, [P.TOP]).pairs() == [(2, 2)]

    def test_si_wo_example(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [(1, 1)])
        got = close(S, [P.SI, P.WO])
        assert sorted(got.pairs()) == [(0, 1), (0, 3), (1, 1), (1, 3)]

    def test_six_rule_example(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [(1, 1), (2, 2)])
        got = close(S, [P.BOT, P.TOP, P.SI, P.WO, P.AND, P.OR])
        assert sorted(got.pairs()) == [
            (0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 3),
            (2, 2), (2, 3), (3, 3)]

    def test_close_i_nesting(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [(1, 1)])
        sets = {i: set(close_i(S, i).pairs()) for i in (1, 2, 3, 4)}
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

    @staticmethod
    def _rulesets(rules):
        rules = sorted(rules, key=lambda q: q.value)
        return [frozenset(c) for k in range(len(rules) + 1)
                for c in itertools.combinations(rules, k)]

    def test_minimality_against_oracle_chain2(self, chain2):
        # every closable rule set, every relation on the two-element chain
        rulesets = self._rulesets(CLOSABLE_RULES)
        assert len(rulesets) == 256
        for packed in range(1 << 4):
            S = ProtoSubAlg(chain2, relation_from_int(2, packed))
            pairs = set(S.pairs())
            for rules in rulesets:
                got = set(close(S, rules).pairs())
                names = {q.value for q in rules}
                assert got == closure_oracle(chain2, pairs, names), (packed, names)

    def test_minimality_against_oracle_on_posets(self, v_poset, antichain2):
        # the rules that need only the order, on every relation on V, on
        # V with its indices reversed (the bottom last) and on the
        # two-element antichain
        rulesets = self._rulesets({P.SI, P.WO, P.T})
        for p in (v_poset, reversed_indices(v_poset), antichain2):
            n = p.n
            for packed in range(1 << (n * n)):
                S = ProtoSubAlg(p, relation_from_int(n, packed))
                pairs = set(S.pairs())
                for rules in rulesets:
                    got = set(close(S, rules).pairs())
                    names = {q.value for q in rules}
                    assert got == closure_oracle(p, pairs, names), (n, packed, names)

    def test_minimality_against_oracle_chain3_sampled(self, chain3):
        rng = random.Random(6)
        for _ in range(6):
            pairs = {(rng.randrange(3), rng.randrange(3))
                     for _ in range(rng.randrange(3))}
            S = ProtoSubAlg.from_pairs(chain3, pairs)
            got = set(close(S, SYSTEM_RULES[2]).pairs())
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
                        == tuple(close_fixpoint(S, SYSTEM_RULES[i])))

    def test_diamond_form_on_the_free_ba_of_three_atoms(self):
        # the 256-element carrier of iologic's three-atom queries: two
        # seeded relations of one to three pairs per rule set
        lat, _ = free_boolean_algebra(3)
        rng = random.Random(16)
        for rules in (*SYSTEM_RULES.values(), SUBORDINATION_RULES):
            for _ in range(2):
                pairs = [(rng.randrange(256), rng.randrange(256))
                         for _ in range(rng.randrange(1, 4))]
                S = ProtoSubAlg.from_pairs(lat, pairs)
                assert close(S, rules).rows == tuple(close_fixpoint(S, rules)), (pairs, rules)

    def test_filterform_matches_generic_on_small_lattices(self, b4, fdl2, b8):
        # every closable rule set containing WO and AND: close() runs the
        # diamond form when TOP and SI are in it too, the joint filter
        # step otherwise; the pairwise fixpoint is the reference, on
        # distributive carriers, on the non-distributive N5 and M3 (where
        # OR stays pairwise), and on b4, fdl2, N5 and M3 with their
        # indices reversed (where the shortcut for a row that is already
        # the filter of its lowest-index member fits only the row {top},
        # and the index order runs against the top-down walk)
        rulesets = [extra | {P.WO, P.AND}
                    for extra in self._rulesets(CLOSABLE_RULES - {P.WO, P.AND})]
        assert len(rulesets) == 64
        n5 = to_lattice(poset_from_hasse(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]))
        m3 = to_lattice(poset_from_hasse(5, [(0, 1), (0, 2), (0, 3),
                                             (1, 4), (2, 4), (3, 4)]))
        assert not n5.is_distributive and not m3.is_distributive
        rng = random.Random(14)
        reversed_lattices = [to_lattice(reversed_indices(lat.poset))
                             for lat in (b4, fdl2, n5, m3)]
        for lat in (b4, fdl2, b8, n5, m3, *reversed_lattices):
            n = lat.n
            for _ in range(40):
                pairs = [(rng.randrange(n), rng.randrange(n))
                         for _ in range(rng.randrange(2 * n))]
                S = ProtoSubAlg.from_pairs(lat, pairs)
                for rules in rulesets:
                    assert (close(S, rules).rows
                            == tuple(close_fixpoint(S, rules))), (n, pairs, rules)

    def test_terminates_within_pair_bound(self, b4):
        # worst case: a single seed pair expanded by the full rule set
        S = ProtoSubAlg.from_pairs(b4, [(2, 1)])
        close(S, CLOSABLE_RULES)  # must not raise the convergence guard


class TestProtoSubAlg:
    """A relation is one object: the carrier, its order and lattice, and
    the rows, checked once when built."""

    def test_one_row_per_element(self, b4, v_poset):
        for carrier in (b4, v_poset):
            n = carrier.n
            for rows in ([], [0] * (n - 1), [0] * (n + 1)):
                with pytest.raises(InputFormatError, match="one row per element"):
                    ProtoSubAlg(carrier, rows)

    def test_every_head_within_the_carrier(self, b4, v_poset):
        for carrier in (b4, v_poset):
            n = carrier.n
            for a in range(n):
                for head in (1 << n, 1 << (n + 3) | 1, -1):
                    rows = [0] * n
                    rows[a] = head
                    with pytest.raises(InputFormatError, match="out of carrier range"):
                        ProtoSubAlg(carrier, rows)
            assert ProtoSubAlg(carrier, [(1 << n) - 1] * n).pairs() == [
                (a, b) for a in range(n) for b in range(n)]

    def test_carrier_order_and_lattice(self, b4, v_poset):
        bowtie = poset_from_hasse(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3),
                                      (2, 4), (3, 5), (4, 5)])
        for carrier, poset, lattice in ((b4, b4.poset, b4), (v_poset, v_poset, None),
                                        (bowtie, bowtie, None)):
            S = ProtoSubAlg(carrier, [0] * carrier.n)
            assert S.carrier is carrier and S.poset is poset and S.lattice is lattice
            assert S.n == carrier.n == poset.n

    def test_rows_columns_pairs_and_equality(self, b4):
        S = ProtoSubAlg(b4, [0b0110, 0, 0b1000, 0b0011])
        assert S.rows == (0b0110, 0, 0b1000, 0b0011)
        assert S.pairs() == [(0, 1), (0, 2), (2, 3), (3, 0), (3, 1)]
        assert S.cols == (0b1000, 0b1001, 0b0001, 0b0100)
        T = ProtoSubAlg.from_pairs(b4, reversed(S.pairs()))
        assert T == S and hash(T) == hash(S)
        assert T != ProtoSubAlg(b4.poset, S.rows)
        assert repr(S) == "ProtoSubAlg(n=4, prec=[(0, 1), (0, 2), (2, 3), (3, 0), (3, 1)])"


class TestJson:
    def test_roundtrip(self, b4_leq):
        again = subalg_from_json(subalg_to_json(b4_leq))
        assert again == b4_leq

    def test_bad_pairs_rejected(self, b4, v_poset):
        with pytest.raises(InputFormatError):
            ProtoSubAlg.from_pairs(b4, [(0, 7)])
        for carrier in (b4, v_poset):
            n = carrier.n
            for pair in ((0, n), (n, 0), (-1, 0), (0, -1)):
                with pytest.raises(InputFormatError, match="out of range"):
                    ProtoSubAlg.from_pairs(carrier, [(0, 0), pair])

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
        assert S.pairs() == [(0, 1)]


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
