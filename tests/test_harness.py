import json
import random

import pytest

from subnorm.errors import InputFormatError, MissingStructure, NotMonotone, TooLarge
from subnorm.harness import (
    CATALOG,
    CHECKS_BY_NAME,
    CarrierContext,
    CheckSpec,
    GenConfig,
    Instance,
    closure_generated,
    corpus_stream,
    enumerate_relations,
    exit_code_for,
    random_relations,
    replay_counterexample,
    run_suite,
    strip_timing,
    verify_check,
    verify_prop41,
)
from subnorm.harness import maximality
from subnorm.harness.carriers import load_carrier
from subnorm.harness.catalog import Inequalities
from subnorm.harness.generate import SUBORDINATION_RULES, relation_from_int
from subnorm.harness.maximality import (
    box_minimality_failure,
    diamond_maximality_failure,
    extremal_from_tables,
    verify_by_enumeration,
)
from subnorm.order import FinLattice, FinPoset, bits
from subnorm.slanted import build_slanted, parse_inequality, valid
from subnorm.subordination import (
    Property,
    ProtoSubAlg,
    SubordRel,
    close,
    close_i,
    is_subordination_algebra,
    property_holds,
)
from conftest import leq_relation

P = Property


def make_instance(lat, pairs, name="test"):
    return Instance(CarrierContext(name, lat), ProtoSubAlg.from_pairs(lat, pairs))


def fresh_copy(lat):
    """The same lattice on a new poset object, so with empty per-carrier
    tables that a planted closure cannot leave behind for other tests."""
    p = lat.poset
    return FinLattice(FinPoset(p.up, p.labels), lat.meet, lat.join, lat.bot,
                      lat.top, lat.is_distributive, lat.is_boolean, lat.neg)


def directed_sample(lat, count, seed):
    """``count`` distinct seeded random relations that are DD and UD."""
    n = lat.n
    rng = random.Random(seed)
    seen, out = set(), []
    while len(out) < count:
        packed = rng.randrange(1 << n * n)
        if packed in seen:
            continue
        seen.add(packed)
        S = ProtoSubAlg(lat, relation_from_int(n, packed))
        if property_holds(S, P.DD) and property_holds(S, P.UD):
            out.append(S)
    return out


def all_relations(lat):
    n = lat.n
    return [ProtoSubAlg(lat, relation_from_int(n, packed))
            for packed in range(1 << n * n)]


class TestGeneration:
    def test_exhaustive_counts(self, chain2):
        assert sum(1 for _ in enumerate_relations(chain2)) == 16

    def test_exhaustive_order_deterministic(self, chain2):
        first = [S.rows for S in enumerate_relations(chain2)]
        second = [S.rows for S in enumerate_relations(chain2)]
        assert first == second

    def test_filtered_enumeration(self, chain2):
        got = list(enumerate_relations(chain2, [P.SI, P.WO]))
        assert all(is_subordination_algebra(S) or True for S in got)
        assert 0 < len(got) < 16

    def test_too_large(self, fdl2):
        with pytest.raises(TooLarge):
            next(enumerate_relations(fdl2))

    def test_b4_has_sixteen_subordination_relations(self, b4):
        got = [S for S in enumerate_relations(b4)
               if is_subordination_algebra(S)]
        assert len(got) == 16
        assert all(S.rows == close(S, SUBORDINATION_RULES).rows for S in got)

    def test_closure_generated_all_subordination(self, fdl2):
        rels = closure_generated(fdl2)
        assert len(rels) == len({S.rows for S in rels})
        assert all(is_subordination_algebra(S) for S in rels)
        assert len(rels) > 20

    def test_random_relations_deterministic(self, b8):
        a = [S.rows for S in random_relations(b8, 10, seed=7)]
        b = [S.rows for S in random_relations(b8, 10, seed=7)]
        c = [S.rows for S in random_relations(b8, 10, seed=8)]
        assert a == b
        assert a != c

    def test_corpus_stream_covers_carriers(self):
        cfg = GenConfig(carriers=("chain2", "fdl2"), samples=5)
        names = {name for name, _ in corpus_stream(cfg)}
        assert names == {"chain2", "fdl2"}


class TestVerifyCheck:
    def test_pass_and_skip(self, b4, b4_leq):
        inst = Instance(CarrierContext("b4", b4), b4_leq)
        spec = CHECKS_BY_NAME["rel-below-order-iff-inflationary-diamond"]
        assert verify_check(spec, inst) == ("pass", None)
        gated = CHECKS_BY_NAME["diamond-detects-rel"]
        empty = make_instance(b4, [])
        assert verify_check(gated, empty)[0] == "skip"

    def test_corrupted_check_reports_counterexample(self, b4, b4_leq):
        inst = Instance(CarrierContext("b4", b4), b4_leq)
        good = CHECKS_BY_NAME["rel-below-order-iff-inflationary-diamond"]
        bad = CheckSpec("negated", "intentionally wrong", "iff",
                        lhs=good.lhs, rhs=lambda i: not good.rhs(i))
        status, detail = verify_check(bad, inst)
        assert status == "fail"
        assert detail == {"lhs": True, "rhs": False}

    def test_law_failure_detail(self, b4, b4_leq):
        inst = Instance(CarrierContext("b4", b4), b4_leq)
        spec = CheckSpec("broken-law", "always false", "law",
                         law=lambda i: False)
        assert verify_check(spec, inst) == ("fail", {"law": False})

    def test_iff_rhs_matches_inequality_evaluator(self, b4, fdl2):
        # every compiled catalog inequality agrees with the generic
        # sigma/pi validity route wherever the extensions are defined;
        # the S6 equalities are compared as both directions, with the
        # sigma lifting of the negation
        specs = [s for s in CATALOG if isinstance(s.rhs, Inequalities)]
        assert len(specs) == 24
        exercised = {spec.name: 0 for spec in specs}
        rng = random.Random(23)
        for lat in (b4, fdl2):
            ctx = CarrierContext("test", lat)
            n = lat.n
            for _ in range(40):
                seed = [(rng.randrange(n), rng.randrange(n))
                        for _ in range(rng.randrange(3))]
                raw = ProtoSubAlg.from_pairs(lat, seed)
                for S in (raw, close(raw, {P.SI, P.WO}),
                          close(raw, SUBORDINATION_RULES),
                          close(raw, {P.BOT, P.TOP, P.SI, P.WO, P.AND, P.CT})):
                    inst = Instance(ctx, S)
                    sa = build_slanted(S, ctx.ext)
                    for spec in specs:
                        if not spec.precondition(inst):
                            continue
                        try:
                            want = [valid(sa, parse_inequality(text),
                                          neg_mode="sigma")[0]
                                    for text in spec.rhs.texts]
                        except NotMonotone:
                            continue
                        exercised[spec.name] += 1
                        assert spec.rhs(inst) == all(want), (spec.name, S.prec.pairs())
        assert min(exercised.values()) >= 20, exercised


class TestProp41:
    def test_leq_extremal_all_systems(self, b4_leq):
        for i in (1, 2, 3, 4):
            assert verify_prop41(b4_leq, i) == (True, None)

    def test_empty_relation(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [])
        assert verify_prop41(S, 1)[0]

    def test_requires_directed(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [(3, 1), (3, 2)])
        with pytest.raises(MissingStructure):
            verify_prop41(S, 1)

    def test_too_large(self, fdl2):
        with pytest.raises(TooLarge):
            verify_prop41(leq_relation(fdl2), 1)

    def test_injected_fault_yields_witness_map(self, b4, b4_leq):
        from subnorm.completion import dm_completion
        sa = build_slanted(b4_leq, dm_completion(b4))
        lowered = list(sa.dia)
        lowered[3] = 1  # pretend the closure diamond lost information at top
        bad = diamond_maximality_failure(b4, sa.dia, lowered, 1)
        assert bad is not None
        assert bad["reason"] in ("larger qualifying map",
                                 "closure map fails its own laws")

    def test_box_fault_detected(self, b4, b4_leq):
        from subnorm.completion import dm_completion
        sa = build_slanted(b4_leq, dm_completion(b4))
        raised = list(sa.box)
        raised[0] = 2  # a smaller qualifying map exists below this one
        bad = box_minimality_failure(b4, sa.box, raised)
        assert bad is not None

    @pytest.mark.parametrize("name, sample", [
        ("chain2", None), ("chain3", None), ("chain4", 2000), ("b4", 2000)])
    def test_tables_match_enumeration(self, name, sample):
        # every relation on a chain is directed; the larger carriers get
        # a seeded sample of directed relations
        lat = load_carrier(name)
        rels = (all_relations(lat) if sample is None
                else directed_sample(lat, sample, seed=41))
        for S in rels:
            for i in (1, 2, 3, 4):
                want = verify_by_enumeration(S, i)
                assert extremal_from_tables(S, i) == want[0], (S, i)
                assert verify_prop41(S, i) == want, (S, i)

    def test_tables_match_enumeration_on_planted_closures(self, chain4, b4,
                                                          monkeypatch):
        # A planted system-i closure makes the extremality claim fail on
        # some instances and hold on others; the table verdict must follow
        # the enumeration either way, for system i and for the other
        # systems checked after it on the same tables.  Toggling any pair
        # moves both operators; dropping a pair above a row's minimum keeps
        # the diamond and moves only the box (systems 1 and 2).  A planted
        # closure is not a function of the diamond, so each relation gets
        # fresh tables.
        rng = random.Random(5)
        outcomes = {(mode, ok): 0 for mode in ("toggle", "drop") for ok in (True, False)}
        for base in (chain4, b4):
            n = base.n
            for S in directed_sample(base, 150, seed=43):
                for mode in ("toggle", "drop"):
                    i = rng.randrange(1, 5) if mode == "toggle" else rng.choice((1, 2))
                    rows = list(close_i(S, i).rows)
                    a = rng.randrange(n)
                    if mode == "toggle":
                        x = rng.randrange(n)
                    else:
                        above = rows[a] & ~(1 << base.meet_all(rows[a]))
                        if not above:
                            continue
                        x = rng.choice(list(bits(above)))
                    rows[a] ^= 1 << x

                    def planted(T, j, i=i, rows=rows):
                        return T.with_rows(rows) if j == i else close_i(T, j)

                    monkeypatch.setattr(maximality, "close_i", planted)
                    T = ProtoSubAlg(fresh_copy(base), S.prec)
                    for j in (i, *(j for j in (1, 2, 3, 4) if j != i)):
                        want = verify_by_enumeration(T, j)[0]
                        assert extremal_from_tables(T, j) == want, (S, i, j, mode, a, x)
                    outcomes[mode, verify_by_enumeration(T, i)[0]] += 1
        assert min(outcomes.values()) >= 20, outcomes

    @pytest.mark.parametrize("law", ["_diamond_qualifies", "_box_qualifies"])
    def test_tables_match_enumeration_under_loosened_laws(self, chain4, b4, law,
                                                          monkeypatch):
        # with every monotone map counted as qualifying on one side, the
        # closure operators stop being extremal on many instances, which
        # no planted closure can reach on the box side (a box above the
        # minimal one needs a lower diamond); the table verdict must still
        # follow the enumeration
        monkeypatch.setattr(maximality, law, lambda lat, f, *i: True)
        outcomes = {True: 0, False: 0}
        for base in (chain4, b4):
            for S in directed_sample(base, 100, seed=45):
                T = ProtoSubAlg(fresh_copy(base), S.prec)
                for i in (1, 2, 3, 4):
                    want = verify_by_enumeration(T, i)[0]
                    assert extremal_from_tables(T, i) == want, (S, i)
                    outcomes[want] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_box_bound_matches_enumeration(self, chain4, b4):
        # the memoised meet of the qualifying maps above a box, against the
        # search: a qualifying map above the box lies below that meet iff
        # the search finds no smaller qualifying map
        outcomes = {True: 0, False: 0}
        for lat in (chain4, b4):
            for S in directed_sample(lat, 60, seed=44):
                tables = maximality._extremality_tables(S)
                box = build_slanted(S).box
                bound = tables.box_bound(tuple(box))
                for h in tables.qualifying("box"):
                    if all(lat.leq(x, y) for x, y in zip(box, h)):
                        minimal = box_minimality_failure(lat, box, h) is None
                        assert all(lat.leq(x, y) for x, y in zip(h, bound)) == minimal
                        outcomes[minimal] += 1
        assert min(outcomes.values()) >= 50, outcomes

    def test_planted_failure_same_witness_both_paths(self, b4, monkeypatch):
        from subnorm.completion import dm_completion
        lat = fresh_copy(b4)
        S = leq_relation(lat)

        def lowered(T, j):
            # the closure diamond at top drops to the atom 1, as in
            # test_injected_fault_yields_witness_map
            rows = list(close_i(T, j).rows)
            rows[3] |= lat.poset.up[1]
            return T.with_rows(rows)

        monkeypatch.setattr(maximality, "close_i", lowered)
        assert extremal_from_tables(S, 1) is False
        ok, witness = verify_prop41(S, 1)
        assert (ok, witness) == verify_by_enumeration(S, 1)
        sa = build_slanted(S, dm_completion(lat))
        want = diamond_maximality_failure(lat, sa.dia, [0, 1, 2, 1], 1)
        assert ok is False and witness == want

    @pytest.mark.parametrize("name, sample", [
        ("chain3", None), ("b4", 300), ("fdl2", 300)])
    def test_closure_determined_by_diamond(self, name, sample):
        # the lemma the per-diamond memo rests on: relations with the
        # same diamond (meet of each row, top for an empty row) have the
        # same close_i rows
        lat = load_carrier(name)
        n = lat.n
        if sample is None:
            groups = {}
            for S in all_relations(lat):
                dia = tuple(lat.meet_all(r) for r in S.rows)
                groups.setdefault(dia, []).append(S)
            assert len(groups) == 27
        else:
            # pair each sampled relation with relations of the same
            # diamond: singleton rows of the meet, and rows grown by
            # random elements above the meet
            rng = random.Random(47)
            groups = {}
            for _ in range(sample):
                rows = [rng.randrange(1 << n) for _ in range(n)]
                dia = tuple(lat.meet_all(r) for r in rows)
                grown = [r | (rng.randrange(1 << n) & lat.poset.up[d])
                         for r, d in zip(rows, dia)]
                groups[tuple(rows)] = [
                    ProtoSubAlg(lat, SubordRel(n, v))
                    for v in (rows, [1 << d for d in dia], grown)]
        for members in groups.values():
            for i in (1, 2, 3, 4):
                closed = {close_i(S, i).rows for S in members}
                assert len(closed) == 1, (members[0], i)


class TestRunSuite:
    def test_small_corpus_green(self):
        report = run_suite(GenConfig(carriers=("chain2",), seed=7))
        assert report["summary"]["counterexamples"] == 0
        assert report["summary"]["coverage_gaps"] == []
        assert exit_code_for(report) == 0
        assert set(report["checks"]) == {c.name for c in CATALOG}

    def test_check_selection_and_coverage_gap(self):
        report = run_suite(GenConfig(carriers=("fdl2",), samples=3),
                           check_names=["closure1-extremal"])
        assert report["summary"]["coverage_gaps"] == ["closure1-extremal"]
        assert exit_code_for(report) == 2

    def test_unknown_check_rejected(self):
        with pytest.raises(InputFormatError):
            run_suite(GenConfig(carriers=("chain2",)), check_names=["nope"])

    def test_determinism_modulo_timing(self):
        cfg = GenConfig(carriers=("chain2", "fdl2"), samples=6, seed=7)
        a = run_suite(cfg)
        b = run_suite(cfg)
        assert strip_timing(a) == strip_timing(b)
        assert json.dumps(strip_timing(a), sort_keys=True) == \
            json.dumps(strip_timing(b), sort_keys=True)

    def test_seed_changes_random_corpus(self):
        r7 = run_suite(GenConfig(carriers=("b8",), samples=4, seed=7))
        r8 = run_suite(GenConfig(carriers=("b8",), samples=4, seed=8))
        assert r7["summary"]["instances"] != r8["summary"]["instances"] or \
            strip_timing(r7) != strip_timing(r8)

    def test_skips_counted(self):
        report = run_suite(GenConfig(carriers=("chain2",)),
                           check_names=["diamond-detects-rel"])
        st = report["checks"]["diamond-detects-rel"]
        assert st["tested"] + st["skips"] == report["summary"]["instances"]
        assert st["tested"] > 0


class TestReplay:
    def test_replay_pass(self, b4_leq):
        from subnorm.subordination import subalg_to_json
        ce = {"check": "bounds-of-related-pairs",
              "instance": subalg_to_json(b4_leq)}
        verdict = replay_counterexample(ce)
        assert verdict["status"] == "pass"

    def test_replay_skip_when_gated(self, b4):
        from subnorm.subordination import subalg_to_json
        ce = {"check": "diamond-detects-rel",
              "instance": subalg_to_json(ProtoSubAlg.from_pairs(b4, []))}
        assert replay_counterexample(ce)["status"] == "skip"

    def test_replay_roundtrips_stored_counterexample_shape(self, b4, b4_leq):
        # craft a failing spec, store its counterexample, replay the
        # instance through a real check to prove the serialization works
        inst = Instance(CarrierContext("b4", b4), b4_leq)
        from subnorm.subordination import subalg_to_json
        stored = {"check": "rel-below-order-iff-inflationary-diamond",
                  "carrier": "b4",
                  "instance": subalg_to_json(inst.S),
                  "detail": {"lhs": True, "rhs": False}}
        assert replay_counterexample(stored)["status"] == "pass"

    def test_replay_rejects_malformed(self):
        with pytest.raises(InputFormatError):
            replay_counterexample({"check": "bounds-of-related-pairs"})


def test_every_catalog_entry_fires_on_default_mixed_slice():
    # a small but representative slice: every check finds at least one
    # qualifying instance (the full default corpus is exercised by the
    # acceptance suite)
    cfg = GenConfig(carriers=("b4", "fdl2", "b8"), samples=8, seed=7)
    report = run_suite(cfg)
    assert report["summary"]["coverage_gaps"] == []
    assert report["summary"]["counterexamples"] == 0
