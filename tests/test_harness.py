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
from subnorm.harness.catalog import Inequalities
from subnorm.harness.generate import SUBORDINATION_RULES
from subnorm.harness.maximality import (
    box_minimality_failure,
    diamond_maximality_failure,
)
from subnorm.slanted import build_slanted, parse_inequality, valid
from subnorm.subordination import Property, ProtoSubAlg, close, is_subordination_algebra
from conftest import leq_relation

P = Property


def make_instance(lat, pairs, name="test"):
    return Instance(CarrierContext(name, lat), ProtoSubAlg.from_pairs(lat, pairs))


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
