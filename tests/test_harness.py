import gc
import json
import os
import random
import subprocess
import sys
import zlib
from collections import Counter
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest

import subnorm
from subnorm import duality
from subnorm.completion import dm_completion
from subnorm.duality import RelCondition
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
from subnorm.harness import run as runner
from subnorm.harness.run import LAYERS
from subnorm.harness.carriers import carrier_names, load_carrier
from subnorm.harness import catalog
from subnorm.harness.catalog import (
    FLAG_BITS,
    Fact,
    Local,
    _compile_inequality,
    _inequalities,
    local_tables,
)
from subnorm.harness import generate
from subnorm.harness.generate import SUBORDINATION_RULES, relation_from_int
from subnorm.order import (FinLattice, FinPoset, bits, lattice_to_json, opposite,
                           poset_from_hasse, subset_tables, to_lattice)
from subnorm.slanted import build_slanted, pi_extension, sigma_extension, valid
from subnorm.subordination import (
    LOCAL_FLAGS,
    Property,
    ProtoSubAlg,
    close,
    close_i,
    flag_mask,
    is_subordination_algebra,
    property_holds,
    subalg_to_json,
)
from subnorm.syntax import parse_inequality
from conftest import has_flags, leq_relation
from oracles import (LAW_ORACLES, LOCAL_LAW_ORACLES, check_oracle, closure_generated_oracle,
                     extremality_oracle)

P = Property


def local_sides() -> list:
    """Every ``Local`` side stated so far."""
    return [s for s in FLAG_BITS if isinstance(s, Local)]


def texts(mask: int) -> list[str]:
    """The inequality texts whose bits are in ``mask``."""
    return [o.text for o in FLAG_BITS if o.bit & mask and o.text]


def flag(inst, prop):
    """The property's truth on an instance; None when the carrier lacks
    the structure it mentions."""
    bit = flag_mask(prop)
    if has_flags(inst, bit):
        return True
    return None if inst.ctx.missing & bit else False


def extremal(S, i) -> bool:
    """Whether both closure-``i`` operators of ``S`` are extremal: bit
    ``i - 1`` of the verdict mask of ``verify_prop41``."""
    return bool(verify_prop41(S) >> (i - 1) & 1)


def extremal_bits(inst) -> list[bool]:
    """The catalog's four extremality bits of an instance, read through
    ``has_flags``: the first read decides all four."""
    return [has_flags(inst, owner.bit) for owner in catalog._EXTREMAL]


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

    def test_config_rejects_unknown_mode_and_non_int_numbers(self):
        # a misspelt mode must neither fall back to the random stream nor
        # reach the report's config
        for bad in ({"mode": "exhaustiv"}, {"mode": None}, {"samples": 2.0},
                    {"samples": "5"}, {"samples": True}, {"seed": 7.5}, {"seed": False},
                    {"seed": None}, {"max_n": 3.0}, {"max_n": True}):
            with pytest.raises(InputFormatError):
                GenConfig(carriers=("chain2",), **bad)
        for mode, count in (("exhaustive", 16), ("random", 4)):
            cfg = GenConfig(carriers=("chain2",), mode=mode, samples=3)
            assert sum(1 for _ in corpus_stream(cfg)) == count
            assert cfg.describe()["mode"] == mode

    def test_config_rejects_a_string_of_carriers(self):
        # a string would be iterated as its characters ("b", "4")
        for bad in ("b4", "chain2"):
            with pytest.raises(InputFormatError, match="not a str"):
                GenConfig(carriers=bad)
        for good in (("b4",), ["b4"]):
            assert GenConfig(carriers=good).describe()["carriers"] == ["b4"]

    def test_config_rejects_a_carrier_name_that_is_not_a_str(self):
        # it would reach load_carrier and fail there with an AttributeError
        for bad, kind in ((("b4", 3), "int"), ((None,), "NoneType"),
                          ((("b4",),), "tuple")):
            with pytest.raises(InputFormatError, match=f"must be a str, not {kind}"):
                GenConfig(carriers=bad)

    def test_corpus_stream_covers_carriers(self):
        cfg = GenConfig(carriers=("chain2", "fdl2"), samples=5)
        names = {name for name, _ in corpus_stream(cfg)}
        assert names == {"chain2", "fdl2"}


class TestClosureMemo:
    """The closure-generated corpus depends on the lattice and the seed
    count alone, so each is closed once per lattice object."""

    @pytest.mark.parametrize("name", ["chain2", "chain3", "chain4", "b4", "fdl2", "b8"])
    def test_matches_closing_every_seed_afresh(self, name):
        lat = load_carrier(name)
        for k in (0, 1, 2):
            got = closure_generated(lat, k)
            assert [S.rows for S in got] == closure_generated_oracle(lat, k), (name, k)
            assert all(S.carrier is lat for S in got)
            assert closure_generated(lat, k) is got

    def test_a_repeated_stream_closes_only_its_random_relations(self, monkeypatch):
        cfg = GenConfig(carriers=("chain4", "fdl2", "b8"), mode="random", samples=7)
        first = [(name, S.rows) for name, S in corpus_stream(cfg)]
        calls = []
        monkeypatch.setattr(generate, "close",
                            lambda *args, close=generate.close: calls.append(1) or close(*args))
        assert [(name, S.rows) for name, S in corpus_stream(cfg)] == first
        assert len(calls) == len(cfg.carriers) * cfg.samples

    def test_keyed_by_the_lattice_not_its_size(self, fdl2):
        chain6 = to_lattice(poset_from_hasse(6, [(i, i + 1) for i in range(5)]))
        copy = fresh_copy(fdl2)
        for lat in (fdl2, chain6, copy):
            got = closure_generated(lat)
            assert [S.rows for S in got] == closure_generated_oracle(lat, 2)
            assert all(S.carrier is lat for S in got)
        assert closure_generated(chain6) is not closure_generated(fdl2)


class TestJsonCarriers:
    """A JSON carrier is read as the file is now; while the file is
    unchanged, every call returns the same lattice object."""

    @staticmethod
    def write(path, name):
        path.write_text(json.dumps(lattice_to_json(load_carrier(name))))

    def test_a_rewritten_file_is_read_again(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, instances in (("chain2", 16), ("chain3", 512), ("chain2", 16)):
            self.write(tmp_path / "lat.json", name)
            report = run_suite(GenConfig(carriers=("lat.json",)), ["bounds-of-related-pairs"])
            assert report["summary"]["instances"] == instances, name

    def test_one_name_in_two_directories(self, tmp_path, monkeypatch):
        for name in ("chain2", "chain3"):
            (tmp_path / name).mkdir()
            self.write(tmp_path / name / "lat.json", name)
        for name, n in (("chain2", 2), ("chain3", 3), ("chain2", 2)):
            monkeypatch.chdir(tmp_path / name)
            assert load_carrier("lat.json").n == n

    def test_an_unchanged_file_is_one_lattice(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.write(tmp_path / "lat.json", "fdl2")
        lat = load_carrier("lat.json")
        assert load_carrier(str(tmp_path / "lat.json")) is lat
        cfg = GenConfig(carriers=("lat.json",), samples=3)
        assert all(S.carrier is lat for _, S in corpus_stream(cfg))
        corpus = closure_generated(lat)
        closes = []
        monkeypatch.setattr(generate, "close",
                            lambda *args, close=generate.close: closes.append(1) or close(*args))
        for _ in range(2):
            run_suite(cfg, ["bounds-of-related-pairs"])
        assert load_carrier("lat.json") is lat
        # the runs read the lattice's own corpus and close only their
        # random relations
        assert closure_generated(lat) is corpus
        assert len(closes) == 2 * cfg.samples

    def test_a_rewritten_file_leaves_no_old_lattice(self, tmp_path, monkeypatch):
        # each rewrite names its elements apart, in a file of a new size,
        # and a random-mode run over all checks builds the lattice's
        # corpus, its tables and its opposite
        monkeypatch.chdir(tmp_path)
        for i in range(5):
            obj = lattice_to_json(load_carrier(("fdl2", "b4")[i % 2]))
            obj["elements"] = [f"rewrite{i}{'.' * i}:{label}" for label in obj["elements"]]
            (tmp_path / "lat.json").write_text(json.dumps(obj))
            run_suite(GenConfig(carriers=("lat.json",), mode="random", samples=3))
        gc.collect()
        alive = [o for o in gc.get_objects() if isinstance(o, FinLattice)
                 and str(o.poset.labels).startswith("('rewrite")]
        assert {o.poset.labels[0].partition(":")[0] for o in alive} == {"rewrite4...."}
        lat = load_carrier("lat.json")
        assert {id(o) for o in alive} == {id(lat), id(opposite(lat))}


#: a test-owned fact: the diamond is not inflationary (``a <= <>a`` fails)
NOT_INFLATIONARY = Fact(lambda inst: not _compile_inequality("a <= <>a").holds(inst))


class TestVerifyCheck:
    def test_pass_and_skip(self, b4, b4_leq):
        inst = Instance(CarrierContext("b4", b4), b4_leq)
        spec = CHECKS_BY_NAME["rel-below-order-iff-inflationary-diamond"]
        assert runner._verdict(spec, inst) == ("pass", None)
        # the empty relation fails the precondition (replayed as a skip in
        # test_replay_skip_when_gated)
        gated = CHECKS_BY_NAME["diamond-detects-rel"]
        assert runner._verdict(gated, make_instance(b4, [])) == ("skip", None)
        assert not has_flags(make_instance(b4, []), gated.precondition)

    def test_corrupted_check_reports_counterexample(self, b4, b4_leq):
        inst = Instance(CarrierContext("b4", b4), b4_leq)
        good = CHECKS_BY_NAME["rel-below-order-iff-inflationary-diamond"]
        bad = CheckSpec("negated", "intentionally wrong", "iff",
                        lhs=good.lhs, rhs=NOT_INFLATIONARY.bit)
        want = check_oracle("iff", Instance(inst.ctx, b4_leq),
                            lhs=lambda i: has_flags(i, good.lhs), rhs=NOT_INFLATIONARY.test)
        assert runner._verdict(bad, inst) == want == ("fail", {"lhs": True, "rhs": False})

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
        specs = [s for s in CATALOG if s.rhs and texts(s.rhs)]
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
                    sa = build_slanted(S)
                    for spec in specs:
                        if not has_flags(inst, spec.precondition):
                            continue
                        try:
                            want = [valid(sa, parse_inequality(text),
                                          neg_mode="sigma")[0]
                                    for text in texts(spec.rhs)]
                        except NotMonotone:
                            continue
                        exercised[spec.name] += 1
                        assert has_flags(inst, spec.rhs) == all(want), (spec.name, S.pairs())
        assert min(exercised.values()) >= 20, exercised


class TestProp41:
    """``verify_prop41`` against the exhaustive ``extremality_oracle``.
    A planted closure replaces ``close_i`` for the tables and is passed
    to the oracle; a planted closure is not a function of the diamond,
    so each planted instance lives on a fresh copy of its carrier."""

    def test_leq_extremal_all_systems(self, b4_leq):
        for i in (1, 2, 3, 4):
            assert extremal(b4_leq, i) is True
            assert extremality_oracle(b4_leq, i) is None

    def test_empty_relation(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [])
        assert extremal(S, 1) is True
        assert extremality_oracle(S, 1) is None

    def test_requires_directed(self, b4):
        S = ProtoSubAlg.from_pairs(b4, [(3, 1), (3, 2)])
        with pytest.raises(MissingStructure):
            verify_prop41(S)

    def test_too_large(self, fdl2):
        with pytest.raises(TooLarge):
            verify_prop41(leq_relation(fdl2))

    def test_injected_fault_yields_witness_map(self, b4, b4_leq, monkeypatch):
        # the closure diamond loses information at the top: dia_i[3] = 1
        S = ProtoSubAlg(fresh_copy(b4), b4_leq.rows)

        def lowered(T, j):
            rows = list(close_i(T, j).rows)
            rows[3] |= b4.poset.up[1]
            return ProtoSubAlg(T.carrier, rows)

        monkeypatch.setattr(maximality, "close_i", lowered)
        for i in (1, 2, 3, 4):
            assert extremal(S, i) is False
            side, witness = extremality_oracle(S, i, close=lowered)
            assert side == "diamond" and len(witness) == 4

    def test_box_fault_detected(self, b4, b4_leq, monkeypatch):
        # the closure box rises at the bottom: box_i[0] = 2.  No relation
        # raises that box without lowering the diamond, so the planted
        # closure's columns disagree with its rows and only the box moves
        S = ProtoSubAlg(fresh_copy(b4), b4_leq.rows)

        def raised(T, j):
            closed = close_i(T, j)
            cols = list(closed.cols)
            cols[0] |= 1 << 2
            return SimpleNamespace(rows=closed.rows, cols=tuple(cols))

        monkeypatch.setattr(maximality, "close_i", raised)
        assert extremal(S, 1) is False
        assert extremality_oracle(S, 1, close=raised) == ("box", (2, 1, 2, 3))

    @pytest.mark.parametrize("name, sample", [
        ("chain2", None), ("chain3", None), ("chain4", 2000), ("b4", 2000)])
    def test_tables_match_enumeration(self, name, sample):
        # every relation on a chain is directed; the larger carriers get
        # a seeded sample of directed relations.  The runner reads the
        # four verdicts as the catalog's four extremality bits.
        lat = load_carrier(name)
        ctx = CarrierContext(name, lat)
        rels = (all_relations(lat) if sample is None
                else directed_sample(lat, sample, seed=41))
        for S in rels:
            want = [extremality_oracle(S, i) is None for i in (1, 2, 3, 4)]
            assert [extremal(S, i) for i in (1, 2, 3, 4)] == want, S
            assert extremal_bits(Instance(ctx, S)) == want, S

    def test_tables_match_enumeration_on_planted_closures(self, chain4, b4,
                                                          monkeypatch):
        # A planted system-i closure makes the extremality claim fail on
        # some instances and hold on others; the table verdict must follow
        # the oracle either way, for system i and for the other systems
        # checked after it on the same tables.  Toggling any pair moves
        # both operators; dropping a pair above a row's minimum keeps the
        # diamond and moves only the box (systems 1 and 2).
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
                        return ProtoSubAlg(T.carrier, rows) if j == i else close_i(T, j)

                    monkeypatch.setattr(maximality, "close_i", planted)
                    T = ProtoSubAlg(fresh_copy(base), S.rows)
                    for j in (i, *(j for j in (1, 2, 3, 4) if j != i)):
                        want = extremality_oracle(T, j, close=planted) is None
                        assert extremal(T, j) == want, (S, i, j, mode, a, x)
                    outcomes[mode, extremality_oracle(T, i, close=planted) is None] += 1
        assert min(outcomes.values()) >= 20, outcomes

    @pytest.mark.parametrize("law", ["_diamond_qualifies", "_box_qualifies"])
    def test_tables_match_enumeration_under_loosened_laws(self, chain4, b4, law,
                                                          monkeypatch):
        # with every monotone map counted as qualifying on one side, the
        # closure operators stop being extremal on many instances, which
        # no planted relation can reach on the box side (a box above the
        # minimal one needs a lower diamond); the table verdict must still
        # follow the oracle under the same loosened law
        def loose(lat, f, *i):
            return True

        monkeypatch.setattr(maximality, law, loose)
        laws = {"diamond_law" if law == "_diamond_qualifies" else "box_law": loose}
        outcomes = {True: 0, False: 0}
        for base in (chain4, b4):
            for S in directed_sample(base, 100, seed=45):
                T = ProtoSubAlg(fresh_copy(base), S.rows)
                for i in (1, 2, 3, 4):
                    want = extremality_oracle(T, i, **laws) is None
                    assert extremal(T, i) == want, (S, i)
                    outcomes[want] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_box_bound_matches_enumeration(self, chain4, b4, monkeypatch):
        # the memoised meet of the qualifying maps above a box: plant each
        # qualifying map h above the box as the system-1 and system-2
        # closure box (the diamond stays the true one); h passes iff it is
        # the least qualifying map above the box
        outcomes = {True: 0, False: 0}
        for lat in (chain4, b4):
            tables = maximality._extremality_tables(leq_relation(lat))
            for S in directed_sample(lat, 60, seed=44):
                box = build_slanted(S).box
                for h in tables.qualifying("box"):
                    if not all(lat.leq(x, y) for x, y in zip(box, h)):
                        continue

                    def planted(T, j, h=h):
                        return SimpleNamespace(rows=close_i(T, j).rows,
                                               cols=tuple(1 << y for y in h))

                    monkeypatch.setattr(maximality, "close_i", planted)
                    T = ProtoSubAlg(fresh_copy(lat), S.rows)
                    for j in (1, 2):
                        want = extremality_oracle(T, j, close=planted) is None
                        assert extremal(T, j) == want, (S, h, j)
                        outcomes[want] += 1
        assert min(outcomes.values()) >= 50, outcomes

    def test_planted_failure_same_witness_both_paths(self, b4, monkeypatch):
        lat = fresh_copy(b4)
        S = leq_relation(lat)

        def lowered(T, j):
            # the closure diamond at top drops to the atom 1, as in
            # test_injected_fault_yields_witness_map
            rows = list(close_i(T, j).rows)
            rows[3] |= lat.poset.up[1]
            return ProtoSubAlg(T.carrier, rows)

        monkeypatch.setattr(maximality, "close_i", lowered)
        assert extremal(S, 1) is False
        # the lowered diamond is not monotone (2 <= 3 but 2 is not below 1)
        assert extremality_oracle(S, 1, close=lowered) == ("diamond", (0, 1, 2, 1))

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
                    ProtoSubAlg(lat, v)
                    for v in (rows, [1 << d for d in dia], grown)]
        for members in groups.values():
            for i in (1, 2, 3, 4):
                closed = {close_i(S, i).rows for S in members}
                assert len(closed) == 1, (members[0], i)


def dia_box(S) -> tuple:
    """The unclosed diamond and box of ``S``: the meet of each row and
    the join of each column."""
    lat = S.lattice
    return (tuple(lat.meet_all(r) for r in S.rows), tuple(lat.join_all(c) for c in S.cols))


class TestExtremalityFlags:
    """The four ``closure*-extremal`` bits, decided together per
    instance through the carrier's verdict table, and the table's miss
    path."""

    def test_bits_follow_the_box_under_a_loosened_box_law(self, chain2, chain3, chain4, b4,
                                                          monkeypatch):
        # with every monotone map counted as a qualifying box, systems 1
        # and 2 fail on some boxes and hold on others, so relations that
        # share a diamond but differ in box get different verdicts from
        # one carrier's table, which a table indexed on the diamond alone
        # would give the same verdict.  (``extremal_flags`` moves the
        # verdict mask up to the first bit, so the four are consecutive.)
        assert [o.bit for o in catalog._EXTREMAL] == [
            catalog._EXTREMAL[0].bit << k for k in range(4)]

        def loose(lat, g):
            return True

        monkeypatch.setattr(maximality, "_box_qualifies", loose)
        split = 0
        for lat, rels in ((chain2, all_relations(chain2)), (chain3, all_relations(chain3)),
                          (chain4, directed_sample(chain4, 300, seed=48)),
                          (b4, directed_sample(b4, 300, seed=49))):
            copy = fresh_copy(lat)
            ctx = CarrierContext("loosened", copy)
            by_dia = {}
            for S in rels:
                T = ProtoSubAlg(copy, S.rows)
                want = [extremality_oracle(T, i, box_law=loose) is None for i in (1, 2, 3, 4)]
                assert extremal_bits(Instance(ctx, T)) == want, S
                dia, box = dia_box(T)
                by_dia.setdefault(dia, {})[box] = tuple(want)
            split += sum(len(set(boxes.values())) > 1 for boxes in by_dia.values())
        assert split >= 10, split

    def test_miss_path_runs_once_per_carrier_diamond_box(self, monkeypatch):
        cfg = GenConfig(carriers=("chain3", "chain4", "b4"), mode="random", samples=40)
        for name in cfg.carriers:
            # start from empty verdict tables, whatever ran before
            monkeypatch.delitem(subset_tables(load_carrier(name).poset), "extremality",
                                raising=False)
        misses = []
        real = maximality._ExtremalityTables.decide

        def decide(self, S, index):
            misses.append((S.lattice, *dia_box(S)))
            return real(self, S, index)

        monkeypatch.setattr(maximality._ExtremalityTables, "decide", decide)
        report = run_suite(cfg)
        assert report["summary"]["counterexamples"] == 0
        directed = {(load_carrier(name), *dia_box(S)) for name, S in corpus_stream(cfg)
                    if S.n <= 4 and property_holds(S, P.DD) and property_holds(S, P.UD)}
        assert len(misses) == len(set(misses)) == len(directed)
        assert set(misses) == directed
        layers = report["timing"]["layers"]
        assert layers["extremality"]["builds"] == report["checks"]["closure1-extremal"]["tested"]

    def test_interrupted_miss_leaves_the_entry_undecided(self, b4, monkeypatch):
        # a miss that stops partway (here a closure that raises for
        # system 3) must not leave the systems it decided behind as the
        # entry's verdict
        S = leq_relation(fresh_copy(b4))

        def failing(T, j):
            if j == 3:
                raise RuntimeError("planted")
            return close_i(T, j)

        monkeypatch.setattr(maximality, "close_i", failing)
        with pytest.raises(RuntimeError):
            verify_prop41(S)
        monkeypatch.setattr(maximality, "close_i", close_i)
        assert verify_prop41(S) == 0b1111
        assert all(extremality_oracle(S, i) is None for i in (1, 2, 3, 4))


class TestLawOracles:
    """The directed-family and bound-reflection laws against their
    per-pair statements in the completion, on relations, their SI/WO
    closures and their subordination closures.  Each table is planted as
    the instance's diamond or box and handed to the oracle as its sigma
    or pi extension: a random table, the true extension
    (``slanted.sigma_extension``/``pi_extension``) and the true
    extension with one value moved."""

    @staticmethod
    def planted_tables(inst, table, rng):
        if table is None:
            return [None]
        size = inst.n
        out = [tuple(rng.randrange(size) for _ in range(size))]
        sa = build_slanted(inst.S)
        try:
            true = sigma_extension(sa) if table == "dia" else pi_extension(sa)
        except NotMonotone:
            return out
        moved = list(true)
        moved[rng.randrange(size)] = rng.randrange(size)
        return out + [true, tuple(moved)]

    @pytest.mark.parametrize("name", sorted(LAW_ORACLES))
    def test_law_matches_oracle(self, name, chain4, b4, fdl2, b8):
        oracle, table = LAW_ORACLES[name]
        law = CHECKS_BY_NAME[name].law
        rng = random.Random(zlib.crc32(name.encode()))
        outcomes = {}
        for lat, count in ((chain4, 32), (b4, 32), (fdl2, 20), (b8, 12)):
            ctx = CarrierContext("test", lat)
            rels = random_relations(lat, count, seed=rng.randrange(1 << 16))
            rels += [close(S, rules) for S in rels
                     for rules in ({P.SI, P.WO}, SUBORDINATION_RULES)]
            for S in rels:
                for planted in self.planted_tables(Instance(ctx, S), table, rng):
                    inst, extension = Instance(ctx, S), ()
                    if table is not None:
                        dia, box = inst.operators
                        inst._operators = (planted, box) if table == "dia" else (dia, planted)
                        extension = (planted,)
                    got = law(inst)
                    assert got == oracle(inst, *extension), (name, S, planted)
                    outcomes[got] = outcomes.get(got, 0) + 1
        assert outcomes.get(True, 0) >= 10 and outcomes.get(False, 0) >= 10, outcomes


#: the checks whose every side is a row or column test
LOCAL_CHECKS = (
    "bounds-of-related-pairs", "diamond-detects-rel", "box-detects-rel",
    "and-implies-downdirected", "or-implies-updirected",
    "downdirected-iff-and-under-wo", "updirected-iff-or-under-si",
    "bot-rule-grounds-diamond", "top-rule-caps-box",
    "bot-iff-diamond-grounded", "top-iff-box-capped",
    "rel-below-order-iff-inflationary-diamond", "rel-below-order-iff-deflationary-box",
    "order-below-rel-iff-deflationary-diamond",
)


def flag_oracle(S, q) -> bool:
    try:
        return property_holds(S, q)
    except MissingStructure:
        return False


class OracleFlags(dict):
    """The properties of one relation, from ``flag_oracle`` on first use."""

    def __init__(self, S):
        super().__init__()
        self.S = S

    def __missing__(self, q) -> bool:
        self[q] = flag_oracle(self.S, q)
        return self[q]


def negation_laws(lat) -> set:
    """The laws of the carrier's negation, from their definitions."""
    neg, leq, n = lat.neg, lat.leq, lat.n
    if neg is None:
        return set()
    pairs = [(a, b) for a in range(n) for b in range(n)]
    laws = {
        "antitone": all(leq(neg[b], neg[a]) for a, b in pairs if leq(a, b)),
        "involutive": all(neg[neg[a]] == a for a in range(n)),
        "left": all(leq(neg[a], b) == leq(neg[b], a) for a, b in pairs),
        "right": all(leq(a, neg[b]) == leq(b, neg[a]) for a, b in pairs),
    }
    return {law for law, holds in laws.items() if holds}


@lru_cache(maxsize=None)
def carrier_facts(lat) -> dict:
    """The conditions on the carrier alone that the catalog's
    preconditions state, each from its definition."""
    n, leq = lat.n, lat.leq
    below = [{x for x in range(n) if leq(x, a)} for a in range(n)]
    above = [{x for x in range(n) if leq(a, x)} for a in range(n)]
    # every pair has a greatest lower and a least upper bound
    lattice = all(any(below[a] & below[b] == below[m] for m in below[a] & below[b])
                  and any(above[a] & above[b] == above[j] for j in above[a] & above[b])
                  for a in range(n) for b in range(n))
    meet, join = lat.meet, lat.join
    laws = negation_laws(lat)
    return {
        "lattice": lattice,
        "distributive": lattice and all(
            meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
            for a in range(n) for b in range(n) for c in range(n)),
        "subset scans": n <= 8,
        "map scans": n <= 4,
        "involutive adjoint negation": {"antitone", "involutive"} <= laws
                                       and bool(laws & {"left", "right"}),
        "left-adjoint negation": {"antitone", "left"} <= laws,
        "right-adjoint negation": {"antitone", "right"} <= laws,
    }


def _pre(*rules, rows=False, cols=False, carrier=()):
    """A precondition from the relation's flags ``h`` (``OracleFlags``),
    its rows and columns, and the carrier's facts ``c``."""
    return lambda h, S, c: (all(c[k] for k in carrier) and all(h[q] for q in rules)
                            and (not rows or all(S.rows)) and (not cols or all(S.cols)))


_WO_DD_SERIAL = _pre(P.WO, P.DD, rows=True)
_SI_UD_SERIAL = _pre(P.SI, P.UD, cols=True)
_DIA_CLASS = _pre(P.SI, P.DD, P.WO, rows=True)
_BOX_CLASS = _pre(P.SI, P.UD, P.WO, cols=True)

#: every check's precondition, stated apart from the catalog
PRECONDITIONS = {
    **dict.fromkeys(("bounds-of-related-pairs", "si-makes-diamond-monotone",
                     "wo-makes-box-monotone", "rel-below-order-iff-inflationary-diamond",
                     "rel-below-order-iff-deflationary-box"), _pre()),
    **dict.fromkeys(("or-implies-updirected", "and-implies-downdirected",
                     "and-makes-box-multiplicative-ud", "or-makes-diamond-additive-dd",
                     "bot-rule-grounds-diamond", "top-rule-caps-box"),
                    _pre(carrier=("lattice",))),
    "updirected-iff-or-under-si": _pre(P.SI),
    "downdirected-iff-and-under-wo": _pre(P.WO),
    **dict.fromkeys(("and-makes-box-multiplicative-dl", "or-makes-diamond-additive-dl"),
                    _pre(carrier=("distributive",))),
    **dict.fromkeys(("diamond-detects-rel", "si-iff-diamond-monotone",
                     "or-iff-diamond-additive", "bot-iff-diamond-grounded",
                     "order-below-rel-iff-deflationary-diamond"), _WO_DD_SERIAL),
    **dict.fromkeys(("box-detects-rel", "wo-iff-box-monotone", "and-iff-box-multiplicative",
                     "top-iff-box-capped"), _SI_UD_SERIAL),
    **dict.fromkeys(("monotone-transfer", "regular-transfer", "normality-transfer"),
                    _pre(P.WO, P.DD, P.SI, P.UD, rows=True, cols=True)),
    **dict.fromkeys(("directed-image-directed", "diamond-of-meet"),
                    _pre(P.SI, P.DD, P.WO, carrier=("subset scans",))),
    **dict.fromkeys(("diamond-bound-reflects", "diamond-open-bound-reflects",
                     "t-iff-diamond-expanding", "d-iff-diamond-collapsing"), _DIA_CLASS),
    **dict.fromkeys(("codirected-preimage-directed", "box-of-join"),
                    _pre(P.WO, P.UD, P.SI, carrier=("subset scans",))),
    **dict.fromkeys(("box-bound-reflects", "box-closed-bound-reflects",
                     "s9fwd-iff-box-join-absorption", "s9bwd-iff-box-join-coabsorption",
                     "sl1-iff-box-join-distribution"), _BOX_CLASS),
    **dict.fromkeys(("ct-iff-diamond-contraction", "sl2-iff-diamond-meet-distribution"),
                    _pre(P.WO, P.DD, P.SI, rows=True, carrier=("lattice",))),
    "ct-implies-t-under-si": _pre(P.SI, carrier=("lattice",)),
    **dict.fromkeys(("s6-iff-negated-diamond-is-box", "s6-iff-diamond-neg-is-neg-box"),
                    _pre(P.WO, P.DD, P.SI, P.UD, rows=True, cols=True,
                         carrier=("involutive adjoint negation",))),
    **{f"closure{i}-extremal": _pre(P.DD, P.UD, carrier=("map scans", "distributive"))
       for i in (1, 2, 3, 4)},
    **dict.fromkeys(("two-space-constructions-isomorphic", "rel-below-order-iff-space-reflexive",
                     "d-iff-space-transitive", "t-iff-space-dense", "properness-matches-space",
                     "ct-relational-correspondence", "s9-relational-correspondence",
                     "sl1-relational-correspondence", "sl2-relational-correspondence"),
                    _pre(*SUBORDINATION_RULES, carrier=("distributive",))),
    "sigma-negation-extension-laws": _pre(carrier=("left-adjoint negation",)),
    "pi-negation-extension-laws": _pre(carrier=("right-adjoint negation",)),
}


def precondition_oracle(name: str):
    """The check's precondition on an instance, from ``PRECONDITIONS``."""
    return lambda inst: PRECONDITIONS[name](OracleFlags(inst.S), inst.S, carrier_facts(inst.lat))


#: algebra JSON of the carriers beyond the built-ins: a 12-element chain
#: (above both size caps and the table cap), the pentagon N5 with its
#: pseudocomplement (antitone and right-self-adjoint, not involutive)
#: and the diamond M3, the two lattices that are not distributive
JSON_CARRIERS = {
    "chain12": {"elements": [str(i) for i in range(12)],
                "hasse": [[i, i + 1] for i in range(11)]},
    "n5": {"elements": ["0", "a", "b", "c", "1"],
           "hasse": [[0, 1], [1, 2], [2, 4], [0, 3], [3, 4]], "neg": [4, 3, 3, 2, 0]},
    "m3": {"elements": ["0", "x", "y", "z", "1"],
           "hasse": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]},
}


def json_carrier(tmp_path, name: str):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(JSON_CARRIERS[name]))
    return load_carrier(str(path))


class TestCarrierIsItsOwnCompletion:
    """The fact the runner computes on: every harness carrier is a finite
    lattice, its own canonical extension, so the operators that an
    ``Instance`` reads in the carrier are the ones ``slanted`` builds
    through the completion, and each monotone operator is its own sigma
    or pi extension.  On every built-in, N5, M3 and a chain above the
    table cap."""

    @staticmethod
    def carriers(tmp_path):
        out = [(name, load_carrier(name)) for name in carrier_names()]
        return out + [(name, json_carrier(tmp_path, name)) for name in ("n5", "m3", "chain12")]

    def test_completion_is_the_identity(self, tmp_path):
        for name, lat in self.carriers(tmp_path):
            c = dm_completion(lat)
            assert c.embed == tuple(range(lat.n)), name
            assert c.closed == c.open == (1 << lat.n) - 1, name
            assert c.delta.poset.up == lat.poset.up, name

    def test_operators_are_the_slanted_ones_and_their_extensions(self, tmp_path):
        outcomes = Counter()
        for name, lat in self.carriers(tmp_path):
            ctx = CarrierContext(name, lat)
            rels = random_relations(lat, 12, zlib.crc32(name.encode()), (0.1, 0.3, 0.6))
            rels += [close(S, rules) for S in list(rels)
                     for rules in ({P.SI, P.WO}, SUBORDINATION_RULES)]
            for S in rels:
                inst, sa = Instance(ctx, S), build_slanted(S)
                assert (inst.dia, inst.box) == (sa.dia, sa.box), (name, S)
                for op, extension in (("dia", sigma_extension), ("box", pi_extension)):
                    try:
                        table = extension(sa)
                    except NotMonotone:
                        outcomes[op, "not monotone"] += 1
                        continue
                    assert table == getattr(inst, op), (name, S, op)
                    outcomes[op, "monotone"] += 1
        assert len(outcomes) == 4 and min(outcomes.values()) >= 20, outcomes


class TestPreconditions:
    """Every check's precondition against ``PRECONDITIONS``, on carriers
    where each carrier condition is both true and false somewhere."""

    def test_every_check_has_an_oracle(self):
        assert set(PRECONDITIONS) == set(CHECKS_BY_NAME)

    def test_preconditions_match_oracles(self, chain3, b4, fdl2, b8, tmp_path):
        carriers = [("chain3", chain3), ("b4", b4), ("fdl2", fdl2), ("b8", b8)]
        carriers += [(name, json_carrier(tmp_path, name)) for name in JSON_CARRIERS]
        seen = {name: set() for name in PRECONDITIONS}
        for name, lat in carriers:
            ctx, facts = CarrierContext(name, lat), carrier_facts(lat)
            if name == "chain3":
                rels = list(all_relations(lat))
            else:
                rels = random_relations(lat, 24, zlib.crc32(name.encode()), (0.1, 0.3, 0.6))
                rels += [close(S, SUBORDINATION_RULES) for S in rels]
            rels += [leq_relation(lat), ProtoSubAlg.from_pairs(lat, [])]
            for S in rels:
                inst, h = Instance(ctx, S), OracleFlags(S)
                for spec in CATALOG:
                    got = has_flags(inst, spec.precondition)
                    assert got == PRECONDITIONS[spec.name](h, S, facts), (name, S, spec.name)
                    seen[spec.name].add(got)
            # a property the carrier lacks the structure for is never a
            # true flag
            for q in P:
                try:
                    property_holds(rels[0], q)
                except MissingStructure:
                    inst = Instance(ctx, rels[0])
                    assert flag(inst, q) is None and not has_flags(inst, flag_mask(q)), (name, q)
        # only the empty precondition and the lattice condition hold
        # everywhere: every carrier is a lattice
        always = {name for name, pre in PRECONDITIONS.items()
                  if pre in (PRECONDITIONS["bounds-of-related-pairs"],
                             PRECONDITIONS["or-implies-updirected"])}
        assert {name for name, got in seen.items() if got == {True}} == always
        assert all(got == {True, False} for name, got in seen.items() if name not in always)


class TestLocalSides:
    """The table-decided sides of the 14 local checks against the
    per-instance law bodies (``oracles.LOCAL_LAW_ORACLES``) and the
    compiled inequalities evaluated under every assignment, through the
    carrier tables and, above the table cap, through the direct test of
    each row and column; and each check's verdict against the same check
    with its precondition from ``PRECONDITIONS`` and every side read from
    its oracle."""

    @staticmethod
    def side_oracles() -> dict:
        """Every ``Local`` side of the 14 checks -> its oracle."""
        out = {}
        for name in LOCAL_CHECKS:
            spec = CHECKS_BY_NAME[name]
            if spec.mode == "law":
                sides = [s for s in local_sides() if s.bit & spec.law]
                halves = LOCAL_LAW_ORACLES[name][1]
                assert sorted(s.side for s in sides) == sorted(halves), name
                out.update((s, halves[s.side]) for s in sides)
            elif texts(spec.rhs):
                for text in texts(spec.rhs):
                    compiled = _compile_inequality(text)
                    out[compiled.side] = compiled.holds
        return out

    @staticmethod
    def oracle_of(part, sides: dict):
        """The mask ``part`` as a predicate, with every flag from
        ``property_holds`` and every ``Local`` side from its oracle (an
        inequality evaluated under every assignment)."""
        if part is None:
            return None
        flags = [q for i, q in enumerate(P) if part >> i & 1]
        local = [s for s in sides if s.bit & part]
        assert sum(s.bit for s in local) + flag_mask(*flags) == part
        return lambda inst: (all(flag_oracle(inst.S, q) for q in flags)
                             and all(sides[s](inst) for s in local))

    def test_the_local_checks_are_the_fourteen(self):
        side_bits = sum(s.bit for s in local_sides())

        def local(part) -> bool:
            return isinstance(part, int) and not part & ~(LOCAL_FLAGS | side_bits)

        got = {spec.name for spec in CATALOG if spec.scope == "relation"
               and all(local(part) for part in (spec.lhs, spec.rhs, spec.law) if part)}
        assert got == set(LOCAL_CHECKS)
        assert sorted(s.side for s in self.side_oracles()) == ["cols"] * 4 + ["rows"] * 5

    def test_side_stated_after_the_tables_is_tested_directly(self, b4):
        ctx = CarrierContext("b4", b4)
        late = _inequalities("[]F <= F")
        assert late and not late & ctx.table_bits and texts(late) == ["[]F <= F"]
        holds = _compile_inequality("[]F <= F").holds
        seen = set()
        for S in random_relations(b4, 30, 5, (0.1, 0.3)):
            got = has_flags(Instance(ctx, S), late)
            assert got == holds(Instance(ctx, S)), S
            seen.add(got)
        assert seen == {True, False}

    def test_sides_and_verdicts_match_oracles(self, chain3, chain4, b4, fdl2, b8, tmp_path):
        chain12 = json_carrier(tmp_path, "chain12")
        sides = self.side_oracles()
        specs = [(CHECKS_BY_NAME[name], dict(
            mode=CHECKS_BY_NAME[name].mode, precondition=precondition_oracle(name),
            **{field: self.oracle_of(getattr(CHECKS_BY_NAME[name], field), sides)
               for field in ("lhs", "rhs", "law")}))
            for name in LOCAL_CHECKS]
        tested = dict.fromkeys(LOCAL_CHECKS, 0)
        carriers = [("chain3", chain3, all_relations(chain3))]
        for name, lat, count in (("chain4", chain4, 40), ("b4", b4, 40), ("fdl2", fdl2, 30),
                                 ("b8", b8, 25), ("chain12", chain12, 10)):
            rels = random_relations(lat, count, zlib.crc32(name.encode()), (0.05, 0.2, 0.5))
            rels += [close(S, SUBORDINATION_RULES) for S in rels]
            rels += [leq_relation(lat), ProtoSubAlg.from_pairs(lat, [])]
            carriers.append((name, lat, rels))
        for name, lat, rels in carriers:
            ctx = CarrierContext(name, lat)
            assert (ctx.local is None) == (name == "chain12")
            seen = {side: set() for side in sides}
            for S in rels:
                inst, fresh = Instance(ctx, S), Instance(ctx, S)
                for side, oracle in sides.items():
                    got = has_flags(inst, side.bit)
                    assert got == oracle(fresh), (name, S, side.side)
                    seen[side].add(got)
                for spec, oracle in specs:
                    got = runner._verdict(spec, inst)
                    assert got == check_oracle(inst=fresh, **oracle), (name, S, spec.name)
                    tested[spec.name] += got[0] != "skip"
            # the two halves of the bounds law hold on every relation: the
            # diamond is the meet of its row, the box the join of its column
            bounds = CHECKS_BY_NAME["bounds-of-related-pairs"].law
            assert all(seen[s] == ({True} if s.bit & bounds else {True, False})
                       for s in sides), name
        assert min(tested.values()) >= 20, tested


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

    def test_a_string_of_check_names_rejected(self):
        # a string would be iterated as its characters ("b", "o", ...)
        with pytest.raises(InputFormatError, match="not a str"):
            run_suite(GenConfig(carriers=("chain2",)), check_names="bounds-of-related-pairs")

    def test_determinism_modulo_timing(self):
        cfg = GenConfig(carriers=("chain2", "fdl2"), samples=6, seed=7)
        a = run_suite(cfg)
        b = run_suite(cfg)
        assert strip_timing(a) == strip_timing(b)
        assert json.dumps(strip_timing(a), sort_keys=True) == \
            json.dumps(strip_timing(b), sort_keys=True)

    def test_layer_timing(self, monkeypatch):
        passes, sweeps, owned, made = [], [], [], []
        real, sweep = runner.local_flags, runner._sweep
        monkeypatch.setattr(Instance, "__init__", lambda self, *args, init=Instance.__init__:
                            made.append(1) or init(self, *args))
        monkeypatch.setattr(runner, "local_flags",
                            lambda *args: passes.append(1) or real(*args))
        monkeypatch.setattr(runner, "_sweep", lambda *args: sweeps.append(1) or sweep(*args))
        for owner in (Fact, Local):
            monkeypatch.setattr(owner, "holds", lambda self, inst, holds=owner.holds:
                                owned.append(1) or holds(self, inst))
        report = run_suite(GenConfig(carriers=("chain2", "fdl2"), samples=6, seed=7))
        timing, instances = report["timing"], report["summary"]["instances"]
        layers = timing["layers"]
        assert list(layers) == sorted(LAYERS)
        # every artefact is built, and at most once per instance: the
        # image once per instance or dual instance (``Instance.dual``, on
        # which the box-side laws read it), every other artefact once per
        # instance of the corpus; the local flags and the catalog's local
        # sides in one pass per instance, each other flag in its own
        # sweep, and each of the 26 facts that check sides read (15
        # inequalities, 2 monotonicity laws, 9 dual-space conditions) by
        # its own test
        duals = len(made) - instances
        assert 0 < duals <= instances
        assert 0 < layers["image"]["builds"] <= instances + duals
        assert all(0 < layers[k]["builds"] <= instances for k in LAYERS
                   if k not in ("flags", "image"))
        assert 0 < len(passes) <= instances
        swept = len(P) - bin(LOCAL_FLAGS).count("1")
        assert len(sweeps) <= instances * swept
        assert len(owned) <= instances * len(catalog_facts()) == instances * 26
        assert layers["flags"]["builds"] == len(passes) + len(sweeps) + len(owned)
        # one corpus draw per instance, one context per carrier
        assert layers["corpus"]["builds"] == instances
        assert layers["context"]["builds"] == 2
        spent = (sum(timing["checks"].values())
                 + sum(entry["seconds"] for entry in layers.values()))
        assert spent <= timing["total"]

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


def predicate(part):
    """A check part as a predicate of the instance: a flag mask holds when
    every bit in it is True, and a ``law`` body is its own predicate."""
    if isinstance(part, int):
        return lambda inst: has_flags(inst, part)
    return part


def naive_checks_report(cfg, checks):
    """The per-check statistics of ``run_suite``, built by deciding every
    (instance, check) pair on a fresh ``Instance`` with
    ``oracles.check_oracle``, each part called as the check states it
    (carrier-scoped checks on the first instance of each carrier)."""
    stats = {c.name: {"tested": 0, "passes": 0, "skips": 0,
                      "counterexamples": [], "counterexample_count": 0}
             for c in checks}
    contexts, current, instances = {}, None, 0
    for name, S in corpus_stream(cfg):
        if name not in contexts:
            contexts[name] = CarrierContext(name, load_carrier(name))
        instances += 1
        first, current = name != current, name
        for spec in checks:
            if spec.scope == "carrier" and not first:
                continue
            inst = Instance(contexts[name], S)
            st = stats[spec.name]
            status, detail = check_oracle(
                spec.mode, inst, **{field: predicate(getattr(spec, field))
                                    for field in ("precondition", "lhs", "rhs", "law")})
            if status == "skip":
                st["skips"] += 1
                continue
            st["tested"] += 1
            if status == "pass":
                st["passes"] += 1
                continue
            st["counterexample_count"] += 1
            if len(st["counterexamples"]) < runner._MAX_STORED_COUNTEREXAMPLES:
                st["counterexamples"].append({"check": spec.name, "carrier": name,
                                              "instance": subalg_to_json(S),
                                              "detail": detail})
    return stats, instances


def catalog_facts() -> list:
    """The ``Fact`` owners that the sides of catalog checks read."""
    read = 0
    for spec in CATALOG:
        for part in (spec.lhs, spec.rhs, spec.law):
            if isinstance(part, int):
                read |= part
    return [o for o in FLAG_BITS if isinstance(o, Fact) and o.bit & read]


class TestCheckSides:
    """Every side of an ``iff``/``implies`` check is a flag mask, and a
    suite run decides each fact such a side reads at most once per
    instance, however many checks state it."""

    CFG = GenConfig(carriers=("b8", "fdl2"), samples=8, seed=7)

    def test_each_fact_is_tested_at_most_once_per_instance(self, monkeypatch):
        for spec in CATALOG:
            parts = (spec.precondition,) + ((spec.lhs, spec.rhs) if spec.mode != "law" else ())
            assert all(isinstance(part, int) for part in parts), spec.name
        # one text is one bit, in every conjunction that states it
        owners = [o for o in FLAG_BITS if o.text]
        assert len({o.text for o in owners}) == len(owners)
        assert all(_compile_inequality(o.text).side is o for o in owners)
        stated = set()
        for spec in CATALOG:
            if spec.rhs:
                stated.update(texts(spec.rhs))
        keep, calls = [], {}

        def counting(fn, key):
            def counted(*args):
                keep.append(args)  # no object counted dies, so no id is reused
                calls[key(*args)] = calls.get(key(*args), 0) + 1
                return fn(*args)
            return counted

        monkeypatch.setattr(catalog, "is_monotone",
                            counting(catalog.is_monotone, lambda f, dom, cod: ("mono", id(f))))
        monkeypatch.setattr(duality, "check_relational",
                            counting(duality.check_relational, lambda sp, c: (c, id(sp))))
        for text in stated:
            compiled = _compile_inequality(text)
            if isinstance(compiled.side, Fact):
                monkeypatch.setattr(compiled.side, "test", counting(
                    compiled.holds, lambda inst, text=text: (text, id(inst))))
        bodies = []
        real = runner.verify_check
        monkeypatch.setattr(runner, "verify_check",
                            lambda spec, inst: bodies.append(spec) or real(spec, inst))
        report = run_suite(self.CFG)
        assert report["summary"]["counterexamples"] == 0
        assert max(calls.values()) == 1
        kinds = {key[0] for key in calls}
        non_local = {t for t in stated if isinstance(_compile_inequality(t).side, Fact)}
        assert kinds == {"mono", *RelCondition, *non_local}
        assert len(non_local) == 15 and len(catalog_facts()) == 26
        # only law bodies run
        assert bodies and all(spec.mode == "law" and callable(spec.law) for spec in bodies)


#: a test-owned fact: 0 relates to nothing (``rows[0]`` is empty)
FIRST_ROW_EMPTY = Fact(lambda inst: not inst.S.rows[0])


class TestGroupedRunner:
    CFG = GenConfig(carriers=("chain3", "fdl2"), samples=4, seed=7)

    # two checks decided by the flag pattern, both with the always-true
    # precondition of bounds-of-related-pairs: an iff of a flag and a
    # table-decided side, which some patterns make fail, and an implies
    # whose rhs is a test-owned fact, forced only where the lhs holds
    PATTERN_IFF = CheckSpec("planted-inside-order-iff-deflationary",
                            "fails where exactly one side holds", "iff",
                            lhs=flag_mask(P.PREC_IN_LEQ), rhs=_inequalities("<>a <= a"))
    PATTERN_IMPLIES = CheckSpec("planted-si-implies-first-row-empty",
                                "fails when SI holds and 0 relates to anything",
                                "implies", lhs=flag_mask(P.SI), rhs=FIRST_ROW_EMPTY.bit)
    # a law body with the same always-true precondition
    FIRST_ROW_LAW = CheckSpec("planted-first-row-empty", "fails when 0 relates to anything",
                              "law", law=lambda inst: not inst.S.rows[0])

    def test_matches_naive_loop(self, monkeypatch):
        # two planted failing law bodies: one sharing the precondition of
        # diamond-detects-rel, one with the always-true precondition, so
        # grouped skips, passes and stored counterexamples all show; and
        # the two pattern-decided ones, whose failures must still be
        # counted and stored per instance in corpus order
        detects = CHECKS_BY_NAME["diamond-detects-rel"]
        planted = (
            CheckSpec("planted-detects-negated", "fails wherever tested", "law",
                      precondition=detects.precondition,
                      law=lambda inst: not LOCAL_LAW_ORACLES[detects.name][0](inst)),
            self.FIRST_ROW_LAW, self.PATTERN_IFF, self.PATTERN_IMPLIES,
        )
        checks = CATALOG + planted
        monkeypatch.setattr(runner, "CATALOG", checks)
        calls = {spec.name: 0 for spec in checks}
        real = runner.verify_check

        def counting(spec, inst):
            calls[spec.name] += 1
            return real(spec, inst)

        monkeypatch.setattr(runner, "verify_check", counting)
        evaluated = []
        monkeypatch.setattr(FIRST_ROW_EMPTY, "test",
                            lambda inst, test=FIRST_ROW_EMPTY.test: evaluated.append(1)
                            or test(inst))
        report = run_suite(self.CFG)
        implies_rhs = len(evaluated)
        stats, instances = naive_checks_report(self.CFG, checks)
        assert report["summary"]["instances"] == instances
        assert strip_timing(report)["checks"] == stats
        assert list(report["timing"]["checks"]) == sorted(stats)
        negated = stats["planted-detects-negated"]
        assert negated["counterexample_count"] == negated["tested"] > 0
        assert negated["skips"] > 0
        unguarded = stats[self.FIRST_ROW_LAW.name]
        assert unguarded["counterexample_count"] > len(unguarded["counterexamples"])
        assert unguarded["passes"] > 0
        # a law body runs on every instance meeting its precondition; a
        # check decided by its pattern runs none, failing or not
        assert calls["planted-detects-negated"] == negated["tested"]
        assert calls[self.FIRST_ROW_LAW.name] == unguarded["tested"]
        iff = stats[self.PATTERN_IFF.name]
        assert iff["counterexample_count"] > runner._MAX_STORED_COUNTEREXAMPLES
        assert iff["passes"] > 0
        assert calls[self.PATTERN_IFF.name] == calls[self.PATTERN_IMPLIES.name] == 0
        # the implies rhs is decided exactly where its lhs holds
        implies = stats[self.PATTERN_IMPLIES.name]
        assert implies["counterexample_count"] > runner._MAX_STORED_COUNTEREXAMPLES
        si = sum(flag(Instance(CarrierContext(name, load_carrier(name)), S), P.SI)
                 for name, S in corpus_stream(self.CFG))
        assert implies_rhs == si < implies["tested"]

    def test_pattern_counterexamples_replay_as_failures(self, monkeypatch, capsys, tmp_path):
        # the replay path decides each stored instance afresh, without a
        # memo, for a planted iff, implies and law body
        from subnorm.cli import main
        for spec in (self.PATTERN_IFF, self.PATTERN_IMPLIES, self.FIRST_ROW_LAW):
            monkeypatch.setattr(runner, "CATALOG", CATALOG + (spec,))
            monkeypatch.setitem(CHECKS_BY_NAME, spec.name, spec)
            stored = run_suite(self.CFG)["checks"][spec.name]["counterexamples"]
            assert len(stored) == runner._MAX_STORED_COUNTEREXAMPLES, spec.name
            for i, ce in enumerate(stored):
                assert replay_counterexample(ce) == {"check": spec.name, "status": "fail",
                                                     "detail": ce["detail"]}
                path = tmp_path / f"{spec.mode}{i}.json"
                path.write_text(json.dumps(ce))
                assert main(["verify", "--replay", str(path)]) == 1
                assert capsys.readouterr().out.strip().endswith("fail")

    def test_verify_check_runs_only_on_met_preconditions(self, monkeypatch):
        # the runner decides preconditions itself: every verify_check call
        # it makes runs a law body on an instance meeting the check's
        # precondition; the checks that an instance's flag pattern decides
        # are counted as tested without a call
        calls = []
        real = runner.verify_check

        def counting(spec, inst):
            out = real(spec, inst)
            calls.append((spec, inst.ctx, inst.S, out[0]))
            return out

        monkeypatch.setattr(runner, "verify_check", counting)
        report = run_suite(self.CFG)
        checks = report["checks"].values()
        assert 0 < len(calls) < sum(st["tested"] for st in checks)
        assert all(spec.mode == "law" and callable(spec.law) for spec, *_ in calls)
        assert all(has_flags(Instance(ctx, S), spec.precondition) for spec, ctx, S, _ in calls)
        assert "skip" not in {status for *_, status in calls}
        assert sum(st["skips"] for st in checks) > 0

    @pytest.mark.parametrize("name", ["chain4", "b4", "fdl2"])
    def test_flag_bitmasks_match_property_holds(self, name):
        lat = load_carrier(name)
        rng = random.Random(zlib.crc32(name.encode()))
        sample = random_relations(lat, 12, 11, (0.1, 0.3, 0.5))
        ctx = CarrierContext(name, lat)
        for S in sample + [close(S, SUBORDINATION_RULES) for S in sample]:
            want = {}
            for q in P:
                try:
                    want[q] = property_holds(S, q)
                except MissingStructure:
                    want[q] = None
            # flags alone, in random order
            inst = Instance(ctx, S)
            for q in rng.sample(list(P), len(P)):
                assert flag(inst, q) is want[q], (name, S, q)
            # flags interleaved with conjunctions, on a fresh instance
            inst = Instance(ctx, S)
            for _ in range(2 * len(P)):
                props = rng.sample(list(P), rng.randint(1, 4))
                if len(props) == 1:
                    assert flag(inst, props[0]) is want[props[0]], (name, S, props)
                else:
                    assert has_flags(inst, flag_mask(*props)) == all(
                        want[q] is True for q in props), (name, S, props)
        if lat.neg is None:
            assert flag(Instance(ctx, sample[0]), P.S6) is None

    def test_flags_above_the_table_cap_match_property_holds(self, tmp_path):
        # a 12-element chain has no signature tables: every flag is swept
        lat = json_carrier(tmp_path, "chain12")
        ctx = CarrierContext("chain12", lat)
        assert ctx.local is None
        sample = random_relations(lat, 6, 3, (0.05, 0.2))
        seen = set()
        for S in sample + [close(S, SUBORDINATION_RULES) for S in sample]:
            inst = Instance(ctx, S)
            for q in P:
                try:
                    want = property_holds(S, q)
                except MissingStructure:
                    want = None
                assert flag(inst, q) is want, (S, q)
                seen.add((q, want))
        assert {want for _, want in seen} == {True, False, None}

    def test_contexts_of_one_carrier_share_one_table(self, tmp_path):
        # the local table is kept with the lattice's order, so every context
        # of a built-in carrier reads one object; a copy loaded from JSON is
        # another order, with its own table of the same entries
        first = CarrierContext("b8", load_carrier("b8"))
        second = CarrierContext("b8", load_carrier("b8"))
        assert first.local is second.local is local_tables(first)
        path = tmp_path / "b8.json"
        path.write_text(json.dumps(lattice_to_json(load_carrier("b8"))))
        copy = CarrierContext("copy", load_carrier(str(path)))
        assert copy.local is not first.local
        # a side stated after the first table was built is in the copy only
        decided = first.local[0]
        assert copy.local[0] & decided == decided
        for mine, theirs in zip(first.local[1:], copy.local[1:]):
            assert [[e & decided for e in sig] for sig in theirs] == [list(sig) for sig in mine]


#: one fresh interpreter's report without ``timing``, as sorted JSON
FRESH_REPORT = """
import json, sys
from subnorm.harness import GenConfig, run_suite, strip_timing
cfg, names = json.loads(sys.argv[1])
report = run_suite(GenConfig(carriers=tuple(cfg["carriers"]), samples=cfg["samples"],
                             seed=cfg["seed"]), names)
print(json.dumps(strip_timing(report), sort_keys=True))
"""


def fresh_report(cfg: GenConfig, names) -> str:
    src = str(Path(subnorm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    arg = json.dumps([{"carriers": list(cfg.carriers), "samples": cfg.samples,
                       "seed": cfg.seed}, names])
    done = subprocess.run([sys.executable, "-c", FRESH_REPORT, arg], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    return done.stdout.strip()


class TestSharedPlans:
    """``run_suite`` calls that select the same checks share one plan per
    scope, and with it the forcing and row memos; each call counts its
    own rows, and no object of a memo reaches a report."""

    CFG = GenConfig(carriers=("chain3", "fdl2"), samples=4, seed=7)
    SUBSET = ["diamond-detects-rel", "or-implies-updirected", "closure1-extremal",
              "two-space-constructions-isomorphic", "sigma-negation-extension-laws"]

    def test_calls_in_one_process_match_fresh_interpreters(self):
        got = [json.dumps(strip_timing(run_suite(self.CFG, names)), sort_keys=True)
               for names in (self.SUBSET, None, self.SUBSET)]
        want = {key: fresh_report(self.CFG, names)
                for key, names in (("subset", self.SUBSET), ("all", None))}
        assert got == [want["subset"], want["all"], want["subset"]]
        assert json.loads(got[0])["summary"]["instances"] > 500

    def test_a_repeated_config_walks_no_state(self, monkeypatch):
        first = strip_timing(run_suite(self.CFG))
        walks = []
        monkeypatch.setattr(runner._Plan, "_force", lambda plan, known, true,
                            force=runner._Plan._force: walks.append(1)
                            or force(plan, known, true))
        assert strip_timing(run_suite(self.CFG)) == first
        assert walks == []

    def test_editing_a_counterexample_leaves_the_next_report(self, monkeypatch):
        # a pattern-decided iff and a mask law, both failing: their
        # details come from the shared row memo
        mask_law = CheckSpec("planted-si-as-a-law", "fails where SI fails", "law",
                             law=flag_mask(P.SI))
        planted = (TestGroupedRunner.PATTERN_IFF, mask_law)
        monkeypatch.setattr(runner, "CATALOG", CATALOG + planted)
        first = run_suite(self.CFG)
        want = json.dumps(strip_timing(first), sort_keys=True)
        for spec in planted:
            stored = first["checks"][spec.name]["counterexamples"]
            assert stored, spec.name
            for ce in stored:
                ce["detail"]["edited"] = True
                ce["detail"].pop("lhs", None)
        assert json.dumps(strip_timing(run_suite(self.CFG)), sort_keys=True) == want


def ask(specs, inst) -> None:
    """Force the bits of ``specs`` by asking ``has_flags``: each distinct
    precondition in the order the checks first state it, then, where it
    holds, its checks' sides in catalog order (a mask ``law``; an lhs, and
    the rhs unless it is an ``implies`` whose lhs fails)."""
    groups = {}
    for spec in specs:
        groups.setdefault(spec.precondition, []).append(spec)
    for pre, group in groups.items():
        if not has_flags(inst, pre):
            continue
        for spec in group:
            if spec.mode != "law":
                if has_flags(inst, spec.lhs) or spec.mode == "iff":
                    has_flags(inst, spec.rhs)
            elif isinstance(spec.law, int):
                has_flags(inst, spec.law)


class TestForcing:
    """``_Plan.key`` forces bits from its memo of flag states; the
    reference asks ``has_flags`` (``ask``)."""

    def test_key_forces_what_asking_forces(self, monkeypatch):
        computed = []
        real = Instance._compute
        monkeypatch.setattr(Instance, "_compute",
                            lambda inst, todo: computed.append(todo) or real(inst, todo))
        cfg = GenConfig(carriers=("chain3", "b4", "fdl2", "b8"), mode="random", samples=10)
        plans = [runner._Plan(c for c in CATALOG if c.scope == scope)
                 for scope in ("carrier", "relation")]
        contexts = {}
        for name, S in corpus_stream(cfg):
            if name not in contexts:
                contexts[name] = CarrierContext(name, load_carrier(name))
            for plan in plans:
                got, want = Instance(contexts[name], S), Instance(contexts[name], S)
                computed.clear()
                key = plan.key(got)
                by_key = list(computed)
                computed.clear()
                ask(plan.specs, want)
                assert by_key == computed, (name, S)
                assert (got._known, got._true) == (want._known, want._true), (name, S)
                assert key == want._true & plan.reads
        # the memo is shared by every instance of the run, and holds
        # states that differ only in their true bits
        forcing = plans[1].forcing
        known = {state >> plans[1].width for state in forcing}
        assert len(known) < len(forcing)


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

    def test_replay_rejects_malformed(self, b4_leq):
        instance = subalg_to_json(b4_leq)
        for ce in ({"check": "bounds-of-related-pairs"}, {"instance": instance}, [], 3,
                   {"check": "nope", "instance": instance},
                   # a check name that is not a string, hashable or not
                   {"check": ["x"], "instance": instance},
                   {"check": {}, "instance": instance},
                   {"check": None, "instance": instance},
                   {"check": "bounds-of-related-pairs", "instance": 3}):
            with pytest.raises(InputFormatError):
                replay_counterexample(ce)


def test_every_catalog_entry_fires_on_default_mixed_slice():
    # a small but representative slice: every check finds at least one
    # qualifying instance (the full default corpus is exercised by the
    # acceptance suite)
    cfg = GenConfig(carriers=("b4", "fdl2", "b8"), samples=8, seed=7)
    report = run_suite(cfg)
    assert report["summary"]["coverage_gaps"] == []
    assert report["summary"]["counterexamples"] == 0
