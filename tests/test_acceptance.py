"""End-to-end acceptance battery.

Each test prints one verdict line (run with ``pytest -v -s`` to see them
live).  The battery re-derives every correspondence exhaustively at desk
scale: all relations on the two-, three- and four-element chains and on
the four-element Boolean algebra, closure-generated and seeded-random
corpora on the larger carriers, every labeled four-element poset for the
completion, and seeded normative systems for the derivability engine.
"""

import hashlib
import json
import random
import time

import pytest

from subnorm.completion import (
    dm_completion,
    extend_negation_pi,
    extend_negation_sigma,
)
from subnorm.errors import PosetLawViolation
from subnorm.harness import GenConfig, load_carrier, run_suite, strip_timing
from subnorm.iologic import (
    Norm,
    NormativeSystem,
    derive,
    modal_output,
    out,
    truth_table,
)
from subnorm.order import (
    poset_from_hasse,
    validate_poset,
)
from subnorm.syntax import parse_formula
from conftest import formula_of_table
from oracles import verify_compact, verify_dense

SEED = 7
# sha256 of the default verify report without its timing section, as
# json.dumps(..., sort_keys=True); it changes only with a verdict
DEFAULT_REPORT_SHA256 = "1b6f69e6128c2f6abe7be501c7b202d04f8837985af0e219a9fce400c5218dfe"
SMALL_CARRIERS = ("chain2", "chain3", "chain4", "b4")


def _verdict(tag: str, ok: bool, elapsed: float, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag}: {state} ({elapsed:.1f}s{', ' + detail if detail else ''})")


def _run_green(tag, names, carriers, budget, samples=120):
    t0 = time.time()
    report = run_suite(GenConfig(carriers=carriers, seed=SEED, samples=samples),
                       check_names=list(names))
    elapsed = time.time() - t0
    ok = (report["summary"]["counterexamples"] == 0
          and not report["summary"]["coverage_gaps"]
          and elapsed < budget)
    _verdict(tag, ok, elapsed,
             f"{report['summary']['instances']} instances")
    assert report["summary"]["counterexamples"] == 0, report["summary"]
    assert report["summary"]["coverage_gaps"] == []
    for name, st in report["checks"].items():
        assert st["tested"] > 0, f"{name} never fired"
    assert elapsed < budget
    return report


def test_a1_order_correspondences_exhaustive():
    """Inclusion-vs-operator equivalences over every relation on the
    small carriers."""
    _run_green("A1", [
        "rel-below-order-iff-inflationary-diamond",
        "rel-below-order-iff-deflationary-box",
        "order-below-rel-iff-deflationary-diamond",
    ], SMALL_CARRIERS, budget=60)


def test_a2_operator_law_battery_exhaustive():
    """Bounds, detection, directedness and transfer checks over the same
    exhaustive instance set."""
    _run_green("A2", [
        "bounds-of-related-pairs", "diamond-detects-rel", "box-detects-rel",
        "or-implies-updirected", "and-implies-downdirected",
        "updirected-iff-or-under-si", "downdirected-iff-and-under-wo",
        "si-makes-diamond-monotone", "and-makes-box-multiplicative-dl",
        "and-makes-box-multiplicative-ud", "wo-makes-box-monotone",
        "or-makes-diamond-additive-dl", "or-makes-diamond-additive-dd",
        "bot-rule-grounds-diamond", "top-rule-caps-box",
        "si-iff-diamond-monotone", "or-iff-diamond-additive",
        "bot-iff-diamond-grounded", "wo-iff-box-monotone",
        "and-iff-box-multiplicative", "top-iff-box-capped",
        "monotone-transfer", "regular-transfer", "normality-transfer",
        "directed-image-directed", "diamond-of-meet",
        "diamond-bound-reflects", "diamond-open-bound-reflects",
        "codirected-preimage-directed", "box-of-join",
        "box-bound-reflects", "box-closed-bound-reflects",
    ], SMALL_CARRIERS, budget=300)


def test_a3_modal_characterizations():
    """T, D, CT, SL2, S6, both S9 directions and SL1 on every qualifying
    relation of the four-element Boolean algebra, with S6 additionally
    exercised on the eight-element one."""
    _run_green("A3", [
        "t-iff-diamond-expanding", "d-iff-diamond-collapsing",
        "ct-iff-diamond-contraction", "sl2-iff-diamond-meet-distribution",
        "ct-implies-t-under-si",
        "s6-iff-negated-diamond-is-box", "s6-iff-diamond-neg-is-neg-box",
        "s9fwd-iff-box-join-absorption", "s9bwd-iff-box-join-coabsorption",
        "sl1-iff-box-join-distribution",
    ], ("b4", "b8"), budget=600)


def test_a4_closure_extremality():
    """Map enumeration confirms the closure operators extremal on every
    directed instance of the small carriers."""
    _run_green("A4", [
        "closure1-extremal", "closure2-extremal",
        "closure3-extremal", "closure4-extremal",
    ], SMALL_CARRIERS, budget=300)


def test_a5_duality_correspondences():
    """Space isomorphism and relational correspondences over every
    subordination relation on the four-element Boolean algebra and the
    closure-generated corpus of the six-element free distributive
    lattice."""
    _run_green("A5", [
        "two-space-constructions-isomorphic",
        "rel-below-order-iff-space-reflexive",
        "d-iff-space-transitive", "t-iff-space-dense",
        "properness-matches-space",
        "ct-relational-correspondence", "s9-relational-correspondence",
        "sl1-relational-correspondence", "sl2-relational-correspondence",
    ], SMALL_CARRIERS + ("fdl2",), budget=300)


def _all_labeled_posets(n):
    for packed in range(1 << (n * n)):
        matrix = [[bool(packed >> (n * a + b) & 1) for b in range(n)]
                  for a in range(n)]
        try:
            yield validate_poset(matrix)
        except PosetLawViolation:
            continue


def test_a6_completion_dense_compact():
    """Cut completions of all 219 labeled four-element posets and 200
    seeded random five/six-element posets are dense and compact; the
    embedding is an isomorphism on every corpus lattice."""
    t0 = time.time()
    count = 0
    for p in _all_labeled_posets(4):
        c = dm_completion(p)
        assert verify_dense(c), p.up
        assert verify_compact(c), p.up
        count += 1
    assert count == 219

    rng = random.Random(SEED)
    sampled = 0
    while sampled < 200:
        n = 5 + sampled % 2
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        chosen = [q for q in pairs if rng.random() < 0.25]
        try:
            p = poset_from_hasse(n, chosen)
        except PosetLawViolation:
            continue
        sampled += 1
        c = dm_completion(p)
        assert verify_dense(c) and verify_compact(c)

    for name in ("chain2", "chain3", "chain4", "b4", "b8", "fdl2"):
        lat = load_carrier(name)
        c = dm_completion(lat.poset)  # generic path, not the lattice shortcut
        assert c.delta.n == lat.n
        assert len(set(c.embed)) == lat.n
        assert all(lat.leq(a, b) == c.delta.leq(c.embed[a], c.embed[b])
                   for a in range(lat.n) for b in range(lat.n))
    elapsed = time.time() - t0
    _verdict("A6", elapsed < 60, elapsed, f"{count}+{sampled} posets")
    assert elapsed < 60


def test_a7_negation_lifting_laws():
    """Antitonicity, adjunction, double-negation and involutivity
    transfer for both liftings on the Boolean carriers and the
    two-antichain with its swap negation."""
    t0 = time.time()
    cases = [(load_carrier("b4").poset, load_carrier("b4").neg),
             (load_carrier("b8").poset, load_carrier("b8").neg),
             (validate_poset([[1, 0], [0, 1]], ["x", "y"]), (1, 0))]
    for base, neg in cases:
        c = dm_completion(base)
        d = c.delta
        for table, adjoint in ((extend_negation_sigma(c, neg), "left"),
                               (extend_negation_pi(c, neg), "right")):
            for u in range(d.n):
                assert table[table[u]] == u  # involutive transfer
                for v in range(d.n):
                    if d.leq(u, v):
                        assert d.leq(table[v], table[u])  # antitone
                    if adjoint == "left":
                        assert d.leq(table[u], v) == d.leq(table[v], u)
                    else:
                        assert d.leq(u, table[v]) == d.leq(v, table[u])
            assert all(d.leq(u, table[table[u]]) for u in range(d.n))
    elapsed = time.time() - t0
    _verdict("A7", elapsed < 10, elapsed)
    assert elapsed < 10


class TestA8DerivabilityBattery:
    def test_a8_named_examples(self):
        t0 = time.time()
        N = NormativeSystem.parse("p |~ q")
        assert derive(N, 1, (parse_formula("p & r"), parse_formula("q | r")))
        assert not derive(N, 1, (parse_formula("p | r"), parse_formula("q")))
        # over the 16 elements of the free algebra on p and q, the
        # system-1 output of p is exactly the up-set of q
        atoms = ["p", "q"]
        q = truth_table(parse_formula("q"), atoms)
        output = {x for x in range(16)
                  if out(N, 1, [parse_formula("p")], formula_of_table(x, atoms))}
        assert output == {x for x in range(16) if x & q == q}
        _verdict("A8a", True, time.time() - t0, "named examples")

    @pytest.mark.xfail(
        reason="a single norm cannot reach a disjunctive body in the OR "
               "system: the four-element countermodel with p,q -> u and "
               "r -> v satisfies every closure rule yet omits the pair; "
               "the externally fixed expectation asserts membership anyway",
        strict=True)
    def test_a8_single_norm_or_clause_as_stated(self):
        """Externally fixed expectation: (p|r, q) lands in the OR closure
        of the single norm p |~ q.  The engine (and the rule semantics)
        say otherwise; see the sibling test for the covering-norm variant
        that genuinely separates systems 1 and 2."""
        N = NormativeSystem.parse("p |~ q")
        holds = derive(N, 2, (parse_formula("p | r"), parse_formula("q")))
        _verdict("A8b", holds, 0.0, "single-norm OR clause, as stated")
        assert holds

    def test_a8_or_distinction_with_covering_norms(self):
        t0 = time.time()
        N = NormativeSystem.parse("p |~ q\nr |~ q")
        assert not derive(N, 1, (parse_formula("p | r"), parse_formula("q")))
        assert derive(N, 2, (parse_formula("p | r"), parse_formula("q")))
        _verdict("A8c", True, time.time() - t0, "covering norms separate 1 vs 2")

    def test_a8_monotonicity_and_agreement_100_systems(self):
        t0 = time.time()
        rng = random.Random(SEED)
        atoms = ["p", "q", "r"]

        def rand_formula(depth=2):
            if depth == 0 or rng.random() < 0.4:
                return parse_formula(rng.choice(atoms))
            op = rng.choice(["&", "|"])
            left = rand_formula(depth - 1)
            right = parse_formula(rng.choice(atoms))
            return (("and" if op == "&" else "or"), left, right)

        for _ in range(100):
            N = NormativeSystem(
                [Norm(rand_formula(), rand_formula())
                 for _ in range(rng.randrange(1, 4))])
            gamma = [rand_formula() for _ in range(rng.randrange(0, 3))]
            psi = rand_formula()
            verdicts = {i: out(N, i, gamma, psi) for i in (1, 2, 3, 4)}
            assert verdicts[1] <= verdicts[2] <= verdicts[4]
            assert verdicts[1] <= verdicts[3] <= verdicts[4]
            single = [rand_formula()]
            for i in (1, 2, 3, 4):
                assert out(N, i, single, psi) == modal_output(N, i, single, psi)
        elapsed = time.time() - t0
        _verdict("A8d", elapsed < 60, elapsed, "100 seeded systems")
        assert elapsed < 60


def test_a9_determinism_of_default_verify():
    """Two default-corpus runs with the same seed agree byte for byte
    outside the timing section, and that report is the pinned one."""
    t0 = time.time()
    cfg = GenConfig(seed=SEED)
    first = run_suite(cfg)
    second = run_suite(cfg)
    a = json.dumps(strip_timing(first), sort_keys=True)
    b = json.dumps(strip_timing(second), sort_keys=True)
    digest = hashlib.sha256(a.encode()).hexdigest()
    ok = (a == b and digest == DEFAULT_REPORT_SHA256
          and first["summary"]["counterexamples"] == 0
          and not first["summary"]["coverage_gaps"])
    _verdict("A9", ok, time.time() - t0,
             f"{first['summary']['instances']} instances x2")
    assert a == b
    assert digest == DEFAULT_REPORT_SHA256
    assert first["summary"]["counterexamples"] == 0
    assert first["summary"]["coverage_gaps"] == []
