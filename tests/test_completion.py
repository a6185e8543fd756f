import random
from itertools import product

import pytest

from subnorm.completion import (
    CanonicalExtension,
    dm_completion,
    extend_negation_pi,
    extend_negation_sigma,
)
from subnorm.errors import NegationLawsFail, NotALattice, PosetLawViolation
from subnorm.order import (
    free_boolean_algebra,
    mask_of,
    poset_from_hasse,
    to_lattice,
    validate_poset,
)
from subnorm.slanted import build_slanted, pi_extension, sigma_extension
from subnorm.subordination import Property, ProtoSubAlg, close
from oracles import (
    CutCompletion,
    cuts_oracle,
    neg_pi_oracle,
    neg_sigma_oracle,
    negation_liftable_oracle,
    pi_oracle,
    sigma_oracle,
    verify_compact,
    verify_dense,
)


def delta_order_iso(c, lat):
    """Check the embedding is an order isomorphism onto delta."""
    if c.delta.n != lat.n or len(set(c.embed)) != lat.n:
        return False
    return all(lat.leq(a, b) == c.delta.leq(c.embed[a], c.embed[b])
               for a in range(lat.n) for b in range(lat.n))


class TestDmCompletion:
    def test_chain_is_its_own_completion(self, chain3):
        c = dm_completion(chain3.poset)
        assert c.delta.n == 3
        assert delta_order_iso(c, chain3)

    def test_antichain_gains_bounds(self, antichain2):
        c = dm_completion(antichain2)
        assert c.delta.n == 4
        x, y = c.embed
        assert not c.delta.leq(x, y) and not c.delta.leq(y, x)
        assert c.delta.bot not in c.embed and c.delta.top not in c.embed

    def test_v_poset_gains_top(self, v_poset):
        c = dm_completion(v_poset)
        assert c.delta.n == 4
        assert c.delta.top not in c.embed

    def test_lattice_shortcut_matches_generic(self, b4, fdl2):
        for lat in (b4, fdl2):
            fast = dm_completion(lat)
            slow = dm_completion(lat.poset)
            assert fast.delta.n == slow.delta.n == lat.n
            assert delta_order_iso(slow, lat)
            assert fast.embed == tuple(range(lat.n))

    @pytest.mark.parametrize("hasse, n_expected", [
        ([(0, 1), (1, 2)], 3),
        ([], 4),   # 4-antichain: bottom, four middles, ... cuts below
    ])
    def test_cut_count_matches_oracle(self, hasse, n_expected):
        n = 3 if hasse else 4
        p = poset_from_hasse(n, hasse)
        c = dm_completion(p)
        assert c.delta.n == len(cuts_oracle(p))

    def test_closed_open_equal_image(self, v_poset):
        c = dm_completion(v_poset)
        assert c.closed == c.open == mask_of(c.embed)

    def test_memoised_meets_and_joins(self, v_poset, b8):
        """The meet/join of a base subset equals the meet/join of its
        embedded image, asked twice in shuffled order, on bases below
        and above ten elements."""
        bowtie = poset_from_hasse(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3),
                                      (2, 4), (3, 5), (4, 5)])
        big, _ = free_boolean_algebra(2)  # 16 elements
        for base in (v_poset, bowtie, b8, big):
            c = dm_completion(base)
            size, rng = 1 << c.base.n, random.Random(c.base.n)
            masks = [rng.randrange(size) for _ in range(300)]
            for m in masks + masks[::-1]:
                embedded = mask_of(c.embed[x] for x in range(c.base.n) if m >> x & 1)
                assert c.meet_of_base(m) == c.delta.meet_all(embedded)
                assert c.join_of_base(m) == c.delta.join_all(embedded)


def all_posets_of_size(n):
    for packed in range(1 << (n * n)):
        matrix = [[bool(packed >> (n * a + b) & 1) for b in range(n)]
                  for a in range(n)]
        try:
            yield validate_poset(matrix)
        except PosetLawViolation:
            continue


class TestDenseCompact:
    def test_all_3_element_posets(self):
        count = 0
        for p in all_posets_of_size(3):
            c = dm_completion(p)
            assert verify_dense(c), p.up
            assert verify_compact(c), p.up
            count += 1
        assert count == 19  # labeled posets on three points

    def test_singleton(self):
        c = dm_completion(validate_poset([[1]]))
        assert verify_dense(c) and verify_compact(c)

    def test_hand_built_non_dense(self, antichain2):
        # five-point lattice with a middle element no image join/meet reaches
        lat = to_lattice(poset_from_hasse(
            5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
            ["bot", "x", "y", "w", "top"]))
        fake = CanonicalExtension(antichain2, lat, [1, 2], 0b00110, 0b00110)
        assert not verify_dense(fake)

    def test_cuts_are_dense_compact_on_random_5_posets(self):
        import random
        rng = random.Random(11)
        found = 0
        while found < 25:
            n = 5
            pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
            chosen = [p for p in pairs if rng.random() < 0.3]
            try:
                p = poset_from_hasse(n, chosen)
            except PosetLawViolation:
                continue
            found += 1
            c = dm_completion(p)
            assert verify_dense(c) and verify_compact(c)


class TestUniqueness:
    def test_permuted_posets_give_isomorphic_completions(self, v_poset):
        import itertools as it
        base_sizes = sorted(
            bin(m).count("1")
            for m in dm_completion(v_poset).delta.poset.up)
        for perm in it.permutations(range(3)):
            matrix = [[v_poset.leq(perm[a], perm[b]) for b in range(3)]
                      for a in range(3)]
            c = dm_completion(validate_poset(matrix))
            assert c.delta.n == 4
            assert sorted(bin(m).count("1") for m in c.delta.poset.up) == base_sizes


class TestNegationExtension:
    def test_boolean_complement_collapses(self, b4):
        c = dm_completion(b4)
        assert extend_negation_sigma(c, b4.neg) == b4.neg
        assert extend_negation_pi(c, b4.neg) == b4.neg

    def test_antichain_swap_two_step(self, antichain2):
        c = dm_completion(antichain2)
        table = extend_negation_sigma(c, (1, 0))
        by_label = {c.delta.label(i): c.delta.label(table[i])
                    for i in range(c.delta.n)}
        assert by_label["{}"] == "{x,y}"
        assert by_label["{x,y}"] == "{}"
        assert by_label["x"] == "y" and by_label["y"] == "x"

    def test_identity_fails_antitone(self, antichain2):
        c = dm_completion(antichain2)
        # the identity on a 2-antichain is antitone (no comparable pairs),
        # so use a chain where it genuinely is not
        c3 = dm_completion(poset_from_hasse(3, [(0, 1), (1, 2)]))
        with pytest.raises(NegationLawsFail) as exc:
            extend_negation_sigma(c3, (0, 1, 2))
        assert exc.value.law == "antitone"

    def test_adjunction_required(self, chain3):
        # antitone but not self-adjoint: only the bottom flips to top
        c = dm_completion(chain3.poset)
        with pytest.raises(NegationLawsFail) as exc:
            extend_negation_sigma(c, (2, 0, 0))
        assert exc.value.law == "left-self-adjunction"

    def test_sigma_involutive_transfer(self, b8):
        c = dm_completion(b8)
        table = extend_negation_sigma(c, b8.neg)
        assert all(table[table[u]] == u for u in range(c.delta.n))

    def test_pi_equals_sigma_on_involutive_carrier(self, b4, antichain2):
        for base, neg in ((b4, b4.neg), (antichain2, (1, 0))):
            c = dm_completion(base)
            assert extend_negation_sigma(c, neg) == extend_negation_pi(c, neg)


class TestLiftingOracle:
    """All four liftings against the set-based oracle on every labelled
    poset with at most four elements, non-lattices included."""

    def test_liftings_match_oracle_on_small_posets(self):
        rng = random.Random(5)
        seen = {"non-lattice": 0, "sigma": 0, "pi": 0, "neg-sigma": 0, "neg-pi": 0}
        for n in range(1, 5):
            for p in all_posets_of_size(n):
                try:
                    carrier = to_lattice(p)
                except NotALattice:
                    carrier = p
                    seen["non-lattice"] += 1
                c = dm_completion(carrier)
                C = CutCompletion(p)
                cut = [frozenset(x for x in range(n) if c.delta.leq(c.embed[x], u))
                       for u in range(c.delta.n)]
                assert len(set(cut)) == c.delta.n and set(cut) == C.cuts

                def as_cuts(table):
                    return {cut[u]: cut[v] for u, v in enumerate(table)}

                for _ in range(4):
                    rows = [mask_of(b for b in range(n) if rng.random() < 0.3)
                            for _ in range(n)]
                    S = close(ProtoSubAlg(carrier, rows),
                              {Property.SI, Property.WO})
                    sa = build_slanted(S)
                    # the completion build_slanted makes is the one cut reads
                    assert (sa.ext.embed, sa.delta.poset.up, sa.delta.meet, sa.delta.join) == (
                        c.embed, c.delta.poset.up, c.delta.meet, c.delta.join), p.up
                    assert as_cuts(sigma_extension(sa)) == sigma_oracle(
                        C, [cut[v] for v in sa.dia]), (p.up, S)
                    assert as_cuts(pi_extension(sa)) == pi_oracle(
                        C, [cut[v] for v in sa.box]), (p.up, S)
                    seen["sigma"] += 1
                    seen["pi"] += 1
                for neg in product(range(n), repeat=n):
                    for side, lift, oracle in (
                            ("sigma", extend_negation_sigma, neg_sigma_oracle),
                            ("pi", extend_negation_pi, neg_pi_oracle)):
                        if negation_liftable_oracle(p, neg, side):
                            assert as_cuts(lift(c, neg)) == oracle(C, neg), (p.up, neg)
                            seen["neg-" + side] += 1
                        else:
                            with pytest.raises(NegationLawsFail):
                                lift(c, neg)
        assert seen["non-lattice"] >= 100
        assert min(seen.values()) >= 100, seen
