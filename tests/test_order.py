import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnorm.errors import (
    NotALattice,
    NotDistributive,
    PosetLawViolation,
    TooManyVariables,
)
from subnorm.order import (
    NegationReport,
    bits,
    check_negation_laws,
    free_boolean_algebra,
    is_filter,
    join_irreducibles,
    lattice_from_json,
    lattice_to_json,
    mask_of,
    opposite,
    poset_from_hasse,
    poset_from_json,
    prime_filters,
    subset_law_failure,
    subset_tables,
    to_lattice,
    validate_poset,
)
from conftest import NON_DISTRIBUTIVE, lattice
from oracles import (
    SUBSET_LAWS,
    is_down_directed_oracle,
    join_irreducibles_oracle,
    meet_irreducibles_oracle,
    prime_filters_oracle,
    subset_law_oracle,
)


def members(mask):
    return set(bits(mask))


def generator_bits(mask):
    """The set bits of ``mask``, ascending, found one lowest bit at a
    time: the reference that the table lookup of ``bits`` is held to."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class TestBits:
    """``bits`` reads masks of up to ten bits off one table and walks
    larger ones; both give the set bits in ascending order."""

    def test_every_mask_below_two_to_the_sixteen(self):
        for m in range(1 << 16):
            assert list(bits(m)) == list(generator_bits(m)), m

    def test_masks_above_the_table(self):
        rng = random.Random(3)
        masks = [1 << 10, (1 << 10) - 1 | 1 << 40, 1 << 63, (1 << 100) - 1,
                 *(rng.getrandbits(k) | 1 << k - 1 for k in (11, 17, 64, 300) for _ in range(20))]
        assert min(masks) >= 1 << 10
        for m in masks:
            got = list(bits(m))
            assert got == list(generator_bits(m)) == sorted(got), m

    def test_iterator_protocol(self):
        assert list(bits(0)) == []
        for m in (1, 6, 1 << 9, 1 << 10, 5 << 60):
            it = bits(m)
            assert next(it) == (m & -m).bit_length() - 1
            assert list(it) == list(generator_bits(m))[1:]


class TestValidatePoset:
    def test_discrete_order(self):
        p = validate_poset([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert p.n == 3
        assert all(not p.leq(a, b) for a in range(3) for b in range(3) if a != b)

    def test_chain_from_upper_triangular(self):
        p = validate_poset([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        assert p.leq(0, 2) and not p.leq(2, 0)

    def test_antisymmetry_violation(self):
        with pytest.raises(PosetLawViolation) as exc:
            validate_poset([[1, 1], [1, 1]])
        assert exc.value.law == "antisymmetry"
        assert exc.value.witness == (0, 1)

    def test_reflexivity_violation(self):
        with pytest.raises(PosetLawViolation) as exc:
            validate_poset([[0]])
        assert exc.value.law == "reflexivity"

    def test_transitivity_violation(self):
        with pytest.raises(PosetLawViolation) as exc:
            validate_poset([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert exc.value.law == "transitivity"
        assert exc.value.witness == (0, 1, 2)


class TestToLattice:
    def test_chain_is_distributive_not_boolean(self, chain3):
        assert chain3.is_distributive
        assert not chain3.is_boolean
        assert chain3.bot == 0 and chain3.top == 2

    def test_b4_is_boolean_with_swap_complement(self, b4):
        assert b4.is_boolean
        assert b4.neg == (3, 2, 1, 0)

    def test_antichain_has_no_lub(self, antichain2):
        with pytest.raises(NotALattice) as exc:
            to_lattice(antichain2)
        assert exc.value.pair == (0, 1)

    @pytest.mark.parametrize("name", ["chain4", "b4", "b8", "fdl2"])
    def test_lattice_laws_exhaustive(self, name, request):
        lat = request.getfixturevalue(name)
        n = lat.n
        for a in range(n):
            assert lat.meet[a][a] == a and lat.join[a][a] == a
            assert lat.leq(lat.bot, a) and lat.leq(a, lat.top)
            for b in range(n):
                assert lat.meet[a][b] == lat.meet[b][a]
                assert lat.join[a][b] == lat.join[b][a]
                assert lat.meet[a][lat.join[a][b]] == a
                assert lat.join[a][lat.meet[a][b]] == a
                for c in range(n):
                    assert lat.meet[lat.meet[a][b]][c] == lat.meet[a][lat.meet[b][c]]
                    assert lat.join[lat.join[a][b]][c] == lat.join[a][lat.join[b][c]]

    def test_pentagon_not_distributive(self):
        # 0 < a < c < 1 and 0 < b < 1 with b incomparable to a, c
        lat = to_lattice(poset_from_hasse(
            5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]))
        assert not lat.is_distributive


class TestIrreducibles:
    @pytest.mark.parametrize("name, expected", [
        ("b4", {1, 2}),
        ("chain3", {1, 2}),
        ("chain2", {1}),
    ])
    def test_frozen_examples(self, name, expected, request):
        lat = request.getfixturevalue(name)
        assert members(join_irreducibles(lat)) == expected

    @pytest.mark.parametrize("name", ["chain2", "chain3", "chain4", "b4", "b8", "fdl2"])
    def test_against_oracle(self, name, request):
        lat = request.getfixturevalue(name)
        assert members(join_irreducibles(lat)) == join_irreducibles_oracle(lat)


@pytest.fixture(params=["chain2", "chain3", "chain4", "chain5", "b4", "b8", "fdl2", "n5", "m3"])
def any_lattice(request):
    lat = lattice(request.param)
    assert lat.is_distributive == (request.param not in NON_DISTRIBUTIVE)
    return lat


class TestOpposite:
    """``opposite`` swaps the order, the lattice operations and the
    bounds and keeps the flags and the negation; it is the lattice that
    ``to_lattice`` builds from the reversed order, and the opposite of
    the opposite is the lattice itself."""

    def test_swaps_and_keeps(self, any_lattice):
        lat, dual = any_lattice, opposite(any_lattice)
        assert (dual.poset.up, dual.poset.down) == (lat.poset.down, lat.poset.up)
        assert (dual.meet, dual.join) == (lat.join, lat.meet)
        assert (dual.bot, dual.top) == (lat.top, lat.bot)
        assert (dual.is_distributive, dual.is_boolean, dual.neg, dual.poset.labels) == \
            (lat.is_distributive, lat.is_boolean, lat.neg, lat.poset.labels)

    def test_is_the_lattice_of_the_reversed_order(self, any_lattice):
        lat, n = any_lattice, any_lattice.n
        reversed_order = to_lattice(validate_poset(
            [[int(lat.leq(b, a)) for b in range(n)] for a in range(n)]))
        dual = opposite(lat)
        assert (dual.meet, dual.join, dual.bot, dual.top) == \
            (reversed_order.meet, reversed_order.join, reversed_order.bot, reversed_order.top)
        assert dual.is_distributive == reversed_order.is_distributive == lat.is_distributive

    def test_twice_is_the_lattice(self, any_lattice):
        assert opposite(any_lattice) is opposite(any_lattice)
        assert opposite(opposite(any_lattice)) is any_lattice

    def test_meet_irreducibles_are_the_join_irreducibles_of_the_opposite(self, any_lattice):
        assert members(join_irreducibles(opposite(any_lattice))) == \
            meet_irreducibles_oracle(any_lattice)


class TestPrimeFilters:
    def test_b4(self, b4):
        assert [members(f) for f in prime_filters(b4)] == [{1, 3}, {2, 3}]

    def test_chain3(self, chain3):
        assert [members(f) for f in prime_filters(chain3)] == [{2}, {1, 2}]

    def test_two_element(self, chain2):
        assert [members(f) for f in prime_filters(chain2)] == [{1}]

    @pytest.mark.parametrize("name", ["chain4", "b4", "b8", "fdl2"])
    def test_against_oracle_and_bijection(self, name, request):
        lat = request.getfixturevalue(name)
        got = {frozenset(members(f)) for f in prime_filters(lat)}
        assert got == prime_filters_oracle(lat)
        jirr = members(join_irreducibles(lat))
        assert len(got) == len(jirr)
        assert got == {frozenset(members(lat.poset.up[j])) for j in jirr}

    def test_requires_distributive(self):
        m3 = to_lattice(poset_from_hasse(
            5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))
        assert not m3.is_distributive
        with pytest.raises(NotDistributive):
            prime_filters(m3)


class TestDirectedness:
    def test_empty_is_directed(self, b4):
        assert subset_law_failure(b4.poset, 0, "down-directed") is None
        assert subset_law_failure(b4.poset, 0, "up-directed") is None

    def test_atoms_not_down_directed(self, b4):
        assert subset_law_failure(b4.poset, mask_of([1, 2]), "down-directed") == (1, 2)

    def test_with_common_lower_bound(self, b4):
        assert subset_law_failure(b4.poset, mask_of([1, 3]), "down-directed") is None

    @pytest.mark.parametrize("name", ["chain4", "b4"])
    def test_filter_iff_upclosed_down_directed(self, name, request):
        lat = request.getfixturevalue(name)
        for mask in range(1, 1 << lat.n):
            upclosed = lat.poset.up_closure(mask) == mask
            assert is_filter(mask, lat) == (upclosed and is_down_directed_oracle(lat.poset, mask))


class TestSubsetLaws:
    """``subset_law_failure`` and ``subset_tables`` against the set-based
    oracles, on every mask."""

    @pytest.mark.parametrize("name", ["b4", "fdl2", "b8", "v_poset"])
    def test_every_mask(self, name, request):
        carrier = request.getfixturevalue(name)
        p = getattr(carrier, "poset", carrier)
        laws = SUBSET_LAWS if p is not carrier else SUBSET_LAWS[:3]
        tables = subset_tables(p)
        masks = range(1 << p.n)
        seen = {law: set() for law in laws}
        for m in masks:
            for law in laws:
                want = subset_law_oracle(carrier, m, law)
                assert subset_law_failure(carrier, m, law) == want, (m, law)
                seen[law].add(want is None)
                if law in tables:
                    assert subset_law_failure(p, m, law) == want, (m, law)
                    assert tables[law][m] == (want is None), (m, law)
        assert all(outcomes == {True, False} for outcomes in seen.values()), seen
        for law in ("down-directed", "up-directed"):
            assert tables["nonempty " + law] == [
                m for m in masks[1:] if subset_law_oracle(p, m, law) is None]

    def test_witness_is_the_first_pair(self, b4):
        # b4 is 0 < x, y < 1 with x = 1, y = 2
        assert subset_law_failure(b4, mask_of([1, 2]), "down-directed") == (1, 2)
        assert subset_law_failure(b4, mask_of([1, 2]), "up-directed") == (1, 2)
        assert subset_law_failure(b4, mask_of([1, 2]), "meet-closed") == (1, 2)
        assert subset_law_failure(b4, mask_of([1, 2]), "join-closed") == (1, 2)
        assert subset_law_failure(b4, mask_of([1, 2]), "up-closed") == (1, 3)
        assert subset_law_failure(b4, mask_of([2, 3]), "up-closed") is None

    def test_unknown_law(self, b4):
        with pytest.raises(ValueError):
            subset_law_failure(b4, 0, "closed")


class TestNegationLaws:
    def test_boolean_complement_all_laws(self, b4):
        report = check_negation_laws(b4, b4.neg)
        assert report == NegationReport(True, True, True, True)

    def test_identity_not_antitone(self, b4):
        report = check_negation_laws(b4, (0, 1, 2, 3))
        assert not report.antitone

    def test_constant_top_not_involutive(self, b4):
        report = check_negation_laws(b4, (3, 3, 3, 3))
        assert not report.involutive

    def test_b8_complement(self, b8):
        assert check_negation_laws(b8, b8.neg) == NegationReport(True, True, True, True)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_free_algebra_complement(self, k):
        lat, _ = free_boolean_algebra(k)
        assert check_negation_laws(lat, lat.neg) == NegationReport(True, True, True, True)


class TestFreeBooleanAlgebra:
    def test_sizes(self):
        for k, size in [(0, 2), (1, 4), (2, 16), (3, 256)]:
            lat, gens = free_boolean_algebra(k)
            assert lat.n == size
            assert len(gens) == k
            assert lat.is_boolean and lat.is_distributive

    def test_generator_is_projection(self):
        lat, gens = free_boolean_algebra(1)
        assert members(join_irreducibles(lat)) >= {gens[0]}

    def test_meet_of_generators_is_atom(self):
        lat, (p, q) = free_boolean_algebra(2)
        atom = lat.meet[p][q]
        assert bin(atom).count("1") == 1  # a single valuation survives

    def test_cap(self):
        with pytest.raises(TooManyVariables):
            free_boolean_algebra(4)

    def test_flags_match_generic_construction(self):
        lat, _ = free_boolean_algebra(2)
        rebuilt = to_lattice(lat.poset)
        assert rebuilt.is_distributive == lat.is_distributive
        assert rebuilt.is_boolean == lat.is_boolean
        assert rebuilt.neg == lat.neg
        assert rebuilt.meet == lat.meet and rebuilt.join == lat.join


class TestJson:
    def test_roundtrip(self, b4):
        again = lattice_from_json(lattice_to_json(b4))
        assert again == b4

    def test_hasse_input(self):
        lat = lattice_from_json({"hasse": [[0, 1], [1, 2]]})
        assert lat.n == 3 and lat.leq(0, 2)

    def test_neg_attached(self):
        obj = {"elements": ["x", "y"], "leq": [[1, 0], [0, 1]], "neg": [1, 0]}
        p, neg = poset_from_json(obj)
        assert neg == (1, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_random_matrices_validate_or_raise(packed):
    matrix = [[bool(packed >> (4 * a + b) & 1) or a == b for b in range(4)]
              for a in range(4)]
    try:
        p = validate_poset(matrix)
    except PosetLawViolation:
        return
    # accepted orders really satisfy the three laws
    for a in range(4):
        assert p.leq(a, a)
        for b in range(4):
            if a != b and p.leq(a, b):
                assert not p.leq(b, a)
            for c in range(4):
                if p.leq(a, b) and p.leq(b, c):
                    assert p.leq(a, c)
