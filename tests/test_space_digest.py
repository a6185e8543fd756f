"""The dual-space conditions and isomorphism search, held to the point
by point oracles and pinned by digest.

The spaces are both constructions (join-irreducibles and prime filters)
of the dual space of every relation in the closure-generated corpora of
chain2-4, b4, fdl2 and b8, and seeded random accessibility relations on
the same points.  On each space every ``RelCondition`` must give the
verdict and first witness of ``oracles.check_relational_oracle``, and
``spaces_isomorphic`` the bijection its search finds with
``oracles.signature_oracle`` (between the two constructions, and between
a random space and a seeded relabelling of it).  The sha256 of all of
them is pinned, so a change that moves one witness or one bijection
fails here.  A deliberate change is a mathematical finding: recompute
the digest with ``PYTHONPATH=src python tests/test_space_digest.py`` and
say why it moved.
"""

import hashlib
import random

from subnorm import duality
from subnorm.duality import (RelCondition, SubordinationSpace, build_space_jirr,
                             build_space_primefilters, check_relational, spaces_isomorphic)
from subnorm.harness.carriers import load_carrier
from subnorm.harness.generate import closure_generated

from oracles import check_relational_oracle, signature_oracle

PINNED = "684729dbb045058a713e0436705b5b127d6d47c42580a588ec7643cec03cd05b"

CARRIERS = ("chain2", "chain3", "chain4", "b4", "fdl2", "b8")
_RANDOM = 40  # seeded random relations per carrier and construction


def _relabelled(sp: SubordinationSpace, perm: list[int]) -> SubordinationSpace:
    """``sp`` with point ``i`` moved to position ``perm[i]``."""
    def move(mask):
        return sum(1 << perm[j] for j in range(sp.m) if mask >> j & 1)

    at = {perm[i]: i for i in range(sp.m)}
    return SubordinationSpace([sp.points[at[k]] for k in range(sp.m)],
                              [sp.labels[at[k]] for k in range(sp.m)],
                              [move(sp.order[at[k]]) for k in range(sp.m)],
                              [move(sp.R[at[k]]) for k in range(sp.m)])


def _cases():
    """(name, space, partner) triples: each space with the space its
    isomorphism is searched against."""
    for seed, name in enumerate(CARRIERS):
        rng = random.Random(seed)
        lat = load_carrier(name)
        built = [(build_space_jirr(S), build_space_primefilters(S))
                 for S in closure_generated(lat)]
        for jirr, pf in built:
            yield f"{name} jirr", jirr, pf
            yield f"{name} pf", pf, jirr
        for kind, sp in zip(("jirr", "pf"), built[0]):
            m = sp.m
            for _ in range(_RANDOM):
                R = [rng.getrandbits(m) for _ in range(m)]
                rand = SubordinationSpace(sp.points, sp.labels, sp.order, R)
                perm = list(range(m))
                rng.shuffle(perm)
                yield f"{name} random {kind}", rand, _relabelled(rand, perm)


def _lines():
    for name, sp, partner in _cases():
        verdicts = [check_relational(sp, c) for c in RelCondition]
        yield f"{name} {sp.order} {sp.R} {verdicts} {spaces_isomorphic(sp, partner)}\n"


def digest() -> str:
    h = hashlib.sha256()
    for line in _lines():
        h.update(line.encode())
    return h.hexdigest()


def test_conditions_and_bijections_match_the_oracles(monkeypatch):
    cases = list(_cases())
    assert len(cases) > 1000
    for name, sp, partner in cases:
        for cond in RelCondition:
            assert check_relational(sp, cond) == check_relational_oracle(sp, cond), (name, cond)
        assert [duality._signature(sp, i) for i in range(sp.m)] == \
            [signature_oracle(sp, i) for i in range(sp.m)], name
    found = [spaces_isomorphic(sp, partner) for _, sp, partner in cases]
    monkeypatch.setattr(duality, "_signature", signature_oracle)
    assert found == [spaces_isomorphic(sp, partner) for _, sp, partner in cases]


def test_conditions_and_bijections_are_pinned():
    assert digest() == PINNED


if __name__ == "__main__":
    print(digest())
