"""Every closure of every closable rule set, pinned by digest.

``close(S, rules)`` runs for all 256 subsets of the closable rules on
seeded relations over every corpus carrier, over the non-distributive
lattices N5 and M3, over the 16-element free Boolean algebra on two
generators, and over the bare posets V and the two-element antichain.
A closure that needs structure the carrier lacks records the verdict
``missing`` in place of rows.  The rows of the fdl2 and b8 default
corpus stream, which is built from closures, are hashed too.  The
sha256 of all of it is pinned, so a change to the closure that moves
one pair fails here.  A deliberate change is a mathematical finding:
recompute the digest with ``PYTHONPATH=src python tests/test_closure_digest.py``
and say why it moved.
"""

import hashlib

from subnorm.errors import MissingStructure
from subnorm.harness.carriers import carrier_names, load_carrier
from subnorm.harness.generate import GenConfig, corpus_stream, random_relations
from subnorm.order import free_boolean_algebra, poset_from_hasse, to_lattice, validate_poset
from subnorm.subordination import CLOSABLE_RULES, FLAG_PROPERTIES, close

PINNED = "e222984e7de4add07963e2ba6898adc77d069a52a75aa98edbe3fa6aa2f5ef05"

_DENSITIES = (0.1, 0.3, 0.5, 0.7)

#: the closable rules in flag order; rule set ``m`` holds rule ``i`` iff bit ``i`` of ``m``
_RULES = tuple(q for q in FLAG_PROPERTIES if q in CLOSABLE_RULES)
_RULESETS = tuple(frozenset(q for i, q in enumerate(_RULES) if m >> i & 1)
                  for m in range(1 << len(_RULES)))


def _carriers():
    out = [(name, load_carrier(name), 10) for name in carrier_names()]
    out += [("N5", to_lattice(poset_from_hasse(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])), 10),
            ("M3", to_lattice(poset_from_hasse(5, [(0, 1), (0, 2), (0, 3),
                                                   (1, 4), (2, 4), (3, 4)])), 10),
            ("free2", free_boolean_algebra(2)[0], 4),
            ("V", poset_from_hasse(3, [(0, 1), (0, 2)]), 10),
            ("antichain2", validate_poset([[1, 0], [0, 1]]), 10)]
    return out


def _lines():
    for seed, (name, carrier, samples) in enumerate(_carriers()):
        for S in random_relations(carrier, samples, seed, _DENSITIES):
            for m, rules in enumerate(_RULESETS):
                try:
                    got = close(S, rules).rows
                except MissingStructure:
                    got = "missing"
                yield f"{name} {S.rows} {m} {got}\n"
    for name, S in corpus_stream(GenConfig(carriers=("fdl2", "b8"))):
        yield f"{name} {S.rows}\n"


def digest() -> str:
    h = hashlib.sha256()
    for line in _lines():
        h.update(line.encode())
    return h.hexdigest()


def test_closures_are_pinned():
    assert digest() == PINNED


if __name__ == "__main__":
    print(digest())
