"""Every relation property's verdicts and witnesses, pinned by digest.

``check_property`` of all 19 properties runs on seeded relations over
every corpus carrier, over the bare posets V, the two-element antichain
and b4's order, and over a 12-chain above the table cap; on the lattices
also on the closures of those relations under the six subordination
rules.  On the corpus carriers the ten local flags are also read from
the harness's local table (``catalog.local_flags``, masked to
``LOCAL_FLAGS``); the bare posets and the 12-chain have no table.  The
sha256 of every verdict, witness and flag mask is pinned, so a change
to the property layer that moves one witness fails here.  A deliberate
change of a verdict or a witness is a mathematical finding: recompute
the digest with ``PYTHONPATH=src python tests/test_witness_digest.py``
and say why it moved.
"""

import hashlib

from subnorm.errors import MissingStructure
from subnorm.harness import CarrierContext
from subnorm.harness.carriers import carrier_names, load_carrier
from subnorm.harness.catalog import local_flags, local_tables
from subnorm.harness.generate import SUBORDINATION_RULES, random_relations
from subnorm.order import FinLattice, poset_from_hasse, to_lattice, validate_poset
from subnorm.subordination import LOCAL_FLAGS, Property, check_property, close

PINNED = "334f6303bb5406ee5432350169112927481d17b07588d62183437f8ced198800"

_DENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)


def _carriers():
    out = [(name, load_carrier(name)) for name in carrier_names()]
    out += [("V", poset_from_hasse(3, [(0, 1), (0, 2)])),
            ("antichain2", validate_poset([[1, 0], [0, 1]])),
            ("b4-order", load_carrier("b4").poset),
            ("chain12", to_lattice(poset_from_hasse(12, [(i, i + 1) for i in range(11)])))]
    return out


def _lines():
    for seed, (name, carrier) in enumerate(_carriers()):
        rels = random_relations(carrier, 60, seed, _DENSITIES)
        table = None
        if isinstance(carrier, FinLattice):
            rels += [close(S, SUBORDINATION_RULES) for S in rels]
            table = local_tables(CarrierContext(name, carrier))
        for S in rels:
            verdicts = []
            for prop in Property:
                try:
                    verdicts.append(check_property(S, prop))
                except MissingStructure:
                    verdicts.append("missing")
            flags = None if table is None else local_flags(S, table) & LOCAL_FLAGS
            yield f"{name} {S.rows} {verdicts} {flags}\n"


def digest() -> str:
    h = hashlib.sha256()
    for line in _lines():
        h.update(line.encode())
    return h.hexdigest()


def test_verdicts_witnesses_and_flags_are_pinned():
    assert digest() == PINNED


if __name__ == "__main__":
    print(digest())
