"""Instance generation: exhaustive, closure-generated and seeded random.

Exhaustive enumeration walks every relation on a carrier in numeric
order of the packed relation bits (row-major), which is the canonical
instance order used everywhere for determinism.  Carriers too large to
enumerate get two deterministic streams instead: relations generated by
closing small seed relations under the six subordination rules (these
populate the structured corner of the space that uniform sampling
essentially never hits), and independent random pairs at a cycle of
densities, together with their closures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from ..errors import InputFormatError, TooLarge
from ..order import FinLattice, mask_meet_join
from ..subordination import (  # noqa: F401  (property_holds: perfbench traces this binding)
    SUBORDINATION_RULES,
    ProtoSubAlg,
    close,
    property_holds,
)
from .carriers import load_carrier

_EXHAUSTIVE_BITS = 16

#: the densities the random stream cycles through; each random relation
#: is followed by its closure under the six subordination rules
DENSITIES = (0.1, 0.3, 0.5)

def relation_from_int(n: int, packed: int) -> tuple[int, ...]:
    """The rows of the relation whose bits, row-major, are ``packed``."""
    full = (1 << n) - 1
    return tuple((packed >> (a * n)) & full for a in range(n))


def enumerate_relations(carrier: FinLattice) -> Iterator[ProtoSubAlg]:
    """All relations on the carrier in packed-integer order."""
    n = carrier.n
    if n * n > _EXHAUSTIVE_BITS:
        raise TooLarge(f"cannot enumerate 2^{n * n} relations")
    for packed in range(1 << (n * n)):
        yield ProtoSubAlg(carrier, relation_from_int(n, packed))


def closure_generated(carrier: FinLattice,
                      max_seed_pairs: int = 2) -> tuple[ProtoSubAlg, ...]:
    """Distinct closures under the six subordination rules of every seed
    relation with up to the given number of pairs, in seed order.

    They depend on the lattice and the seed count alone, so each corpus
    is closed once per lattice object and kept with it, in its memo;
    every later call returns the same tuple of instances."""
    corpora = carrier._memo.setdefault("closures", {})
    if max_seed_pairs in corpora:
        return corpora[max_seed_pairs]
    n = carrier.n
    pairs = [(a, b) for a in range(n) for b in range(n)]
    seeds: list[list[tuple[int, int]]] = [[]]
    if max_seed_pairs >= 1:
        seeds += [[p] for p in pairs]
    if max_seed_pairs >= 2:
        seeds += [[p, q] for i, p in enumerate(pairs) for q in pairs[i + 1:]]
    if max_seed_pairs >= 3:
        raise TooLarge("closure seeding supports at most 2 seed pairs")
    out = []
    seen = set()
    for seed in seeds:
        S = close(ProtoSubAlg.from_pairs(carrier, seed), SUBORDINATION_RULES)
        if S.rows not in seen:
            seen.add(S.rows)
            out.append(S)
    corpora[max_seed_pairs] = got = tuple(out)
    return got


def random_relations(carrier: FinLattice, samples: int, seed: int,
                     densities: tuple[float, ...] = DENSITIES,
                     ) -> list[ProtoSubAlg]:
    """Seeded random relations: each pair included independently, with
    the density cycling through the configured values per sample."""
    n = carrier.n
    rng = random.Random(seed)
    out = []
    for i in range(samples):
        d = densities[i % len(densities)]
        rows = [0] * n
        for a in range(n):
            for b in range(n):
                if rng.random() < d:
                    rows[a] |= 1 << b
        out.append(ProtoSubAlg(carrier, rows))
    return out


@dataclass(frozen=True)
class GenConfig:
    """Corpus configuration for a verification run.

    ``mode`` is ``exhaustive`` (all relations on carriers with at most
    ``max_n`` elements; ``max_n`` is at most 4) or ``random``.  Larger
    carriers always fall back to closure-generated plus seeded-random
    streams regardless of mode.
    """

    carriers: tuple[str, ...] = ("chain2", "chain3", "chain4", "b4", "fdl2", "b8")
    mode: str = "exhaustive"
    samples: int = 120
    seed: int = 7
    max_n: int = 4

    def __post_init__(self):
        if isinstance(self.carriers, str):
            raise InputFormatError(
                f"carriers must be a sequence of carrier names, not a str: {self.carriers!r}")
        if self.mode not in ("exhaustive", "random"):
            raise InputFormatError(f"mode must be 'exhaustive' or 'random', got {self.mode!r}")
        for name in ("samples", "seed", "max_n"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InputFormatError(f"{name} must be an int, got {value!r}")
        for name in ("samples", "max_n"):
            if getattr(self, name) < 0:
                raise InputFormatError(
                    f"{name} must be non-negative, got {getattr(self, name)}")
        if self.max_n * self.max_n > _EXHAUSTIVE_BITS:
            raise InputFormatError(
                f"max_n must be at most 4 (2^16 relations), got {self.max_n}")
        for i, name in enumerate(self.carriers):
            if not isinstance(name, str):
                raise InputFormatError(
                    f"a carrier name must be a str, not {type(name).__name__}: {name!r}")
            if name in self.carriers[:i]:
                raise InputFormatError(f"carrier {name!r} is named twice")

    def describe(self) -> dict:
        return {
            "carriers": list(self.carriers),
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "densities": list(DENSITIES),
            "include_closures": True,
            "max_n": self.max_n,
        }


def corpus_stream(cfg: GenConfig) -> Iterator[tuple[str, ProtoSubAlg]]:
    """Deterministic stream of (carrier name, instance) for the corpus.

    The closure of a random relation under the six subordination rules
    depends only on its unclosed diamond, the meet of each row: ``close``
    runs its fixpoint on the diamond, starting from the row meets, and
    the bottom and top rules change a meet only at the bottom, which
    always becomes the bottom.  So each distinct diamond is closed once
    per carrier, in a dict local to the call: a repeated call does the
    same work as the first."""
    for name in cfg.carriers:
        carrier = load_carrier(name)
        n = carrier.n
        if cfg.mode == "exhaustive" and n <= cfg.max_n:
            for S in enumerate_relations(carrier):
                yield name, S
            continue
        closures = closure_generated(carrier)
        seen = {S.rows for S in closures}
        for S in closures:
            yield name, S
        meet = mask_meet_join(carrier)[0]
        closed: dict[tuple[int, ...], ProtoSubAlg] = {}  # unclosed diamond -> closure
        extra = []
        for S in random_relations(carrier, cfg.samples, cfg.seed):
            dia = tuple(map(meet, S.rows))
            if dia not in closed:
                closed[dia] = close(S, SUBORDINATION_RULES)
            extra += [S, closed[dia]]
        for S in extra:
            if S.rows not in seen:
                seen.add(S.rows)
                yield name, S
