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
from typing import Iterable, Iterator

from ..errors import InputFormatError, TooLarge
from ..order import FinLattice
from ..subordination import (
    Property,
    ProtoSubAlg,
    SubordRel,
    close,
    property_holds,
)
from .carriers import load_carrier

_EXHAUSTIVE_BITS = 16

SUBORDINATION_RULES = frozenset({
    Property.BOT, Property.TOP, Property.SI,
    Property.WO, Property.AND, Property.OR,
})


def relation_from_int(n: int, packed: int) -> SubordRel:
    full = (1 << n) - 1
    return SubordRel(n, [(packed >> (a * n)) & full for a in range(n)])


def enumerate_relations(carrier: FinLattice,
                        filter_props: Iterable[Property] = (),
                        ) -> Iterator[ProtoSubAlg]:
    """All relations on the carrier in packed-integer order, optionally
    pre-filtered by a set of properties."""
    n = carrier.n
    if n * n > _EXHAUSTIVE_BITS:
        raise TooLarge(f"cannot enumerate 2^{n * n} relations")
    props = tuple(filter_props)
    for packed in range(1 << (n * n)):
        S = ProtoSubAlg(carrier, relation_from_int(n, packed))
        if all(property_holds(S, q) for q in props):
            yield S


def closure_generated(carrier: FinLattice, max_seed_pairs: int = 2,
                      rules: frozenset = SUBORDINATION_RULES,
                      ) -> list[ProtoSubAlg]:
    """Distinct closures of every seed relation with up to the given
    number of pairs, in seed order."""
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
        S = close(ProtoSubAlg.from_pairs(carrier, seed), rules)
        if S.rows not in seen:
            seen.add(S.rows)
            out.append(S)
    return out


def random_relations(carrier: FinLattice, samples: int, seed: int,
                     densities: tuple[float, ...] = (0.1, 0.3, 0.5),
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
        out.append(ProtoSubAlg(carrier, SubordRel(n, rows)))
    return out


@dataclass(frozen=True)
class GenConfig:
    """Corpus configuration for a verification run.

    ``mode`` is ``exhaustive`` (all relations; only for carriers with at
    most 4 elements) or ``random``.  Large carriers always fall back to
    closure-generated plus seeded-random streams regardless of mode.
    """

    carriers: tuple[str, ...] = ("chain2", "chain3", "chain4", "b4", "fdl2", "b8")
    mode: str = "exhaustive"
    samples: int = 120
    seed: int = 7
    densities: tuple[float, ...] = (0.1, 0.3, 0.5)
    include_closures: bool = True
    max_n: int = 4

    def __post_init__(self):
        for name in ("samples", "max_n"):
            if getattr(self, name) < 0:
                raise InputFormatError(
                    f"{name} must be non-negative, got {getattr(self, name)}")

    def describe(self) -> dict:
        return {
            "carriers": list(self.carriers),
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "densities": list(self.densities),
            "include_closures": self.include_closures,
            "max_n": self.max_n,
        }


def default_config(seed: int = 7) -> GenConfig:
    return GenConfig(seed=seed)


def corpus_stream(cfg: GenConfig) -> Iterator[tuple[str, ProtoSubAlg]]:
    """Deterministic stream of (carrier name, instance) for the corpus."""
    for name in cfg.carriers:
        carrier = load_carrier(name)
        n = carrier.n
        if cfg.mode == "exhaustive" and n <= cfg.max_n and n * n <= _EXHAUSTIVE_BITS:
            for S in enumerate_relations(carrier):
                yield name, S
            continue
        seen = set()
        for S in closure_generated(carrier):
            if S.rows not in seen:
                seen.add(S.rows)
                yield name, S
        extra = []
        for S in random_relations(carrier, cfg.samples, cfg.seed, cfg.densities):
            extra.append(S)
            if cfg.include_closures:
                extra.append(close(S, SUBORDINATION_RULES))
        for S in extra:
            if S.rows not in seen:
                seen.add(S.rows)
                yield name, S
