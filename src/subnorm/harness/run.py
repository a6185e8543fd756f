"""Suite runner: evaluate the catalog over a corpus and emit a report.

Instances flow through in a fixed deterministic order; every check sees
every instance (relation-scoped checks skip those failing their
precondition, carrier-scoped checks run once per carrier).  The report
is a plain JSON-ready dict: per-check tested/pass/skip counts, up to a
bounded number of fully serialized counterexamples (replayable through
``replay_counterexample`` or the command line), and a summary.  All
wall-clock measurements live under the separate ``timing`` key so two
runs with the same configuration agree byte-for-byte everywhere else.

Checks are pure, so instances could be fanned out to workers with the
report aggregation as the only synchronization point; the runner stays
sequential to keep counterexample order canonical without a sort pass.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from ..completion import dm_completion, extend_negation_sigma
from ..errors import InputFormatError, MissingStructure
from ..order import FinLattice, check_negation_laws
from ..slanted import build_slanted, pi_extension, sigma_extension
from ..subordination import (
    Property,
    ProtoSubAlg,
    is_subordination_algebra,
    property_holds,
    subalg_from_json,
    subalg_to_json,
)
from .carriers import load_carrier
from .catalog import CATALOG, CHECKS_BY_NAME, CheckSpec
from .generate import GenConfig, corpus_stream, default_config

_MAX_STORED_COUNTEREXAMPLES = 10


class CarrierContext:
    """Per-carrier caches shared by every instance on that carrier."""

    def __init__(self, name: str, lat: FinLattice):
        self.name = name
        self.lat = lat
        self.ext = dm_completion(lat)
        self.delta = self.ext.delta
        self.embed = self.ext.embed
        self.neg_report = (check_negation_laws(lat, lat.neg)
                           if lat.neg is not None else None)
        self.neg_delta = None
        if (self.neg_report is not None and self.neg_report.antitone
                and self.neg_report.left_self_adjoint):
            self.neg_delta = extend_negation_sigma(self.ext, lat.neg)


class Instance:
    """One relation on a carrier, with lazily cached derived data."""

    __slots__ = ("ctx", "S", "_flags", "_sa", "_sigma", "_pi",
                 "_space", "_space_pf", "_subord")

    def __init__(self, ctx: CarrierContext, S: ProtoSubAlg):
        self.ctx = ctx
        self.S = S
        self._flags: dict = {}
        self._sa = None
        self._sigma = None
        self._pi = None
        self._space = None
        self._space_pf = None
        self._subord = None

    @property
    def n(self) -> int:
        return self.S.n

    @property
    def lat(self):
        return self.S.lattice

    @property
    def poset(self):
        return self.S.poset

    @property
    def delta(self):
        return self.ctx.delta

    @property
    def embed(self):
        return self.ctx.embed

    def flag(self, prop: Property) -> Optional[bool]:
        got = self._flags.get(prop, _UNSET)
        if got is _UNSET:
            try:
                got = property_holds(self.S, prop)
            except MissingStructure:
                got = None
            self._flags[prop] = got
        return got

    @property
    def sa(self):
        if self._sa is None:
            self._sa = build_slanted(self.S, self.ctx.ext)
        return self._sa

    @property
    def dia(self):
        return self.sa.dia

    @property
    def box(self):
        return self.sa.box

    @property
    def sigma(self):
        if self._sigma is None:
            self._sigma = sigma_extension(self.sa)
        return self._sigma

    @property
    def pi(self):
        if self._pi is None:
            self._pi = pi_extension(self.sa)
        return self._pi

    @property
    def is_subordination(self) -> bool:
        if self._subord is None:
            self._subord = is_subordination_algebra(self.S)
        return self._subord

    @property
    def dia_serial(self) -> bool:
        """Every element has a successor (no vacuous diamond values)."""
        return all(self.S.rows)

    @property
    def box_serial(self) -> bool:
        """Every element has a predecessor (no vacuous box values)."""
        return all(self.S.cols)

    @property
    def space(self):
        if self._space is None:
            from ..duality import build_space_jirr
            self._space = build_space_jirr(self.S)
        return self._space

    @property
    def space_pf(self):
        if self._space_pf is None:
            from ..duality import build_space_primefilters
            self._space_pf = build_space_primefilters(self.S)
        return self._space_pf


_UNSET = object()


def verify_check(spec: CheckSpec, inst: Instance) -> tuple[str, Optional[dict]]:
    """Evaluate one check on one instance: pass, skip, or fail with the
    lhs/rhs verdicts that make up the counterexample."""
    if not spec.precondition(inst):
        return "skip", None
    if spec.mode == "law":
        if spec.law(inst):
            return "pass", None
        return "fail", {"law": False}
    lhs = spec.lhs(inst)
    if spec.mode == "implies":
        if not lhs or spec.rhs(inst):
            return "pass", None
        return "fail", {"lhs": True, "rhs": False}
    rhs = spec.rhs(inst)
    if lhs == rhs:
        return "pass", None
    return "fail", {"lhs": bool(lhs), "rhs": bool(rhs)}


def _select_checks(names: Optional[Iterable[str]]) -> list[CheckSpec]:
    if names is None:
        return list(CATALOG)
    out = []
    for name in names:
        if name not in CHECKS_BY_NAME:
            raise InputFormatError(f"unknown check {name!r}")
        out.append(CHECKS_BY_NAME[name])
    return out


def run_suite(cfg: Optional[GenConfig] = None,
              check_names: Optional[Iterable[str]] = None) -> dict:
    """Run the selected checks over the configured corpus.

    The report's ``summary.counterexamples`` totals every failure even
    beyond the per-check stored cap, and ``summary.coverage_gaps`` names
    checks whose precondition never fired (a configuration error, not a
    pass).
    """
    cfg = cfg or default_config()
    checks = _select_checks(check_names)
    relation_checks = [c for c in checks if c.scope == "relation"]
    carrier_checks = [c for c in checks if c.scope == "carrier"]

    stats = {c.name: {"tested": 0, "passes": 0, "skips": 0,
                      "counterexamples": [], "counterexample_count": 0}
             for c in checks}
    timing = {c.name: 0.0 for c in checks}
    total_instances = 0
    t_start = time.perf_counter()

    contexts: dict[str, CarrierContext] = {}
    current: Optional[str] = None
    for carrier_name, S in corpus_stream(cfg):
        ctx = contexts.get(carrier_name)
        if ctx is None:
            ctx = CarrierContext(carrier_name, load_carrier(carrier_name))
            contexts[carrier_name] = ctx
        inst = Instance(ctx, S)
        total_instances += 1
        if carrier_name != current:
            current = carrier_name
            for spec in carrier_checks:
                _run_one(spec, inst, stats, timing, carrier_name)
        for spec in relation_checks:
            _run_one(spec, inst, stats, timing, carrier_name)

    gaps = sorted(name for name, st in stats.items() if st["tested"] == 0)
    n_counter = sum(st["counterexample_count"] for st in stats.values())
    report = {
        "config": cfg.describe(),
        "checks": {name: stats[name] for name in sorted(stats)},
        "summary": {
            "instances": total_instances,
            "checks_run": len(checks),
            "counterexamples": n_counter,
            "coverage_gaps": gaps,
        },
        "timing": {
            "checks": {name: round(timing[name], 6) for name in sorted(timing)},
            "total": round(time.perf_counter() - t_start, 6),
        },
    }
    return report


def _run_one(spec: CheckSpec, inst: Instance, stats: dict, timing: dict,
             carrier_name: str) -> None:
    st = stats[spec.name]
    t0 = time.perf_counter()
    status, detail = verify_check(spec, inst)
    timing[spec.name] += time.perf_counter() - t0
    if status == "skip":
        st["skips"] += 1
        return
    st["tested"] += 1
    if status == "pass":
        st["passes"] += 1
        return
    st["counterexample_count"] += 1
    if len(st["counterexamples"]) < _MAX_STORED_COUNTEREXAMPLES:
        st["counterexamples"].append({
            "check": spec.name,
            "carrier": carrier_name,
            "instance": subalg_to_json(inst.S),
            "detail": detail,
        })


def exit_code_for(report: dict) -> int:
    """0 all green, 1 counterexamples found, 2 coverage/config trouble."""
    if report["summary"]["coverage_gaps"]:
        return 2
    return 1 if report["summary"]["counterexamples"] else 0


def strip_timing(report: dict) -> dict:
    out = dict(report)
    out.pop("timing", None)
    return out


def replay_counterexample(ce: dict) -> dict:
    """Re-evaluate a stored counterexample object; returns the verdict."""
    if not isinstance(ce, dict) or "check" not in ce or "instance" not in ce:
        raise InputFormatError(
            'a counterexample object needs "check" and "instance"')
    name = ce["check"]
    if name not in CHECKS_BY_NAME:
        raise InputFormatError(f"unknown check {name!r}")
    S = subalg_from_json(ce["instance"])
    lat = S.lattice
    if lat is None:
        raise InputFormatError("counterexample carrier must be a lattice")
    ctx = CarrierContext(str(ce.get("carrier", "replay")), lat)
    status, detail = verify_check(CHECKS_BY_NAME[name], Instance(ctx, S))
    return {"check": name, "status": status, "detail": detail}
