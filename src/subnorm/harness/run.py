"""Suite runner: evaluate the catalog over a corpus and emit a report.

Instances flow through in a fixed deterministic order; every check sees
every instance (relation-scoped checks skip those failing their
precondition, carrier-scoped checks run once per carrier).  The report
is a plain JSON-ready dict: per-check tested/pass/skip counts, up to a
bounded number of fully serialized counterexamples (replayable through
``replay_counterexample`` or the command line), and a summary.  All
wall-clock measurements live under the separate ``timing`` key so two
runs with the same configuration agree byte-for-byte everywhere else:
``timing.checks`` holds the seconds spent in each check's own body
(only a ``law`` body runs, on the instances meeting its precondition),
``timing.layers`` the seconds and build count of each stage
(``LAYERS``): drawing the instances from the corpus stream, building
each carrier's context (which includes building the carrier's local
table the first time the process meets the carrier), and each lazily
built per-instance artefact, whichever check asked for it first.
``flags`` holds every flag bit an instance decides: the one
``catalog.local_flags`` pass per instance that reads that table
(``catalog.local_tables``) for the ten local flags, SI (every column
down-closed) and the sides of the 14 local checks (the ``Local`` laws
and the inequalities ``a <= <>a``, ``[]a <= a``, ``<>a <= a``,
``<>F <= F``, ``T <= []T``), each other property's sweep (SI's too,
above the table cap), and each ``catalog.Fact``: a compiled inequality,
the monotonicity of an operator or a dual-space condition, so the time of
every ``iff``/``implies`` side is there, less the operators and dual
spaces that a bit builds, which are booked to their own layers.
``extremality`` holds the four ``closure*-extremal`` bits, a flag group
decided together once per directed instance (``catalog.extremal_flags``)
by one lookup in the carrier's verdict table, which decides each
(diamond, box) once.

A check is data (``catalog.CheckSpec``): its precondition and the sides
of an ``iff`` or ``implies`` check are flag masks, and a ``law`` is a
mask or a body.  Each scope's checks form one ``_Plan``.  On an
instance it forces the bits the verdicts need, lazily and in catalog
order: each distinct precondition once, then, where it holds, its
checks' sides, an ``implies`` rhs only where its lhs holds.  It does
not ask the instance mask by mask: a memo maps each state of the flags
it reads (the known bits and the true ones) to the next mask to force,
found once per state by a walk of its steps.  The carrier conditions
and the flags the carrier lacks are settled once per carrier
(``CarrierContext.settled``), and each bit is decided at most once per
instance, however many checks read it.  The instance's true bits
within the masks the plan reads are its key, and the key decides every
mask, so the plan keeps a second memo, from key to the instance's whole
row (``_Row``): the checks it skips and passes, which each call counts
per row and folds into the report at the end, the checks it fails with
their detail, stored per instance so that counterexamples keep corpus
order, and the ``law`` bodies to run through ``verify_check``.  Both
memos are pure functions of the plan's checks, so the plans of one
selection of checks are built once per process (``_plans``) and shared
by every ``run_suite`` call that makes it; what a call counts stays in
the call, and a counterexample gets a copy of its row's detail.
``_decide`` is the one statement of what a precondition, an ``iff``, an
``implies`` and a mask ``law`` mean on bits; the row memo and
``replay_counterexample`` both call it.

Every carrier is a finite lattice, its own canonical extension (every
element closed and open, a monotone operator its own sigma/pi
extension), so the runner computes in the carrier: the operators come
from ``order.mask_meet_join``, and only the two negation-lifting law
bodies build a completion, once per carrier.

Checks are pure, so instances could be fanned out to workers with the
report aggregation as the only synchronization point; the runner stays
sequential to keep counterexample order canonical without a sort pass.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Callable, Iterable, Optional

from ..completion import dm_completion  # noqa: F401  (perfbench traces this binding)
from ..duality import (
    jirr_points,
    primefilter_points,
    space_from_jirr,
    space_from_primefilters,
)
from ..errors import InputFormatError
from ..order import FinLattice, mask_meet_join, opposite
from ..slanted import (  # noqa: F401  (perfbench traces these bindings)
    build_slanted,
    pi_extension,
    sigma_extension,
)
from ..subordination import (  # noqa: F401  (property_holds: perfbench traces this binding)
    FLAG_PROPERTIES,
    LOCAL_FLAGS,
    ProtoSubAlg,
    _sweep,
    missing_flags,
    property_holds,
    subalg_from_json,
    subalg_to_json,
)
from .carriers import load_carrier
from .catalog import (CATALOG, CHECKS_BY_NAME, EXTREMAL, FLAG_BITS, CheckSpec, carrier_bits,
                      extremal_flags, local_flags, local_tables)
from .generate import GenConfig, corpus_stream

_MAX_STORED_COUNTEREXAMPLES = 10

#: the stages timed under ``timing.layers``: the corpus stream, the
#: carrier contexts, and the lazily built per-instance artefacts
LAYERS = ("corpus", "context", "flags", "extremality", "sa", "space", "space_pf", "image")


class LayerClock:
    """Seconds and build counts per layer.  A build's arguments are
    evaluated before its clock starts, and a build made inside another is
    booked to its own layer only, so ``spent`` is the total time inside
    builds."""

    def __init__(self):
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.builds = dict.fromkeys(LAYERS, 0)
        self.spent = 0.0

    def build(self, layer: str, fn: Callable, *args):
        """``fn(*args)``, booked to ``layer`` less the builds it makes
        itself (a flag bit reading the operators builds them), which are
        booked to their own layers."""
        t0, before = time.perf_counter(), self.spent
        try:
            return fn(*args)
        finally:
            self.charge(layer, t0 + (self.spent - before))

    def charge(self, layer: str, t0: float, builds: int = 1) -> None:
        """Book the time since ``t0`` to ``layer`` as ``builds`` builds."""
        dt = time.perf_counter() - t0
        self.seconds[layer] += dt
        self.builds[layer] += builds
        self.spent += dt


class CarrierContext:
    """Per-carrier caches shared by every instance on that carrier.

    ``mask_meet(m)``/``mask_join(m)`` are the meet and the join of the
    subset mask ``m`` (``order.mask_meet_join``): the diamond of a row
    mask and the box of a column mask.  ``missing`` holds the flags (as
    ``flag_mask`` bits) whose property needs structure the carrier
    lacks, ``local`` the carrier's ``catalog.local_tables`` (None above
    the table cap, and shared by every context of one lattice object)
    and ``table_bits`` the flags (SI among them) and ``Local`` sides it
    decides.  ``settled`` are the bits every instance starts with known,
    the missing flags and the catalog's carrier conditions, and ``held``
    those of them that hold (``catalog.carrier_bits``).  The points of
    the two dual spaces are built on first use, once for every instance,
    and so is ``dual``, the context of the order dual (``order.opposite``)
    that the box-side laws read: its mask meet is this mask join and the
    reverse, and it books its builds to this context's clock."""

    def __init__(self, name: str, lat: FinLattice):
        self.name = name
        self.lat = lat
        self.mask_meet, self.mask_join = mask_meet_join(lat)
        self.clock = LayerClock()
        self.missing = missing_flags(lat)
        self._jirr_points = None
        self._pf_points = None
        self._dual = None
        self.local = local_tables(self)
        self.table_bits = self.local[0] if self.local else 0
        self.settled, self.held = carrier_bits(self)

    def space(self, dia):
        """The join-irreducible dual space of a relation with diamond ``dia``."""
        if self._jirr_points is None:
            self._jirr_points = jirr_points(self.lat)
        return space_from_jirr(self._jirr_points, dia)

    def space_pf(self, rows):
        """The prime-filter dual space of a relation with ``rows``."""
        if self._pf_points is None:
            self._pf_points = primefilter_points(self.lat)
        return space_from_primefilters(self._pf_points, rows)

    @property
    def dual(self) -> "CarrierContext":
        if self._dual is None:
            # no flag bit is decided on a dual instance, so the dual
            # context settles none and builds no local table
            dual = self._dual = object.__new__(CarrierContext)
            dual.name, dual.lat, dual.clock = self.name, opposite(self.lat), self.clock
            dual.mask_meet, dual.mask_join = self.mask_join, self.mask_meet
            dual.settled = dual.held = 0
        return self._dual


def _unions(rows) -> list[int]:
    """``table[m]`` is the union of ``rows[a]`` over the members ``a`` of
    ``m``, for all ``2^n`` masks: one OR per mask."""
    table = [0]
    for r in rows:
        table += [m | r for m in table]
    return table


def _operators(ctx: CarrierContext, S: ProtoSubAlg) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(dia, box)``: the meet of each row and the join of each column."""
    return tuple(map(ctx.mask_meet, S.rows)), tuple(map(ctx.mask_join, S.cols))


class Instance:
    """One relation on a carrier, with lazily cached derived data.

    Each artefact is built on first use through the carrier's
    ``LayerClock``: the flag bits (two bitmasks: the bits known so far,
    starting from the carrier's ``settled`` ones, and those of them that
    are True; the ten local flags, SI and the catalog's ``Local`` sides
    come from one ``local_flags`` pass over the carrier's local table, each
    other property flag from its sweep, and every other bit, such as a
    side above the table cap or a ``catalog.Fact``, from its owner's
    ``holds``), the operators ``dia``/``box`` (together, booked to the
    ``sa`` layer), the two dual spaces (read off the context's shared
    points), and the ``image`` table, which gives the union of the rows
    of every one of the ``2^n`` subset masks (read by the directed-family
    checks, on carriers small enough for subset tables).  ``dual`` is the
    converse relation on the order dual of the carrier (``ctx.dual``),
    whose diamond is this box and whose box this diamond, taken from
    this instance rather than recomputed; the box-side laws read it.
    ``terms`` holds the columns of the compiled inequalities' subterms,
    one dict per variable tuple, so the texts share their common
    subterms (``catalog._compile_inequality``).
    """

    __slots__ = ("ctx", "S", "_known", "_true", "_operators", "_space", "_space_pf",
                 "_image", "_dual", "terms")

    def __init__(self, ctx: CarrierContext, S: ProtoSubAlg):
        self.ctx = ctx
        self.S = S
        self._known = ctx.settled
        self._true = ctx.held
        self._operators = None
        self._space = None
        self._space_pf = None
        self._image = None
        self._dual = None
        self.terms = {}

    def _compute(self, todo: int) -> None:
        """Compute the lowest flag of ``todo``: all of the carrier's
        ``table_bits`` at once when ``todo`` holds one of them, the four
        ``catalog.EXTREMAL`` bits at once when it holds one of those, a
        property flag by its sweep, and any other bit by its owner's
        ``holds``.  (The carrier conditions are never computed here:
        every instance starts with them known.)"""
        ctx = self.ctx
        if todo & ctx.table_bits:
            self._known |= ctx.table_bits
            self._true |= ctx.clock.build("flags", local_flags, self.S, ctx.local)
            return
        if todo & EXTREMAL:
            self._known |= EXTREMAL
            self._true |= ctx.clock.build("extremality", extremal_flags, self)
            return
        bit = todo & -todo
        self._known |= bit
        i = bit.bit_length() - 1
        if i < len(FLAG_PROPERTIES):
            holds = ctx.clock.build("flags", _sweep, self.S, FLAG_PROPERTIES[i], False) is None
        else:
            holds = ctx.clock.build("flags", FLAG_BITS[i - len(FLAG_PROPERTIES)].holds, self)
        if holds:
            self._true |= bit

    @property
    def operators(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if self._operators is None:
            self._operators = self.ctx.clock.build("sa", _operators, self.ctx, self.S)
        return self._operators

    @property
    def dia(self) -> tuple[int, ...]:
        return self.operators[0]

    @property
    def box(self) -> tuple[int, ...]:
        return self.operators[1]

    @property
    def image(self) -> list[int]:
        if self._image is None:
            self._image = self.ctx.clock.build("image", _unions, self.S.rows)
        return self._image

    @property
    def dual(self) -> "Instance":
        if self._dual is None:
            ctx = self.ctx.dual
            self._dual = Instance(ctx, ProtoSubAlg(ctx.lat, self.S.cols))
            self._dual._operators = self.operators[::-1]
        return self._dual

    # The dual spaces are read only by checks whose precondition makes
    # the relation a subordination on a distributive lattice, so they are
    # built from the instance's artefacts without checking that again.
    @property
    def space(self):
        if self._space is None:
            self._space = self.ctx.clock.build("space", self.ctx.space, self.dia)
        return self._space

    @property
    def space_pf(self):
        if self._space_pf is None:
            self._space_pf = self.ctx.clock.build("space_pf", self.ctx.space_pf, self.S.rows)
        return self._space_pf


def _decide(spec: CheckSpec, key: int) -> Optional[tuple[str, Optional[dict]]]:
    """The verdict of a check on an instance whose true flag bits are
    ``key``: skip where the precondition fails, else pass, or fail with
    the lhs/rhs verdicts that make up the counterexample; None for a
    ``law`` body, which ``verify_check`` runs.  ``key`` must hold every
    bit that ``_Plan.key`` forces for the check."""
    if spec.precondition & ~key:
        return "skip", None
    if spec.mode == "law":
        if not isinstance(spec.law, int):
            return None
        return ("fail", {"law": False}) if spec.law & ~key else ("pass", None)
    lhs, rhs = not spec.lhs & ~key, not spec.rhs & ~key
    if spec.mode == "implies":
        return ("fail", {"lhs": True, "rhs": False}) if lhs and not rhs else ("pass", None)
    return ("pass", None) if lhs == rhs else ("fail", {"lhs": lhs, "rhs": rhs})


def verify_check(spec: CheckSpec, inst: Instance) -> tuple[str, Optional[dict]]:
    """Run the body of a ``law`` check on an instance that meets its
    precondition: pass, or fail."""
    if spec.law(inst):
        return "pass", None
    return "fail", {"law": False}


def _select_checks(names: Optional[Iterable[str]]) -> list[CheckSpec]:
    if names is None:
        return list(CATALOG)
    if isinstance(names, str):
        raise InputFormatError(
            f"check_names must be a sequence of check names, not a str: {names!r}")
    out = []
    for name in names:
        if name not in CHECKS_BY_NAME:
            raise InputFormatError(f"unknown check {name!r}")
        if CHECKS_BY_NAME[name] in out:
            raise InputFormatError(f"check {name!r} is named twice")
        out.append(CHECKS_BY_NAME[name])
    if not out:
        raise InputFormatError("no checks selected")
    return out


def run_suite(cfg: Optional[GenConfig] = None,
              check_names: Optional[Iterable[str]] = None) -> dict:
    """Run the selected checks over the configured corpus.

    The report's ``summary.counterexamples`` totals every failure even
    beyond the per-check stored cap, and ``summary.coverage_gaps`` names
    checks whose precondition never fired (a configuration error, not a
    pass).
    """
    cfg = cfg or GenConfig()
    checks = _select_checks(check_names)
    carrier_plan, relation_plan = _plans(tuple(checks))
    counts: dict[_Row, int] = {}  # the instances each row decided in this call

    stats = {c.name: {"tested": 0, "passes": 0, "skips": 0,
                      "counterexamples": [], "counterexample_count": 0}
             for c in checks}
    timing = {c.name: 0.0 for c in checks}
    total_instances = 0
    t_start = time.perf_counter()

    contexts: dict[str, CarrierContext] = {}
    current: Optional[str] = None
    clock = LayerClock()  # the corpus and context layers
    stream = corpus_stream(cfg)
    while True:
        t0 = time.perf_counter()
        item = next(stream, None)
        if item is None:
            clock.charge("corpus", t0, 0)
            break
        clock.charge("corpus", t0)
        carrier_name, S = item
        ctx = contexts.get(carrier_name)
        if ctx is None:
            ctx = clock.build("context", CarrierContext, carrier_name,
                              load_carrier(carrier_name))
            contexts[carrier_name] = ctx
        inst = Instance(ctx, S)
        total_instances += 1
        if carrier_name != current:
            current = carrier_name
            _run_row(carrier_plan, inst, counts, stats, timing, carrier_name)
        _run_row(relation_plan, inst, counts, stats, timing, carrier_name)
    for row, count in counts.items():
        for name in row.skipped:
            stats[name]["skips"] += count
        for name in row.passed:
            stats[name]["tested"] += count
            stats[name]["passes"] += count

    gaps = sorted(name for name, st in stats.items() if st["tested"] == 0)
    n_counter = sum(st["counterexample_count"] for st in stats.values())
    clocks = [clock] + [c.clock for c in contexts.values()]
    layers = {name: {"builds": sum(c.builds[name] for c in clocks),
                     "seconds": round(sum(c.seconds[name] for c in clocks), 6)}
              for name in LAYERS}
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
            "layers": {name: layers[name] for name in sorted(layers)},
            "total": round(time.perf_counter() - t_start, 6),
        },
    }
    return report


class _Row:
    """What one key decides for every check of a plan: the names of the
    checks skipped and of those passed, which ``run_suite`` counts per
    row and folds into the report at the end; the ``(name, detail)`` of
    the checks failed, and the ``law`` bodies to run, both per instance.
    A row holds no per-call state, so every call reads the same one."""

    __slots__ = ("skipped", "passed", "failed", "bodies")

    def __init__(self, specs: list[CheckSpec], key: int):
        self.skipped, self.passed, self.failed, self.bodies = [], [], [], []
        for spec in specs:
            verdict = _decide(spec, key)
            if verdict is None:
                self.bodies.append(spec)
            elif verdict[0] == "fail":
                self.failed.append((spec.name, verdict[1]))
            else:
                (self.skipped if verdict[0] == "skip" else self.passed).append(spec.name)


class _Plan:
    """How the checks of one scope are decided on an instance.

    ``steps`` lists each distinct precondition, in the order the checks
    first state it, with the ``(first, second, implies)`` masks of its
    checks' sides: lhs and rhs, or a mask ``law`` and 0 (a ``law`` body
    has none).  ``reads`` is the union of every mask.  ``forcing`` maps
    a state, an instance's known and true bits within ``reads`` (packed
    as ``known << width | true``), to the next mask to force there
    (``_force``), and ``rows`` maps a key, its true bits within
    ``reads`` once every needed bit is known, to its ``_Row``.  Both
    memos depend on the checks alone and only grow, so one plan serves
    every ``run_suite`` call that selects its checks (``_plans``)."""

    __slots__ = ("specs", "steps", "reads", "width", "forcing", "rows")

    def __init__(self, specs: Iterable[CheckSpec]):
        self.specs = list(specs)
        groups: dict[int, list] = {}
        for spec in self.specs:
            sides = groups.setdefault(spec.precondition, [])
            if spec.mode != "law":
                sides.append((spec.lhs, spec.rhs, spec.mode == "implies"))
            elif isinstance(spec.law, int):
                sides.append((spec.law, 0, False))
        self.steps = list(groups.items())
        self.reads = 0
        for pre, sides in self.steps:
            self.reads |= pre
            for first, second, _ in sides:
                self.reads |= first | second
        self.width = self.reads.bit_length()
        self.forcing: dict[int, int] = {}
        self.rows: dict[int, _Row] = {}

    def _force(self, known: int, true: int) -> int:
        """The unknown bits of the first mask that the checks ask for in
        the state (``known``, ``true``), or 0 when they ask for none.
        Each precondition is asked, then, where it holds, the sides of
        its checks, an ``implies`` rhs only where its lhs holds; a mask
        with a bit known false fails without being asked, and one with
        no unknown bit holds."""
        false = known & ~true
        for pre, sides in self.steps:
            if pre & false:
                continue
            if pre & ~known:
                return pre & ~known
            for first, second, implies in sides:
                if first & ~known and not first & false:
                    return first & ~known
                if second & ~known and not second & false and not (implies and first & false):
                    return second & ~known
        return 0

    def key(self, inst: Instance) -> int:
        """Force the flag bits the checks read and return the key.  The
        next mask to force is looked up per state in ``forcing``, and its
        local and table bits are computed first, the others in bit order,
        so a flag is computed only where a verdict needs it.  A precondition
        holds exactly when its mask is within the key, and so does each
        side it forces, which is all ``_decide`` reads."""
        reads, width, forcing = self.reads, self.width, self.forcing
        table = LOCAL_FLAGS | inst.ctx.table_bits
        while True:
            known, true = inst._known & reads, inst._true & reads
            state = known << width | true
            todo = forcing.get(state)
            if todo is None:
                todo = forcing[state] = self._force(known, true)
            if not todo:
                return true
            inst._compute(todo & table or todo)

    def row(self, inst: Instance) -> _Row:
        key = self.key(inst)
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = _Row(self.specs, key)
        return row


@lru_cache(maxsize=None)
def _plans(checks: tuple[CheckSpec, ...]) -> tuple[_Plan, _Plan]:
    """The carrier-scope and the relation-scope ``_Plan`` of a selection
    of checks, built once per selection and shared by every
    ``run_suite`` call that makes it: both memos of a plan are pure
    functions of its checks and their keys, so a later call only reads
    what an earlier one found."""
    return (_Plan(c for c in checks if c.scope == "carrier"),
            _Plan(c for c in checks if c.scope == "relation"))


def _run_row(plan: _Plan, inst: Instance, counts: dict, stats: dict, timing: dict,
             carrier_name: str) -> None:
    row = plan.row(inst)
    counts[row] = counts.get(row, 0) + 1
    for name, detail in row.failed:
        _tally(stats[name], name, inst, carrier_name, "fail", detail)
    clock = inst.ctx.clock
    for spec in row.bodies:
        t0, built = time.perf_counter(), clock.spent
        status, detail = verify_check(spec, inst)
        timing[spec.name] += time.perf_counter() - t0 - (clock.spent - built)
        _tally(stats[spec.name], spec.name, inst, carrier_name, status, detail)


def _tally(st: dict, name: str, inst: Instance, carrier_name: str, status: str,
           detail: Optional[dict]) -> None:
    st["tested"] += 1
    if status == "pass":
        st["passes"] += 1
        return
    st["counterexample_count"] += 1
    if len(st["counterexamples"]) < _MAX_STORED_COUNTEREXAMPLES:
        st["counterexamples"].append({
            "check": name,
            "carrier": carrier_name,
            "instance": subalg_to_json(inst.S),
            "detail": dict(detail),  # a row's detail is shared by every call
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
    """Re-evaluate a stored counterexample object; returns the verdict,
    ``skip`` when the instance does not meet the check's precondition."""
    if not isinstance(ce, dict) or "check" not in ce or "instance" not in ce:
        raise InputFormatError(
            'a counterexample object needs "check" and "instance"')
    name = ce["check"]
    if not isinstance(name, str) or name not in CHECKS_BY_NAME:
        raise InputFormatError(f"unknown check {name!r}")
    S = subalg_from_json(ce["instance"])
    lat = S.lattice
    if lat is None:
        raise InputFormatError("counterexample carrier must be a lattice")
    ctx = CarrierContext(str(ce.get("carrier", "replay")), lat)
    spec = CHECKS_BY_NAME[name]
    status, detail = _verdict(spec, Instance(ctx, S))
    return {"check": name, "status": status, "detail": detail}


def _verdict(spec: CheckSpec, inst: Instance) -> tuple[str, Optional[dict]]:
    """One check on one instance: its bits forced as a suite run forces
    them, and decided by ``_decide`` or its body."""
    return _decide(spec, _Plan([spec]).key(inst)) or verify_check(spec, inst)
