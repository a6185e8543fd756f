"""Code mutants of the operators read in the carrier, the order dual and
the dual instance that the box-side laws read, the bound-reflection
laws, the local table, the local catalog sides, the flag bits
that preconditions and check sides read, the closure-extremality verdict
table, the runner's decision of a check from its flag bits, its memos
and the replay path, what the runner keeps across calls (its shared
plans and the closure-generated corpus), the table of set-bit lists,
the property sweeps, the relation's range check, the cache of JSON
carriers, the closure and its rule systems, the output operators d1..d4
of input/output logic, the term evaluator and modal validity.

Each mutant is one ``(file, old, new)`` patch.  The runner copies the
repository's ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the patch there and runs the ``FAST`` test subset
against the copy; a failing run kills the mutant.  A patch whose ``old``
text does not occur exactly once in its file is an error, so a list that
has drifted from the code fails loudly instead of testing nothing.  The
unpatched copy is run first and must pass; then the mutants run two at
a time (``JOBS``).  The working tree is never touched.  Standard library
only, and not part of the Tier-1 suite:

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones
    python tools/mutants.py --list

Prints one ``killed`` line (with the first failing test) or
``SURVIVED`` line per mutant and exits 1 when a
mutant survives or a patch does not apply.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
#: mutants tested at once, each by one pytest process of about 100 MB
JOBS = min(2, os.cpu_count() or 1)

#: the tests each mutant runs against: the relation object against its
#: stated checks, JSON carriers against rewritten files, the order dual
#: against its swaps and the reversed order, the operators
#: read in the carrier against the route through its completion, the
#: directed-family and bound-reflection laws against their statements in
#: the completion, with planted tables, the extremality bits against the
#: map enumeration and the verdict table's miss path, every precondition
#: against its stated oracle, the local sides against the per-instance
#: bodies, the runner's plans and memo against the naive loop, the
#: witness digest, the closure against its oracles, ``derive``, ``out``
#: and ``modal_output`` with the closure route against the semantics of
#: out1..out4, the term evaluator against its scalar oracle, and modal
#: validity with its lexicographically first witnesses; then the tests
#: that each aim at a mutant one of those already kills: the forcing memo
#: against asking for each mask in turn, each fact a check side reads
#: decided once per instance, the flag bitmasks against
#: ``property_holds``, the local table against the set-based oracles,
#: replayed counterexamples, the shared plans against fresh interpreters,
#: the closure-generated corpus against closing every seed afresh,
#: ``bits`` against its generator, the closure digest and each check
#: against its dual on the dual relation.  A mutant stops
#: at its first failing test, so the order is for speed alone: a test
#: that first kills no mutant costs every mutant behind it, and these
#: last ones (about 13 s) run only for the unpatched copy and a mutant
#: that survives the rest
FAST = (
    "tests/test_subordination.py::TestProtoSubAlg",
    "tests/test_harness.py::TestJsonCarriers",
    "tests/test_order.py::TestOpposite",
    "tests/test_harness.py::TestCarrierIsItsOwnCompletion",
    "tests/test_harness.py::TestLawOracles",
    "tests/test_harness.py::TestExtremalityFlags",
    "tests/test_harness.py::TestPreconditions",
    "tests/test_harness.py::TestLocalSides",
    "tests/test_harness.py::TestGroupedRunner",
    "tests/test_witness_digest.py",
    "tests/test_subordination.py::TestClose",
    "tests/test_iologic.py::TestOutputOracle",
    "tests/test_syntax.py::test_evaluate_matches_oracle_on_every_assignment",
    "tests/test_slanted.py::TestValid",
    "tests/test_harness.py::TestForcing",
    "tests/test_harness.py::TestCheckSides",
    "tests/test_subordination.py::TestLocalFlags",
    "tests/test_subordination.py::test_local_witnesses_on_every_row_and_column",
    "tests/test_harness.py::TestReplay",
    "tests/test_harness.py::TestSharedPlans",
    "tests/test_harness.py::TestClosureMemo",
    "tests/test_order.py::TestBits",
    "tests/test_closure_digest.py",
    "tests/test_metamorphic.py",
)

CARRIERS = "src/subnorm/harness/carriers.py"
CATALOG = "src/subnorm/harness/catalog.py"
IOLOGIC = "src/subnorm/iologic.py"
MAXIMALITY = "src/subnorm/harness/maximality.py"
GENERATE = "src/subnorm/harness/generate.py"
ORDER = "src/subnorm/order.py"
RUN = "src/subnorm/harness/run.py"
SLANTED = "src/subnorm/slanted.py"
SUBORDINATION = "src/subnorm/subordination.py"
SYNTAX = "src/subnorm/syntax.py"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str


MUTANTS = (
    # the construction of the local table (`_build_local_tables`)
    Mutant("table-skips-last-index", CATALOG,
           "        for a in range(lat.n):",
           "        for a in range(lat.n - 1):"),
    Mutant("table-negates-index-tests", CATALOG,
           "if test(up, ends, a, m) is None)",
           "if test(up, ends, a, m) is not None)"),
    Mutant("table-leaves-own-side-free", CATALOG,
           "        other = every & ~sum(bit for bit, _ in flags) & ~sum(s.bit for s in mine)",
           "        other = every"),
    Mutant("table-laws-on-wrong-side", CATALOG,
           "for q, (s, test) in LOCAL_TESTS.items() if s == side]",
           "for q, (s, test) in LOCAL_TESTS.items() if (s == side) != isinstance(test, str)]"),
    Mutant("table-laws-read-up-closed", CATALOG,
           "tables.get(law) or",
           "tables['up-closed'] or"),
    Mutant("table-rows-read-join", CATALOG,
           "        values = list(map(_operator(ctx, side), masks))",
           "        values = list(map(ctx.mask_join, masks))"),
    Mutant("table-value-side-at-wrong-value", CATALOG,
           "free[m] | value_bits[values[m]]",
           "free[m] | value_bits[values[m ^ 1]]"),
    # the pass over a relation's rows and columns
    Mutant("pass-skips-last-row", CATALOG,
           "for sig, r in zip(rowsig, S.rows):",
           "for sig, r in zip(rowsig[:-1], S.rows):"),
    Mutant("pass-skips-last-column", CATALOG,
           "for sig, c in zip(colsig, S.cols):",
           "for sig, c in zip(colsig[:-1], S.cols):"),
    # the local sides
    Mutant("inflationary-side-reversed", CATALOG,
           "lambda ctx, a, m, v: at(ctx, v, {names[0]: (a,)}),",
           "lambda ctx, a, m, v: (\n"
           "            at(ctx, v, {names[0]: (a,)}) if ineq.lhs[0] != 'var'\n"
           "            else ctx.lat.poset.up[v] >> a & 1),"),
    Mutant("bounds-law-without-column-half", CATALOG,
           ',\n                     Local("cols", lambda ctx, b, m, v: '
           'not m & ~ctx.lat.poset.down[v]))',
           ")"),
    Mutant("grounded-side-at-top", CATALOG,
           "a != getattr(ctx.lat, operand[0])",
           "a != ctx.lat.top"),
    # the flag bits that preconditions read: seriality, a carrier
    # condition, and the flags a carrier settles false
    Mutant("row-seriality-reads-true", CATALOG,
           '_DIA_SERIAL = Local("rows", lambda ctx, a, m, v: m != 0)',
           '_DIA_SERIAL = Local("rows", lambda ctx, a, m, v: True)'),
    Mutant("distributive-bit-from-lattice-test", CATALOG,
           "_DISTRIBUTIVE = CarrierCondition(lambda ctx: ctx.lat.is_distributive)",
           "_DISTRIBUTIVE = CarrierCondition(lambda ctx: True)"),
    Mutant("missing-flags-settled-true", CATALOG,
           "            sum(c.bit for c in conditions if c.test(ctx)))",
           "            ctx.missing | sum(c.bit for c in conditions if c.test(ctx)))"),
    # the facts that check sides read (`catalog.Fact`)
    Mutant("box-monotone-bit-tests-dia", CATALOG,
           '"box": Fact(lambda inst: is_monotone(inst.box,',
           '"box": Fact(lambda inst: is_monotone(inst.dia,'),
    # the bound-reflection laws, over every element of the carrier
    Mutant("dia-open-bound-reads-up", CATALOG,
           "if any(not reach & down[o] for o in bits(up[dia[k]])):",
           "if any(not reach & up[o] for o in bits(up[dia[k]])):"),
    Mutant("fact-known-never-true", CATALOG,
           "    def holds(self, inst) -> bool:\n        return self.test(inst)\n",
           "    def holds(self, inst) -> bool:\n        return self.test(inst) and False\n"),
    # the closure-extremality verdict table (`maximality._ExtremalityTables`)
    Mutant("extremality-index-ignores-box", MAXIMALITY,
           "index = sum(map(getitem, t.row_code, S.rows)) + sum(map(getitem, t.col_code, S.cols))",
           "index = sum(map(getitem, t.row_code, S.rows))"),
    Mutant("extremality-entry-written-per-system", MAXIMALITY,
           "            got |= ok << (i - 1)\n",
           "            got |= ok << (i - 1)\n            self.verdicts[index] = got\n"),
    # the operators of an instance, read off the carrier's mask tables
    Mutant("operators-swap-meet-and-join", RUN,
           "return tuple(map(ctx.mask_meet, S.rows)), tuple(map(ctx.mask_join, S.cols))",
           "return tuple(map(ctx.mask_join, S.rows)), tuple(map(ctx.mask_meet, S.cols))"),
    # the runner's memos (`run._Plan`: the forcing memo and the row memo's
    # keys), its one decision of a check from flag bits (`run._decide`)
    # and the replay path (`run._verdict`)
    Mutant("forcing-memo-keyed-on-known", RUN,
           "state = known << width | true",
           "state = known"),
    Mutant("pattern-key-drops-a-bit", RUN,
           "                return true\n",
           "                return true & (reads - 1)\n"),
    Mutant("failing-pattern-counted-as-passes", RUN,
           'return ("pass", None) if lhs == rhs else ("fail", {"lhs": lhs, "rhs": rhs})',
           'return "pass", None'),
    Mutant("implies-lhs-test-inverted", RUN,
           'return ("fail", {"lhs": True, "rhs": False}) if lhs and not rhs else ("pass", None)',
           'return ("fail", {"lhs": True, "rhs": False}) if not lhs and not rhs else ("pass", None)'),
    Mutant("iff-detail-swaps-sides", RUN,
           '("fail", {"lhs": lhs, "rhs": rhs})',
           '("fail", {"lhs": rhs, "rhs": lhs})'),
    # what is kept across `run_suite` calls: the plans, shared per
    # selection, hold no per-call counts, and the closure-generated
    # corpus is kept with its lattice object and goes with it
    Mutant("plan-counts-on-shared-row", RUN,
           "    counts: dict[_Row, int] = {}  # the instances each row decided in this call\n",
           '    counts = _Row.__init__.__dict__.setdefault("counts", {})\n'),
    Mutant("closure-memo-keyed-on-n", GENERATE,
           'corpora = carrier._memo.setdefault("closures", {})',
           "corpora = closure_generated.__dict__.setdefault(carrier.n, {})"),
    Mutant("closure-memo-outlives-lattice", GENERATE,
           'corpora = carrier._memo.setdefault("closures", {})',
           "corpora = closure_generated.__dict__.setdefault(id(carrier), (carrier, {}))[1]"),
    # the order dual (`order.opposite`), and the instance on it that the
    # box-side laws read (`run.Instance.dual`)
    Mutant("opposite-keeps-bounds", ORDER,
           "L.top, L.bot, L.is_distributive",
           "L.bot, L.top, L.is_distributive"),
    Mutant("opposite-keeps-meet-and-join", ORDER,
           "FinPoset(L.poset.down, L.poset.labels), L.join, L.meet,",
           "FinPoset(L.poset.down, L.poset.labels), L.meet, L.join,"),
    Mutant("dual-context-keeps-mask-meet", RUN,
           "dual.mask_meet, dual.mask_join = self.mask_join, self.mask_meet",
           "dual.mask_meet, dual.mask_join = self.mask_meet, self.mask_join"),
    Mutant("dual-operators-unswapped", RUN,
           "self._dual._operators = self.operators[::-1]",
           "self._dual._operators = self.operators"),
    Mutant("dual-relation-not-converse", RUN,
           "Instance(ctx, ProtoSubAlg(ctx.lat, self.S.cols))",
           "Instance(ctx, ProtoSubAlg(ctx.lat, self.S.rows))"),
    # the table of set-bit lists that `order.bits` reads
    Mutant("bits-table-one-bit-short", ORDER,
           "_BITS = _bit_lists(_TABLE_CAP)",
           "_BITS = _bit_lists(_TABLE_CAP - 1)"),
    Mutant("replay-skips-precondition", RUN,
           "return _decide(spec, _Plan([spec]).key(inst)) or verify_check(spec, inst)",
           "return _decide(spec, _Plan([spec]).key(inst) | spec.precondition)"
           " or verify_check(spec, inst)"),
    # the sweeps: only a verdict may stop SL1 at its first counterexample
    Mutant("sl1-early-stop-in-check-property", SUBORDINATION,
           "    witness = _sweep(S, prop)\n",
           "    witness = _sweep(S, prop, least=False)\n"),
    # the relation object: every head within the carrier
    Mutant("relation-head-range-unchecked", SUBORDINATION,
           "        if any(r & ~full for r in rows):\n"
           "            raise InputFormatError(\"relation indices out of carrier range\")\n",
           ""),
    # a JSON carrier is read as the file is now, not as it was when first read
    Mutant("json-carrier-cached-by-path", CARRIERS,
           "stamp = (st.st_mtime_ns, st.st_size)",
           "stamp = ()"),
    # `subordination.close`: its rule dispatch and its row fixpoint
    Mutant("filter-shortcut-keeps-any-row", SUBORDINATION,
           "if r and up[(r & -r).bit_length() - 1] != r:",
           "if r and False:"),
    Mutant("ct-membership-read-from-t", SUBORDINATION,
           "map(ruleset.__contains__, _CLOSE_ORDER)",
           "map(ruleset.__contains__, (*_CLOSE_ORDER[:6], P.T, P.T))"),
    Mutant("si-skips-last-row", SUBORDINATION,
           "for a, above in enumerate(strict_up):",
           "for a, above in enumerate(strict_up[:-1]):"),
    # the diamond form of `subordination.close` (`_close_diamond`) and its
    # per-lattice walk (`_diamond_shape`)
    Mutant("or-over-j-skips-last", SUBORDINATION,
           "for j in js:",
           "for j in js[:-1]:"),
    Mutant("ct-reads-t-step", SUBORDINATION,
           "d[a] = meet[x][d[meet[a][x]]]",
           "d[a] = meet[x][d[x]]"),
    Mutant("si-walk-skips-a-cover", SUBORDINATION,
           "for c in covers:",
           "for c in covers[1:]:"),
    Mutant("distributivity-guard-dropped", SUBORDINATION,
           "if lat.is_distributive:",
           "if True:"),
    # the rule systems that `close_i` closes under, held to the semantics
    # through the closure route of the input/output tests
    Mutant("system-2-without-or", SUBORDINATION,
           "    2: frozenset({Property.TOP, Property.SI, Property.WO, Property.AND, Property.OR}),",
           "    2: frozenset({Property.TOP, Property.SI, Property.WO, Property.AND}),"),
    # the pointwise output operators of `iologic._output`
    Mutant("d3-fixpoint-from-top", IOLOGIC,
           "            b = a\n",
           "            b = top\n"),
    Mutant("d4-without-its-filter", IOLOGIC,
           "if i == 2 or hv >> v & 1:",
           "if True:"),
    Mutant("d2-without-h-of-bottom", IOLOGIC,
           "        out = h(0)\n",
           "        out = h(0) if i == 4 else 0\n"),
    # the one term evaluator (`syntax.evaluate`) and modal validity over
    # blocks of assignments (`slanted.valid`)
    Mutant("evaluate-imp-keeps-left", SYNTAX,
           "left = [neg[x] for x in left]",
           "left = [x for x in left]"),
    Mutant("valid-drops-last-block", SLANTED,
           "while block := list(islice(assignments, _BLOCK)):",
           "while len(block := list(islice(assignments, _BLOCK))) == _BLOCK:"),
)


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _patched(mutant: Mutant) -> str:
    """The mutant's file with the patch applied."""
    text = (ROOT / mutant.file).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"error: mutant {mutant.name}: the old text occurs {count} times "
                         f"in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def _run_fast(tree: Path) -> Optional[str]:
    """The first test of the ``FAST`` subset that fails on the tree, or
    None when all pass; the copy's own ``src`` must be the package
    imported."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import subnorm; print(subnorm.__file__)"],
                           cwd=tree, env=env, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"error: the copy imports subnorm from {where.stdout.strip()}")
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *FAST], cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else done.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        print("\n".join(by_name))
        return 0
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    patched = [_patched(m) for m in chosen]  # every patch applies before anything runs
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="subnorm-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        failure = _run_fast(base)
        if failure:
            print(f"error: the unpatched tree fails the fast subset: {failure}", file=sys.stderr)
            return 1

        def run(mutant: Mutant, text: str) -> tuple[Optional[str], float]:
            tree = Path(tmp) / mutant.name
            shutil.copytree(base, tree)
            (tree / mutant.file).write_text(text)
            t0 = time.perf_counter()
            failure = _run_fast(tree)
            shutil.rmtree(tree)
            return failure, time.perf_counter() - t0

        survived = []
        with ThreadPoolExecutor(JOBS) as pool:
            for mutant, (failure, secs) in zip(chosen, pool.map(run, chosen, patched)):
                print(f"{'killed  ' if failure else 'SURVIVED'} {mutant.name} "
                      f"({secs:.1f} s){': ' + failure if failure else ''}", flush=True)
                if not failure:
                    survived.append(mutant.name)
    print(f"{len(chosen) - len(survived)}/{len(chosen)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
