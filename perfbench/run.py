"""The subnorm benchmark: one seeded workload, end to end or layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-small --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Workloads (see README.md for why each was chosen):

* ``verify-small``: ``run_suite`` over seeded random corpus rounds on
  ``chain4`` and ``b4``, all 60 checks;
* ``verify-large``: the same on ``fdl2`` and ``b8``;
* ``queries``: a seeded, shuffled stream of one-shot ``cli.main`` commands.

Each measured loop runs in a fresh interpreter (``worker.py``); the
``queries`` stream and its input files are generated here, before any
interpreter starts, so set-up time is the program's own.  With
``--trace 0`` the benchmark also starts several set-up-only interpreters
and reports the median set-up time, and prints ``setup_s``,
``ops_per_s``, ``query_p50_ms``, ``query_p99_ms`` and ``peak_rss_mb``.
Times are scaled to a reference host speed (see ``worker.py``); the
times as measured are printed too.
With ``--trace 1`` the loop runs with layer spans installed, then again
untraced for the same number of operations; it prints the per-layer
table, the tracing overhead, and checks that both runs gave the same
verdicts.  The last line of output is always one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
from queries import make_stream, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify-small", "verify-large", "queries")
DEFAULT_SEED = 7
SETUP_ONLY_RUNS = 8  # set-up is the median over these and the measured run
QUERY_STREAM = 16000  # queries generated per run; the loop wraps round if it runs out
TIME_LIMIT_S = 175  # a whole invocation of one workload stays inside this

# per-layer metrics reported by a traced run: calls and self-time share
# (``iologic.close_i`` only feeds ``iologic.closure_miss_share``)
LAYERS = tuple(layer for layer in tracer.LAYERS if layer != "iologic.close_i")


class WorkerFailed(Exception):
    pass


def spawn(deadline, *args):
    """Run one worker to completion (killing it at the monotonic-clock
    ``deadline``, if not None) and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def worker_args(workload, seed):
    """The worker arguments that name the workload, its seed and its
    inputs.  For ``queries`` the stream and its files are written to a
    temporary directory in the checkout, removed on exit."""
    common = ("--workload", workload, "--seed", str(seed))
    if workload != "queries":
        yield common
        return
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        write_inputs(*make_stream(seed, QUERY_STREAM), workdir)
        yield (*common, "--inputs", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def verdict_problems(workload, seed, result, reference):
    """Problems the worker found, plus a reference-digest mismatch."""
    problems = list(result["problems"])
    expected = reference.get(workload, {}).get(str(seed))
    if expected is not None and result["ref_digest"] is None:
        problems.append(f"too few operations ran to compare verdicts with the "
                        f"reference for seed {seed}")
    elif expected is not None and result["ref_digest"] != expected:
        problems.append(f"verdict digest {result['ref_digest'][:16]} differs from "
                        f"the reference {expected[:16]} for seed {seed}")
    return problems


def run_plain(common, workload, seed, seconds, deadline, reference):
    setups = [spawn(deadline, *common, "--ops", "0") for _ in range(SETUP_ONLY_RUNS)]
    res = spawn(deadline, *common, "--seconds", str(seconds))
    setups.append(res)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] * s["setup_scale"] for s in setups), "s"),
        "ops_per_s": (res["units"] / res["scaled_loop_s"], "1/s"),
        "query_p50_ms": (res["scaled_p50_ms"], "ms"),
        "query_p99_ms": (res["scaled_p99_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    unit = "instances" if workload.startswith("verify") else "queries"
    print(f"{workload} seed {seed}: {res['ops']} operations, {res['units']} {unit} "
          f"in {res['loop_s']:.2f} s ({res['scaled_loop_s']:.2f} s scaled)")
    print(f"  as timed (unscaled): set-up {[round(s['setup_s'], 4) for s in setups]} s, "
          f"{res['units'] / res['loop_s']:.6g} {unit}/s, p50 {res['p50_ms']:.6g} ms, "
          f"p99 {res['p99_ms']:.6g} ms")
    return res, metrics, verdict_problems(workload, seed, res, reference)


def run_traced(common, workload, seed, seconds, deadline, reference):
    traced = spawn(deadline, *common, "--seconds", str(seconds), "--trace")
    plain = spawn(deadline, *common, "--ops", str(traced["ops"]))
    problems = verdict_problems(workload, seed, traced, reference)
    if traced["digest"] != plain["digest"]:
        problems.append("traced and untraced runs gave different verdicts")
    layers = traced["layers"]
    op_s = traced["loop_s"]
    metrics = {}
    for layer in LAYERS:
        rec = layers.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = (rec["calls"], "count")
        metrics[f"{layer}.self_share"] = (rec["self_s"] / op_s, "ratio")
    queries = layers.get("iologic.query", {}).get("calls", 0)
    misses = layers.get("iologic.close_i", {}).get("calls", 0)
    traced_s = traced["scaled_loop_s"]
    plain_s = plain["scaled_loop_s"]
    metrics["harness.tested_share"] = (traced["tested_share"], "ratio")
    metrics["iologic.closure_miss_share"] = (misses / queries if queries else 0.0, "ratio")
    metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
    metrics["trace.op_s"] = (op_s, "s")

    print(f"{workload} seed {seed}: {traced['ops']} operations took {op_s:.2f} s traced "
          f"and {plain['loop_s']:.2f} s untraced ({traced_s:.2f} s and {plain_s:.2f} s "
          "scaled)")
    if traced["missing_patch_points"]:
        print("not traced (absent): " + ", ".join(traced["missing_patch_points"]))
    print(f"{'layer':34} {'calls':>9} {'self_s':>9} {'total_s':>9} {'self%':>6}")
    for layer, rec in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{layer:34} {rec['calls']:9d} {rec['self_s']:9.3f} {rec['total_s']:9.3f} "
              f"{100 * rec['self_s'] / op_s:6.1f}")
    print("layer <- parent (by self time)")
    for e in traced["edges"][:30]:
        print(f"  {e['layer']:32} <- {str(e['parent']):30} {e['calls']:9d} "
              f"{e['self_s']:9.3f}")
    return traced, metrics, problems


def run_workload(workload, seed, seconds, trace, deadline, reference):
    run = run_traced if trace else run_plain
    with worker_args(workload, seed) as common:
        res, metrics, problems = run(common, workload, seed, seconds, deadline, reference)
    share = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"{workload}: attempted {res['attempted']}, failed {res['failed']} "
          f"(failed_ops_share {share:.6f})")
    for name, (value, unit) in metrics.items():
        if not trace or not name.endswith((".calls", ".self_share")):
            print(f"  {name} = {value:.6g} {unit}")
    for p in problems:
        print(f"PROBLEM: {p}")
    return res, metrics, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30,
                    help="length of the measured loop of each workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "subnorm", "__init__.py")):
        print("error: no subnorm sources under src/ next to the benchmark",
              file=sys.stderr)
        return 2
    reference = load_reference()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            res, got, problems = run_workload(workload, args.seed, args.seconds,
                                              args.trace, deadline, reference)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        correct = correct and not problems and res["failed"] == 0
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, (value, unit) in got.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
