"""One measured process of the benchmark (started by ``run.py``).

Usage::

    python3 perfbench/worker.py --workload NAME --seed N [--inputs DIR]
        (--seconds S | --ops K) [--trace]

``--inputs`` is the directory ``run.py`` wrote the ``queries`` stream
and its files to; the stream is read one query at a time.  The process
times the program's set-up in a fresh interpreter (importing
``subnorm``, and loading the carriers on ``verify-*`` or importing the
CLI on ``queries``), then runs operations in a closed loop with one
client until ``--seconds`` have passed (and at least the operations the
reference digest covers are done) or ``--ops`` operations are done,
checks every verdict, and prints one JSON object; ``--ops 0`` stops
after set-up.  An operation is one ``run_suite`` call over one corpus
round on ``verify-*`` and one ``cli.main`` call on ``queries``.

The host's speed drifts over minutes (identical work has taken 1.7
times as long for minutes at a time), so the process also times a
fixed integer loop (``calibrate``) after set-up and between operations,
about 5 % of the loop's time.  Each time is also reported scaled by
``CAL_REF_S`` / (median loop time nearby): set-up by the loops right
after it, an operation by the three loops before and the three after
it.  Scaled times read as on a host where the loop takes ``CAL_REF_S``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# corpus rounds of the verify workloads: carriers and random samples per
# carrier; round r of seed s uses corpus seed s * ROUND_STRIDE + r
VERIFY = {
    "verify-small": {"carriers": ("chain4", "b4"), "samples": 600, "gaps": []},
    "verify-large": {"carriers": ("fdl2", "b8"), "samples": 300,
                     "gaps": [f"closure{i}-extremal" for i in (1, 2, 3, 4)]},
}
ROUND_STRIDE = 1_000_003
# operations covered by the reference digest of each workload
REF_OPS = {"verify-small": 2, "verify-large": 2, "queries": 400}
WORKLOADS = (*VERIFY, "queries")
CAL_LOOPS = 300_000
CAL_REF_S = 0.025  # median loop time on the host the baseline was taken on
CAL_SHARE = 0.05
CAL_NEAR = 3  # loops on each side of an operation that scale its time


def calibrate():
    t0 = perf_counter()
    x = 0
    for i in range(CAL_LOOPS):
        x += i * i % 7
    return perf_counter() - t0


def speed_scale(times):
    times = sorted(times)
    return CAL_REF_S / times[len(times) // 2]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Result:
    """Counts, verdict digests and problems of one measured loop."""

    def __init__(self, ref_ops):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ref_ops = ref_ops
        self.verdicts = hashlib.sha256()  # over the digests of all operations
        self.ref_digest = None  # of the first ref_ops operations
        self.latencies = []
        self.ops_done = 0
        self.units = 0  # instances checked (verify) or queries issued
        self.tested_share = 0.0  # tested / (tested + skipped) checks (verify)
        self.cal = []  # calibration loop times
        self.marks = []  # per operation: calibration loops done before it
        self.t0 = perf_counter()

    def start_op(self):
        self.marks.append(len(self.cal))

    def calibrate(self):
        """Time calibration loops until they fill CAL_SHARE of the run so far."""
        while not self.cal or sum(self.cal) < CAL_SHARE * (perf_counter() - self.t0):
            self.cal.append(calibrate())

    def scaled_latencies(self):
        return [lat * speed_scale(self.cal[max(0, m - CAL_NEAR):m + CAL_NEAR])
                for lat, m in zip(self.latencies, self.marks)]

    def add_verdict(self, text):
        self.verdicts.update(_digest(text).encode())
        if len(self.latencies) == self.ref_ops:
            self.ref_digest = self.verdicts.hexdigest()


# ---------------------------------------------------------------------------
# verify-small / verify-large
# ---------------------------------------------------------------------------


def setup_verify(name, seed):
    from subnorm.harness import GenConfig, load_carrier

    spec = VERIFY[name]
    for carrier in spec["carriers"]:
        load_carrier(carrier)

    def config(r):
        return GenConfig(carriers=spec["carriers"], mode="random",
                         samples=spec["samples"], seed=seed * ROUND_STRIDE + r)

    return config


def run_verify(name, config, stop, res):
    from subnorm import harness
    from subnorm.harness import strip_timing

    expected_gaps = VERIFY[name]["gaps"]
    tested = skipped = 0
    r = 0
    while not stop(r):
        cfg = config(r)
        res.start_op()
        t0 = perf_counter()
        try:
            report = harness.run_suite(cfg)
        except Exception as exc:  # a raising round fails the whole run
            report = None
            error = repr(exc)
        res.latencies.append((perf_counter() - t0) * 1e3)
        if report is None:
            res.attempted += 1
            res.failed += 1
            res.problems.append(f"round {r}: run_suite raised {error}")
            res.add_verdict(f"raised {error}")
        else:
            summary = report["summary"]
            res.units += summary["instances"]
            for st in report["checks"].values():
                res.attempted += st["tested"]
                tested += st["tested"]
                skipped += st["skips"]
            res.failed += summary["counterexamples"]
            if summary["counterexamples"]:
                res.problems.append(f"round {r}: {summary['counterexamples']} counterexamples")
            if summary["coverage_gaps"] != expected_gaps:
                res.problems.append(f"round {r}: coverage gaps {summary['coverage_gaps']}, "
                                    f"expected {expected_gaps}")
            res.add_verdict(json.dumps(strip_timing(report), sort_keys=True))
        res.calibrate()
        r += 1
    res.ops_done = r
    res.tested_share = tested / (tested + skipped) if tested + skipped else 0.0


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def setup_queries():
    import subnorm  # noqa: F401  (import cost belongs to set-up)
    from subnorm import cli  # noqa: F401


def run_queries(workdir, stop, res):
    from subnorm import cli

    from queries import Judge, full_argv, read_stream

    judge = Judge()
    stream = read_stream(workdir)
    first_pass = True
    out, err = io.StringIO(), io.StringIO()
    i = 0
    while not stop(i):
        q = next(stream, None)
        if q is None:  # wrap round; each distinct query is judged once
            first_pass = False
            stream = read_stream(workdir)
            q = next(stream)
        argv = full_argv(q, workdir)
        out.seek(0)
        out.truncate()
        err.seek(0)
        err.truncate()
        res.start_op()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects usage with exit 2
                code = exc.code
            except Exception as exc:
                code = None
                err.write(repr(exc))
            res.latencies.append((perf_counter() - t0) * 1e3)
        text = out.getvalue()
        if first_pass:
            judge.add(q, code, text if code in (0, 1) else text + err.getvalue())
        res.add_verdict(f"{code}\t{text}\n")
        res.calibrate()
        i += 1
    res.ops_done = res.units = res.attempted = i
    res.failed, problems = judge.finish()
    res.problems += problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * q // 100))
    return ordered[int(k) - 1]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs")
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--ops", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    if (args.workload == "queries") != (args.inputs is not None):
        ap.error("--inputs is required on queries and only there")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    if args.workload == "queries":
        t0 = perf_counter()
        setup_queries()
        inputs = args.inputs
    else:
        t0 = perf_counter()
        inputs = setup_verify(args.workload, args.seed)
    out = {"setup_s": perf_counter() - t0,
           "setup_scale": speed_scale([calibrate() for _ in range(5)])}
    if args.ops != 0:
        out.update(measure(args, inputs))
    print(json.dumps(out))


def measure(args, inputs):
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    res = Result(REF_OPS[args.workload])
    if args.seconds is not None:
        deadline = perf_counter() + args.seconds

        def stop(done):
            return done >= REF_OPS[args.workload] and perf_counter() >= deadline
    else:
        def stop(done):
            return done >= args.ops
    try:
        if args.workload == "queries":
            run_queries(inputs, stop, res)
        else:
            run_verify(args.workload, inputs, stop, res)
    finally:
        if tracer is not None:
            tracer.remove()
    scaled = res.scaled_latencies()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": res.ops_done,
        "units": res.units,
        "loop_s": sum(res.latencies) / 1e3,  # time inside operations
        "p50_ms": percentile(res.latencies, 50),
        "p99_ms": percentile(res.latencies, 99),
        "scaled_loop_s": sum(scaled) / 1e3,
        "scaled_p50_ms": percentile(scaled, 50),
        "scaled_p99_ms": percentile(scaled, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": res.attempted,
        "failed": res.failed,
        "problems": res.problems[:20],
        "digest": res.verdicts.hexdigest(),
        "ref_digest": res.ref_digest,
        "tested_share": res.tested_share,
    }
    if tracer is not None:
        out["layers"] = tracer.table()
        out["edges"] = tracer.edges()
        out["missing_patch_points"] = tracer.missing
    return out


if __name__ == "__main__":
    main()
