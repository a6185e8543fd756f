"""Record the reference verdict digests in ``reference.json``.

Usage (from the repository root)::

    python3 perfbench/make_reference.py [--first 0] [--last 20]

For every workload and every seed in the range, a worker runs the first
``REF_OPS`` operations untraced and the digest of their verdicts (each
``run_suite`` report without its ``timing`` section, each query's exit
code and output) is stored.  A benchmark run on a recorded seed compares
its digest of the same operations with this one.  Re-record only when a
change of verdict is explained as a mathematical finding.
"""

import argparse
import json
import os
import sys

from run import HERE, WORKLOADS, spawn, worker_args
from worker import REF_OPS


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--last", type=int, default=20)
    args = ap.parse_args()
    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for seed in range(args.first, args.last + 1):
            with worker_args(workload, seed) as common:
                res = spawn(None, *common, "--ops", str(REF_OPS[workload]))
            if res["problems"] or res["failed"]:
                sys.exit(f"{workload} seed {seed}: {res['failed']} failed, "
                         f"{res['problems']}")
            out[workload][str(seed)] = res["ref_digest"]
            print(workload, seed, res["ref_digest"], flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
