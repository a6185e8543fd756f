"""Measure the default ``subnorm verify`` and the Tier-1 suite end to end.

Writes ``BENCH_<label>.json`` in the repository root with:

* ``verify``: the wall time of one default ``subnorm verify`` in a fresh
  interpreter, ``RUNS`` times, each as measured and scaled to the
  reference host speed of the benchmark (``perfbench/worker.py``'s
  ``calibrate`` loop, timed right before and right after each run),
  with their medians, the sorted sha256 of the report without
  ``timing`` and the ``timing.layers`` table of the run whose measured
  wall time is the median, the run that ``median_wall_s`` quotes;
* ``tier1``: the wall time of the Tier-1 suite in a fresh interpreter,
  its exit code and summary line, and the duration of each acceptance test A1-A9
  (A8 sums its four tests);
* ``python`` and ``nproc``.

Standard library only, and not part of the Tier-1 suite:

    python tools/bench.py LABEL
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from worker import calibrate, speed_scale  # noqa: E402

RUNS = 3  # default verify runs, each in a fresh interpreter
CAL_RUNS = 3  # calibration loops on each side of a measured run


def _env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                PYTHONDONTWRITEBYTECODE="1")


def _timed(argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run ``argv`` from the repository root: its wall time as measured
    and scaled by the calibration loops around it."""
    cal = [calibrate() for _ in range(CAL_RUNS)]
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    cal += [calibrate() for _ in range(CAL_RUNS)]
    return wall, wall * speed_scale(cal), done


def _report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def measure_verify() -> dict:
    out = []
    with tempfile.TemporaryDirectory(prefix="subnorm-bench-") as tmp:
        path = os.path.join(tmp, "report.json")
        for _ in range(RUNS):
            wall, scaled, done = _timed([sys.executable, "-m", "subnorm.cli", "verify",
                                         "--out", path])
            if done.returncode != 0:
                raise SystemExit(f"error: default verify exited {done.returncode}:\n"
                                 f"{done.stderr}")
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            out.append({"wall_s": round(wall, 3), "scaled_s": round(scaled, 3),
                        "sha256": _report_digest(report),
                        "layers": report["timing"]["layers"]})
    # the run that median_wall_s quotes (RUNS is odd): scaled times move
    # with the calibration loops, so the median scaled run may be another
    median = sorted(out, key=lambda r: r["wall_s"])[len(out) // 2]
    return {
        "runs": [{k: r[k] for k in ("wall_s", "scaled_s")} for r in out],
        "median_wall_s": statistics.median(r["wall_s"] for r in out),
        "median_scaled_s": statistics.median(r["scaled_s"] for r in out),
        "sha256": sorted({r["sha256"] for r in out}),
        "layers": median["layers"],
    }


def measure_tier1() -> dict:
    with tempfile.TemporaryDirectory(prefix="subnorm-bench-") as tmp:
        xml = os.path.join(tmp, "tier1.xml")
        wall, scaled, done = _timed([sys.executable, "-m", "pytest", "-q",
                                     "--continue-on-collection-errors", "-p",
                                     "no:cacheprovider", f"--junitxml={xml}"])
        suite = ET.parse(xml).getroot()
    acceptance: dict[str, float] = {}
    for case in suite.iter("testcase"):
        tag = re.match(r"test_a(\d)_", case.get("name", ""))
        if case.get("classname", "").startswith("tests.test_acceptance") and tag:
            key = f"A{tag.group(1)}"
            acceptance[key] = round(acceptance.get(key, 0.0) + float(case.get("time", 0)), 3)
    lines = done.stdout.strip().splitlines()
    return {
        "wall_s": round(wall, 3),
        "scaled_s": round(scaled, 3),
        "exit_code": done.returncode,
        "summary": lines[-1] if lines else "",
        "acceptance_s": dict(sorted(acceptance.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the file: BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("the label may hold letters, digits, '_', '.' and '-' only")
    result = {
        "label": args.label,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "verify": measure_verify(),
        "tier1": measure_tier1(),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}: default verify median {result['verify']['median_wall_s']:.2f} s "
          f"({result['verify']['median_scaled_s']:.2f} s scaled), "
          f"Tier-1 {result['tier1']['wall_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
