"""Tests of the benchmark itself (not part of the package's suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from queries import FAMILIES, Judge, Query, make_stream
from run import HERE, ROOT, load_reference, spawn, verdict_problems, worker_args
from worker import REF_OPS


def worker(workload, *args, seed=0):
    with worker_args(workload, seed) as common:
        return spawn(None, *common, *args)


def test_query_stream_depends_only_on_the_seed():
    def argvs(seed):
        stream, files = make_stream(seed, 300)
        return [q.argv for q in stream], files

    assert argvs(1) == argvs(1)
    assert argvs(1) != argvs(2)


def test_each_command_family_gets_an_equal_share():
    stream, _ = make_stream(3, 800)
    counts = {family: 0 for family in FAMILIES}
    for q in stream:
        counts[q.kind] += 1
    assert set(counts.values()) == {100}


def test_missing_reference_digest_is_a_problem():
    result = {"problems": [], "ref_digest": None}
    assert verdict_problems("verify-large", 0, result, load_reference())
    assert not verdict_problems("verify-large", 999, result, load_reference())


@pytest.mark.parametrize("workload, ops", [
    ("verify-small", 1), ("verify-large", 1), ("queries", 200)])
def test_smoke_run_has_no_failed_operations(workload, ops):
    res = worker(workload, "--ops", str(ops))
    assert res["ops"] == ops
    assert res["attempted"] >= 1
    assert res["failed"] == 0 and res["problems"] == []  # failed_ops_share is 0


def test_setup_only_run_reports_set_up_time():
    res = worker("verify-small", "--ops", "0")
    assert sorted(res) == ["setup_s", "setup_scale"] and res["setup_s"] > 0


@pytest.mark.parametrize("workload, ops", [("verify-small", 1), ("queries", 200)])
def test_self_times_add_up_to_traced_time(workload, ops):
    traced = worker(workload, "--ops", str(ops), "--trace")
    assert traced["missing_patch_points"] == []
    self_sum = sum(rec["self_s"] for rec in traced["layers"].values())
    assert abs(self_sum - traced["loop_s"]) <= 0.03 * traced["loop_s"]
    plain = worker(workload, "--ops", str(ops))
    assert plain["digest"] == traced["digest"]


def test_verify_large_never_runs_closure_extremality():
    traced = worker("verify-large", "--ops", "1", "--trace")
    assert "harness.verify_prop41" not in traced["layers"]
    assert traced["layers"]["harness.verify_check"]["calls"] > 0


@pytest.mark.parametrize("workload", ["verify-small", "queries"])
def test_reference_digest_matches(workload):
    res = worker(workload, "--ops", str(REF_OPS[workload]))
    assert res["ref_digest"] == load_reference()[workload]["0"]


def test_invariant_checker_flags_broken_monotonicity():
    group = ("derive-group", 0)
    queries = [Query("derive", ["derive", "--system", str(i)], group, i) for i in (1, 2, 3, 4)]
    queries.append(Query("out", ["out", "--system", "1"], group, ("out", 1)))
    holds, fails = '{"holds": true}', '{"holds": false}'

    def judge(outcomes):
        j = Judge()
        for q, (code, out) in zip(queries, outcomes):
            j.add(q, code, out)
        return j.finish()

    good = [(0, holds), (0, holds), (0, holds), (0, holds), (0, holds)]
    assert judge(good) == (0, [])
    bad = [(0, holds), (1, fails), (0, holds), (0, holds), (0, holds)]
    assert judge(bad)[0] == 1
    crashed = [(None, "boom")] + good[1:]
    assert judge(crashed)[0] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "queries",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    with pytest.raises(ValueError):
        json.loads(last)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_the_declared_metrics(trace, kind):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "queries",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
