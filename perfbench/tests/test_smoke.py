"""Reduced-size runs of all three workloads through the real command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT

RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("nren_deploy", "nren_ops", "campaign_matrix")

#: counters each workload's first block must report nonzero
WORK_COUNTERS = {
    "nren_deploy": ("bgp.messages", "ospf.spf_runs", "render.files_written",
                    "render.bytes_written"),
    "nren_ops": ("bgp.messages", "dataplane.traces", "traffic.flows_offered",
                 "measure.rows_parsed", "liveupdate.ops_applied"),
    "campaign_matrix": ("bgp.messages", "ospf.spf_runs", "engine.files_written",
                        "dataplane.traces", "engine.cache_hits",
                        "supervision.journal_lines"),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)


def run(workload, trace=0, seed=3, cwd=ROOT, runner=RUN):
    completed = subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return completed


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_meets_the_output_contract(workload, trace):
    completed = run(workload, trace)
    result = result_of(completed)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, completed.stdout
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    if not trace:
        # the determinism check sees the work the timed calls did
        counters = {
            line.split()[1]: float(line.split()[-1])
            for line in completed.stdout.splitlines() if line.startswith("  counter ")
        }
        for name in WORK_COUNTERS[workload]:
            assert counters.get(name, 0) > 0, (name, counters)
    if workload == "campaign_matrix":
        # the C-BGP incident-schedule defect stays visible
        failures = [line for line in completed.stdout.splitlines() if "failed:" in line]
        assert result["failed"] == len(failures) > 0
        assert all("[known defect]" in line for line in failures)
    else:
        assert result["failed"] == 0, completed.stdout


def test_same_seed_reports_identical_counters():
    first = run("nren_ops", seed=11)
    second = run("nren_ops", seed=11)
    assert "nondeterministic" not in first.stdout + second.stdout
    counters = [
        sorted(line for line in done.stdout.splitlines() if line.startswith("  counter "))
        for done in (first, second)
    ]
    assert counters[0] == counters[1] and counters[0]
    assert result_of(second)["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run("nren_ops", cwd=tmp_path, runner=str(tmp_path / "perfbench" / "run.py"))
    assert completed.returncode != 0
    assert not completed.stdout.strip()
