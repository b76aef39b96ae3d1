"""A tiny end-to-end run of every workload through the real command."""

import json
import shutil
import subprocess
import sys

import pytest

import common

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd=common.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "classbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_correctly_and_reports_every_metric(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert not common.TMP_ROOT.exists() or not any(common.TMP_ROOT.iterdir())


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(common.BENCH, tmp_path / "classbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("classroom", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
