"""Tiny-size runs of every workload through the benchmark's command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import END_TO_END
from layers import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def _run(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", ["hmc_warm", "solve_cold", "serve_mix"])
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3",
                          "--seconds", "0", "--trace", "0", "--tiny"))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["solve_cold", "serve_mix"])
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3",
                          "--seconds", "0", "--trace", "1", "--tiny"))
    units = {k: u for k, (u, _) in metric_units().items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["driver.kernels_compiled"]["value"] > 0 or (
        workload == "serve_mix")


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == metric_units()
    assert [w["name"] for w in spec["workloads"]] == [
        "serve_mix", "solve_cold", "hmc_warm"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "serve_mix", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
