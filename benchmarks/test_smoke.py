"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metrics that must be non-zero on each workload's traced run:
# the ones expected to move one of that workload's end-to-end metrics
MOVERS = {
    "chain": ["payoff.em_fft.self_s", "payoff.em_fft.coeffs",
              "transform.cos_sin_sum.self_s", "transform.inverse_dft.calls",
              "transform.inverse_dft.points", "transform.inverse_dft.flops_computed",
              "transform.inverse_dft.self_s", "pricer.select_scale.self_s",
              "pricer.auto_grid.self_s", "pricer.auto_grid.density_jobs",
              "pricer.context_init.self_s", "pricer.price_put.calls",
              "pricer.price_put.self_s", "cli.main.calls", "cli.main.self_s",
              "cli.start_s"],
    "fresh": ["models.char_fn.calls", "models.char_fn.points", "models.char_fn.self_s",
              "density.trapezoidal.self_s", "density.coeffs",
              "transform.inverse_dft.calls", "transform.inverse_dft.points",
              "transform.inverse_dft.flops_computed", "transform.inverse_dft.self_s",
              "pricer.select_scale.self_s", "pricer.auto_grid.self_s",
              "pricer.auto_grid.density_jobs", "pricer.context_init.self_s"],
    "reproduce": ["models.char_fn.calls", "models.char_fn.points",
                  "models.char_fn.self_s", "density.trapezoidal.self_s",
                  "density.midpoint.self_s", "density.vieta_direct.self_s",
                  "density.coeffs", "density.filon.self_s", "density.filon.cf_evals",
                  "payoff.forward.calls", "payoff.forward.self_s",
                  "payoff.classic.calls", "payoff.classic.self_s",
                  "specfun.si.calls", "specfun.si.self_s", "specfun.ein.calls",
                  "specfun.ein.self_s", "pricer.reference_put.calls",
                  "pricer.reference_put.self_s", "cli.main.calls", "cli.main.self_s",
                  "cli.start_s"],
}


def run_all(trace: int):
    """One `--workload all` run; returns {workload: (result, detail)}."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    details = [json.loads(line[len("detail "):]) for line in lines
               if line.startswith("detail ")]
    results = []
    for i, line in enumerate(lines):
        if line.startswith("detail "):
            results.append(json.loads(lines[i + 1]))
    return {d["workload"]: (r, d) for r, d in zip(results, details)}


@pytest.fixture(scope="module")
def untraced():
    return run_all(0)


@pytest.fixture(scope="module")
def traced():
    return run_all(1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(untraced, workload):
    result, detail = untraced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"]) and got["value"] > 0, (m["name"], got)
        assert detail["stats"][m["name"]]["n"] >= 1
    meta = detail["meta"]
    assert {"commit", "python", "numpy", "scipy", "cpu_count", "seed"} <= set(meta)
    if workload in ("chain", "fresh"):
        assert result["failed"] == 0 and detail["failed_frac"] == 0.0
        assert result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(traced, workload):
    result, detail = traced[workload]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    for name in MOVERS[workload]:
        assert metrics[name]["value"] > 0, name
    spans = np.load(detail["stats"]["spans_file"])
    assert len(spans["name"]) == detail["stats"]["spans"] > 0
    child = spans["parent"] >= 0
    par = spans["parent"][child]
    assert np.all(spans["start"][child] >= spans["start"][par])
    assert np.all(spans["end"][child] <= spans["end"][par])
    assert np.all(spans["op"][child] == spans["op"][par])


def test_refuses_without_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, it exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
