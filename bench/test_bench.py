"""Tests of the benchmark itself: python -m pytest bench"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gate
import run

run.import_package()
import workloads  # noqa: E402  (needs the package path set by import_package)
from fuchsian import reps  # noqa: E402

BENCHMARK_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK_JSON["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK_JSON["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK_JSON["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name, trace", [("genus_ladder", False), ("genus_ladder", True), ("cli", True)])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = run.run_workload(name, seed=3, seconds=0.4, trace=trace, min_ops=5)
    line = run.report(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert list(line["metrics"]) == list(declared)
    for metric_name, metric in line["metrics"].items():
        assert metric["unit"] == declared[metric_name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), metric_name
    assert line["correct"] and line["attempted"] >= (2 if trace else 5)


def _inject_tau_offset(monkeypatch, offset: int):
    original = reps.toledo

    def wrong(*args, **kwargs):
        result = original(*args, **kwargs)
        return replace(result, value=result.value + offset)

    monkeypatch.setattr(reps, "toledo", wrong)


@pytest.mark.parametrize("name", ["sweep", "invariants", "genus_ladder"])
def test_gate_catches_injected_wrong_tau(monkeypatch, tmp_path, name):
    workload = workloads.make(name, seed=5, work_dir=tmp_path)
    workload.setup()
    _inject_tau_offset(monkeypatch, 2)
    outcomes = [workload.op(i) for i in range(40)]
    answered = [o for o in outcomes if o.status != "refused"]
    assert answered and all(o.status == "failed" for o in answered if "solver" not in o.label)
    assert any("tau" in o.note or "reflection" in o.note for o in answered)


def test_gate_catches_odd_tau(monkeypatch, tmp_path):
    workload = workloads.make("sweep", seed=5, work_dir=tmp_path)
    workload.setup()
    _inject_tau_offset(monkeypatch, 1)
    outcome = workload.op(0)
    assert outcome.status == "failed" and "odd" in outcome.note


def test_cli_gate_rejects_wrong_stdout(tmp_path):
    cli = workloads.make("cli", seed=1, work_dir=tmp_path, env={})
    cli._new_round()
    good = {"value": "-4", "raw": "-4.0000000000000009", "branch_independent": "true", "psl_only": "false"}
    assert cli._check("toledo", good)[0] is None
    assert cli._check("toledo", {**good, "value": "-2"})[0]
    assert cli._check("toledo", {**good, "branch_independent": "false"})[0]
    assert cli._check("dim-check", {"rank": "2", "dim_variety": "15", "dim_moduli": "12"})[0]
    assert gate.trace_class((2.0, 1.0, 1.0, 1.0)) == "Hyperbolic"


def test_polygon_reference_does_not_use_the_package():
    assert [gate.polygon_tau(g, reflected=False) for g in (2, 3, 10)] == [-2, -4, -18]
    assert gate.polygon_tau(5, reflected=True) == 8


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
