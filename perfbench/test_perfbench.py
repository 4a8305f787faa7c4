"""Self-test of the benchmark at smoke size.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, check=True):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    if check:
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])
    return proc


def test_spec_lists_the_workloads_and_metrics_the_benchmark_reports():
    assert NAMES == list(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()}
    layer_units = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    layer_units.update({"bench.traced_run_s": "s", "bench.trace_overhead": "ratio"})
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layer_units


@pytest.mark.parametrize("workload", NAMES)
def test_every_named_metric_appears(workload):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        out = bench("--workload", workload, "--trace", trace)
        assert set(out["metrics"]) == {m["name"] for m in SPEC[section]}
        assert out["attempted"] >= 1 and out["correct"]
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        for name, metric in out["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))


def _bindings():
    """Every callable attribute of the package modules and of the hooked classes."""
    from ness_sdp import pauli, symmetry

    owners = [m for key, m in sys.modules.items() if key.startswith("ness_sdp") and m]
    owners += [pauli.PauliSum, symmetry.SymmetrySpec]
    return {(id(o), key): value for o in owners for key, value in vars(o).items()
            if callable(value)}


def test_hooks_are_restored_after_a_traced_pass(tmp_path):
    ctx = workloads.Context(workdir=tmp_path)
    steps = workloads.build("boundary-extract", 0, ctx, smoke=True)
    before = _bindings()
    tr = tracing.Tracer()
    tr.install(tracing.HOOKS)
    assert not tr.absent
    assert _bindings() != before
    ctx.tracer = tr
    try:
        *_, outcomes = worker.run_pass(steps, ctx)
    finally:
        ctx.tracer = None
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert [o["status"] for o in outcomes] == ["ok"]
    assert tracing.layer_metrics(tr)["sdp.outer_iterations"]["value"] >= 1


def test_a_failing_check_is_counted_in_failed_frac(tmp_path):
    ctx = workloads.Context(workdir=tmp_path)
    steps = workloads.build("large-n", 0, ctx, smoke=True)
    steps[0] = replace(steps[0], check=lambda result, out: [(workloads.WRONG, "deliberate")])
    *_, outcomes = worker.run_pass(steps, ctx)
    # The failing check does not stop the pass: the second step still runs and passes.
    assert [o["status"] for o in outcomes] == ["wrong", "ok"]
    fake = {"setup_s": 0.1, "pass_s": 1.0, "cpu_s": 1.0, "wall_s": 1.0, "cal_s": 0.25,
            "outcomes": outcomes, "fingerprints": {},
            "peak_rss_mb": 10.0, "environment": {}}
    summary = run.summarize([0.1], [fake], None)
    assert summary["failed"] == 1 and summary["attempted"] == 2
    assert summary["failed_frac"] == 0.5
    assert summary["end_to_end"]["verified_frac"]["value"] == 0.5
    assert not summary["correct"]


def test_two_traced_runs_give_identical_counts():
    first, second = (bench("--workload", "all", "--trace", "1") for _ in range(2))
    counts = {name for name, metric in first["metrics"].items()
              if metric["unit"] in ("count", "ratio") and "bench." not in name}
    assert counts
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", NAMES[0], cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
