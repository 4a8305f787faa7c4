"""Benchmark of the ness-sdp pipeline; see NOTES.md for workloads and metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-tfim5 --seed 0 --seconds 25 --trace 0

``--workload`` takes one name, a comma-separated list or ``all``. For each
workload the script starts fresh Python processes (worker.py) with BLAS
and OpenMP pinned to one thread and ``src/`` as the package location: a
few that only set up (import the package and make the inputs), to measure
set-up time; one per timed pass, while passes fit in ``--seconds``; and
with ``--trace 1`` one traced pass. It prints every metric by name with
its unit, writes the full result (and, when traced, the span file) under
``.bench_out/``, and ends with one JSON line: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import BUILDERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(BUILDERS)
SETUP_PROBES = 6          # set-up-only processes per run, besides the passes
DEADLINE_S = 170.0        # each workload's processes end within this
PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}
# glibc malloc: serve large temporaries from the heap and keep freed memory,
# instead of a fresh mmap (and page faults) for each. With the default
# policy a fresh process paid up to twice the warm time in page faults, by
# an amount that followed the load of the machine (see NOTES.md).
PINNED.update(MALLOC_MMAP_THRESHOLD_=str(256 << 20), MALLOC_TRIM_THRESHOLD_=str(256 << 20))

END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "verified_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a benchmark process")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"benchmark process timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"benchmark process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, opts, out_dir: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(opts.seed)] + (["--smoke"] if opts.smoke else [])
    spans = out_dir / f"{name}-seed{opts.seed}.spans.jsonl"
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        def child(*extra):
            workdir = tempfile.mkdtemp(dir=scratch)
            return run_child(base + ["--workdir", workdir, *extra], deadline)

        probes = [child("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        passes, walls = [], []
        while not walls or sum(walls) + statistics.median(walls) <= opts.seconds:
            start = time.monotonic()
            passes.append(child())
            walls.append(time.monotonic() - start)
        traced = child("--trace", "1", "--spans", str(spans)) if opts.trace else None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for worker in passes + ([traced] if traced else []):
        if Path(worker["package"]) != (ROOT / "src" / "ness_sdp").resolve():
            raise BenchError(f"ness_sdp was imported from {worker['package']}, not from src/")
    result = summarize(probes, passes, traced)
    result.update(workload=name, seed=opts.seed, seconds=opts.seconds, trace=opts.trace)
    if traced:
        result["span_file"] = os.path.relpath(spans, ROOT)
    return result


def summarize(probes: list[float], passes: list[dict], traced: dict | None) -> dict:
    """Metrics of one workload from its set-up probes and its worker results."""
    checked = passes + ([traced] if traced else [])
    for worker in checked:
        # Outputs that must be byte-identical between passes.
        for key, digest in worker["fingerprints"].items():
            if digest != passes[0]["fingerprints"].get(key):
                for outcome in worker["outcomes"]:
                    outcome.update(status="wrong", detail=f"{key} differs from the first pass")

    outcomes = [o for worker in checked for o in worker["outcomes"]]
    failed = sum(1 for o in outcomes if o["status"] != "ok")
    pass_s = [worker["pass_s"] for worker in passes]
    run_s = statistics.median(pass_s)
    e2e = {
        "run_s": run_s,
        "setup_s": statistics.median(probes + [worker["setup_s"] for worker in checked]),
        "verified_frac": 1.0 - failed / len(outcomes),
        "peak_rss_mb": max(worker["peak_rss_mb"] for worker in passes),
    }
    result = {
        "correct": all(o["status"] != "wrong" for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "failed_frac": failed / len(outcomes),
        "pass_s": pass_s,
        "pass_cpu_s": [worker["cpu_s"] for worker in passes],
        "pass_wall_s": [worker["wall_s"] for worker in passes],
        "pass_cal_s": [worker["cal_s"] for worker in passes],
        "setup_probes_s": probes,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()},
        "outcomes": outcomes,
        "environment": passes[0]["environment"],
    }
    if traced:
        layers = dict(traced["layers"])
        layers["bench.traced_run_s"] = {"value": traced["pass_s"], "unit": "s"}
        layers["bench.trace_overhead"] = {"value": traced["pass_s"] / run_s, "unit": "ratio"}
        result["per_layer"] = layers
        result["absent_hooks"] = traced["absent_hooks"]
    return result


def describe(result: dict) -> None:
    env = result["environment"]
    def fmt(key):
        return ", ".join(f"{t:.3f}" for t in result[key])

    print(f"== {result['workload']}  seed {result['seed']}  {len(result['pass_s'])} pass(es) "
          f"of {fmt('pass_s')} reference s; CPU s {fmt('pass_cpu_s')}; "
          f"wall s {fmt('pass_wall_s')}; calibration s {fmt('pass_cal_s')}")
    print(f"   env: {env['nproc']} cpus ({env['cpu_model']}), python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas']['name']} "
          f"{env['blas']['version']}, BLAS threads {env['pinned']['OPENBLAS_NUM_THREADS']}")
    for name, metric in result["end_to_end"].items():
        print(f"   {name:34s} {metric['value']:14.6g} {metric['unit']:6s} "
              f"({END_TO_END[name][1]} is better)")
    print(f"   {'failed_frac':34s} {result['failed_frac']:14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, metric in result.get("per_layer", {}).items():
        print(f"   {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for o in result["outcomes"]:
        if o["status"] != "ok":
            print(f"   {o['status']:10s} {o['op']}: {o['detail'].splitlines()[-1][:160]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, a comma-separated list, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_out", help="result directory, inside the checkout")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own self-test")
    opts = parser.parse_args()

    names = list(WORKLOADS) if opts.workload == "all" else opts.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}")
    if not (ROOT / "src" / "ness_sdp" / "__init__.py").is_file():
        print(f"error: no ness_sdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / opts.out
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    try:
        for name in names:
            result = run_workload(name, opts, out_dir)
            (out_dir / f"{name}-seed{opts.seed}-trace{opts.trace}.json").write_text(
                json.dumps(result, indent=1))
            describe(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    section = "per_layer" if opts.trace else "end_to_end"
    if len(results) == 1:
        metrics = results[0][section]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r[section].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
