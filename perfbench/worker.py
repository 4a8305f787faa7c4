"""One benchmark process: set up a workload, time one pass, check it.

Started by run.py with BLAS and OpenMP pinned to one thread and with the
checkout's ``src`` as the only place ness_sdp is imported from. Prints one
JSON object on standard output.

A pass runs every step of the workload once. Each pass gets a fresh
process, as each ``ness-sdp`` command does for a user, so every pass
starts from the same cold caches. With ``--trace 1`` the pass runs with
every hook installed and its spans give the per-layer metrics.

Times are CPU seconds scaled to a reference speed: the host of this VM
changes how fast it runs our CPU by up to a third, for minutes at a
time, so each process also times a fixed calibration kernel and reports
``cpu_s * CAL_REF_S / cal_s`` as well as the raw values (see NOTES.md).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads
from run import PINNED

CAL_REF_S = 0.25  # CPU seconds of calibrate() at the reference speed


def calibrate() -> float:
    """CPU seconds of a fixed kernel: interpreter loop, small eigh calls, complex SVDs.

    The mix follows the workloads: Python-bound solver loops, thousands of
    tiny LAPACK calls and dense factorizations.
    """
    import numpy as np

    start = time.process_time()
    total = 0
    for i in range(450_000):
        total += i * i % 7
    rng = np.random.default_rng(0)
    small = rng.standard_normal((11, 11))
    small = small + small.T
    for _ in range(4500):
        np.linalg.eigh(small)
    big = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    for _ in range(6):
        np.linalg.svd(big)
    return time.process_time() - start


def run_pass(steps, ctx) -> tuple[float, float, list[dict]]:
    """Time one pass over the steps, then check every operation outside the timing.

    Returns the pass's CPU seconds (all threads of this process), its wall
    seconds and the operation outcomes.
    """
    outs = [ctx.workdir / step.name for step in steps]
    for out in outs:
        out.mkdir(parents=True)
    results = []
    cpu_start = time.process_time()
    start = time.perf_counter()
    for step, out in zip(steps, outs):
        if ctx.tracer is not None:
            ctx.tracer.op = step.name
        try:
            results.append(step.run(out))
        except Exception:  # an operation that raises is a failed operation
            results.append(RaisedError(traceback.format_exc()))
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    outcomes = []
    for step, out, result in zip(steps, outs, results):
        if isinstance(result, RaisedError):
            statuses = [(workloads.UNVERIFIED, result.text[-400:])] * len(step.ops)
        else:
            try:
                statuses = step.check(result, out)
            except Exception:  # a result the check cannot read is a wrong result
                statuses = [(workloads.WRONG, traceback.format_exc()[-400:])] * len(step.ops)
        outcomes += [{"op": op, "status": status, "detail": detail}
                     for op, (status, detail) in zip(step.ops, statuses)]
    return cpu_s, wall_s, outcomes


class RaisedError:
    def __init__(self, text: str):
        self.text = text


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "pinned": {var: os.environ.get(var) for var in PINNED},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True, help="empty directory for inputs and outputs")
    parser.add_argument("--spans", default=None, help="span file written by a traced pass")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ctx = workloads.Context(workdir=Path(args.workdir))
    start = time.process_time()
    steps = workloads.build(args.workload, args.seed, ctx, smoke=args.smoke)
    result = {"setup_cpu_s": time.process_time() - start}
    if args.setup_only:
        result["cal_s"] = calibrate()
    else:
        import ness_sdp

        result["package"] = str(Path(ness_sdp.__file__).resolve().parent)
        cal_before = calibrate()
        tr = tracing.Tracer() if args.trace else None
        if tr is not None:
            tr.install(tracing.HOOKS)
        ctx.tracer = tr
        try:
            result["cpu_s"], result["wall_s"], result["outcomes"] = run_pass(steps, ctx)
        finally:
            ctx.tracer = None
            if tr is not None:
                tr.restore()
        result["cal_s"] = (cal_before + calibrate()) / 2
        if tr is not None:
            result["layers"] = tracing.layer_metrics(tr)
            result["absent_hooks"] = sorted(tr.absent)
            if args.spans:
                tr.write_spans(args.spans)
        result["fingerprints"] = ctx.fingerprints
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = environment()
    scale = CAL_REF_S / result["cal_s"]
    result["setup_s"] = result["setup_cpu_s"] * scale
    if "cpu_s" in result:
        result["pass_s"] = result["cpu_s"] * scale
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
