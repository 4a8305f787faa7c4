"""The ness-sdp benchmark workloads: inputs from a seed, timed steps, checks.

A workload is a list of steps. A step is one timed call into the package
(a ``ness-sdp`` command run in-process, or package functions) and covers
one or more operations. Its check runs outside the timed region and gives
every operation one status:

* ``ok``: the operation returned a verified result;
* ``unverified``: no verified result and no false claim either, such as a
  raised error, a non-zero exit code or a solve left undecided at the cap;
* ``wrong``: a result was returned as valid and failed its check.

Both non-``ok`` statuses count as failed operations. Checks are one-sided:
an operation that fails at the seed and is verified later reads as a gain.
See NOTES.md for why each workload exists and for its known failures.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from tracer import CLI_SPAN

# One outer-iteration cap for every feasibility solve, identical on every
# commit. It bounds run length; a solve left undecided at the cap still
# counts as a failed operation, so the cap hides no failure.
SOLVER_MAX_ITER = 10

OK, UNVERIFIED, WRONG = "ok", "unverified", "wrong"

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())


@dataclass
class Context:
    """Per-process state shared by the steps of one workload."""

    workdir: Path
    tracer: Any = None
    # sha256 of outputs that must be byte-identical between passes
    fingerprints: dict = field(default_factory=dict)


@dataclass
class Step:
    name: str
    ops: tuple[str, ...]
    run: Callable[[Path], Any]                              # timed
    check: Callable[[Any, Path], list[tuple[str, str]]]    # (status, detail) per op


def run_cli(ctx: Context, args: list[str]) -> tuple[int, str]:
    """Run one ``ness-sdp`` command in this process; returns (exit code, output)."""
    from ness_sdp import cli

    sink = io.StringIO()
    frame = ctx.tracer.open(CLI_SPAN) if ctx.tracer is not None else None
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            cli.main.main(args=args, prog_name="ness-sdp", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else int(exc.code)
    finally:
        if frame is not None:
            ctx.tracer.close(frame)
    return code, sink.getvalue()


def _write_config(ctx: Context, name: str, cfg: dict) -> str:
    path = ctx.workdir / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _cli_step(ctx: Context, name: str, ops, command: str, cfg: dict, check,
              extra_args=()) -> Step:
    config = _write_config(ctx, name, cfg)
    return Step(name, tuple(ops),
                lambda out: run_cli(ctx, [command, "--config", config, "--out", str(out),
                                          *extra_args]),
                check)


def _exit_failure(result, n_ops: int, wrong_codes=()):
    """Statuses for a non-zero exit code, or None when the command succeeded."""
    code, output = result
    if code == 0:
        return None
    status = WRONG if code in wrong_codes else UNVERIFIED
    return [(status, f"exit {code}: {output.strip()[-300:]}")] * n_ops


def _hermiticity(mat: dict) -> float:
    re, im = mat["re"], mat["im"]
    size = len(re)
    return sum((re[i][j] - re[j][i]) ** 2 + (im[i][j] + im[j][i]) ** 2
               for i in range(size) for j in range(size)) ** 0.5


# -- sweep-tfim5 --------------------------------------------------------------

def sweep_tfim5(ctx: Context, seed: int, smoke: bool) -> list[Step]:
    # The random-subset calibration (K=3, q=20, rng_seed=1) is frozen, not
    # drawn from the workload seed: other rng_seeds change the whitened
    # dimension and so which points are feasible, and with it both the run
    # time and the failure count (see NOTES.md).
    n, order, values = (3, 2, [0.5, 1.0]) if smoke else (5, 3, [0.25, 0.5, 1.0])
    cfg = {
        "model": {"builder": "tfim_chain", "params": {"n": n, "g": values[0], "gamma": 1.0}},
        "ansatz": {"seed": "oracle-top", "K": order, "q": 20, "rng_seed": 1},
        "solver": {"max_iter": SOLVER_MAX_ITER},
        "sweep": {"parameter": "g", "values": values},
    }

    def check(result, out):
        failure = _exit_failure(result, len(values))
        if failure:
            return failure
        body = (out / "sweep.csv").read_bytes()
        ctx.fingerprints["sweep.csv"] = hashlib.sha256(body).hexdigest()
        rows = {float(r["g"]): r for r in csv.DictReader(io.StringIO(body.decode()))}
        statuses = []
        for g in values:
            row = rows.get(g)
            if row is None:
                statuses.append((UNVERIFIED, "row missing"))
            elif row["feasible"] != "1":
                statuses.append((UNVERIFIED, f"not feasible, best residual "
                                             f"{row['subspace_residual']}"))
            else:
                fid = float(row["fidelity"] or "nan")
                res = float(row["true_residual"] or "nan")
                ok = fid >= 0.999 and res <= 1e-8
                statuses.append((OK if ok else WRONG, f"fidelity {fid}, true residual {res}"))
        return statuses

    return [_cli_step(ctx, "sweep", [f"sweep g={g}" for g in values], "sweep", cfg, check,
                      ["--workers", "1"])]


# -- large-n ------------------------------------------------------------------

def large_n(ctx: Context, seed: int, smoke: bool) -> list[Step]:
    from ness_sdp import models, overlaps, states

    ref = REFERENCE["smoke" if smoke else "full"]["large-n"]
    n_oracle, n_moments, order = (4, 5, 2) if smoke else (7, 10, 3)
    cfg = {"model": {"builder": "tfim_chain", "params": {"n": n_oracle, "g": 0.5, "gamma": 1.0}},
           "overlap_table": {"parameter": "g", "g_values": [0.5]}}
    # The smoke size lowers the dense limit so that the matrix-free oracle runs.
    extra = ["--dense-limit", str(n_oracle - 1)] if smoke else []

    def check_oracle(result, out):
        failure = _exit_failure(result, 1)
        if failure:
            return failure
        (entry,) = json.loads((out / "oracle.json").read_text())["overlap_table"]
        ok = (abs(entry["seed_overlap"] - ref["seed_overlap"]) <= 1e-6
              and entry["residual"] <= 1e-8)
        return [(OK if ok else WRONG,
                 f"seed overlap {entry['seed_overlap']}, residual {entry['residual']}")]

    model = models.tfim_chain(n_moments, 0.5)
    seed_state = states.basis_state(n_moments, "1" * n_moments)

    def moments(out):
        ansatz = states.moment_states(model.hamiltonian, seed_state, order)
        return ansatz, overlaps.assemble(model, ansatz)

    def check_moments(result, out):
        ansatz, ovl = result
        words = hashlib.sha256(json.dumps([list(w) for w in ansatz.words]).encode()).hexdigest()
        ok = (ansatz.size == ref["ansatz_size"] and words == ref["words_sha256"]
              and ovl.E.shape == (ansatz.size, ansatz.size))
        return [(OK if ok else WRONG, f"ansatz size {ansatz.size}, words {words[:12]}")]

    return [
        _cli_step(ctx, "oracle", [f"oracle n={n_oracle}"], "oracle", cfg, check_oracle, extra),
        Step("moments", (f"moment_states+assemble n={n_moments}",), moments, check_moments),
    ]


# -- boundary-extract ---------------------------------------------------------

def boundary_extract(ctx: Context, seed: int, smoke: bool) -> list[Step]:
    from ness_sdp.cli import EXIT_INFEASIBLE

    steps = []
    for n in ((4,) if smoke else (6, 8)):
        cfg = {
            "model": {"builder": "xxz_boundary_driven",
                      "params": {"n": n, "delta": 1.0, "drive": 1.0, "mu": 0.5}},
            "ansatz": {"seed": "sector-basis:0"},
            "symmetry": {"use": "exchange-parity"},
            "constraints": [{"generator": "magnetization", "target": 0.0}],
            "solver": {"max_iter": SOLVER_MAX_ITER, "rng_seed": seed},
        }

        def check(result, out):
            # The sector-basis ansatz spans the m=0 sector, so the problem is
            # feasible by construction and an infeasible verdict is wrong.
            failure = _exit_failure(result, 1, wrong_codes=(EXIT_INFEASIBLE,))
            if failure:
                return failure
            report = json.loads((out / "symmetry.json").read_text())
            diag = report["solver_diagnostics"]
            found = [s for s in report["sectors"] if not s["missing"]]
            problems = []
            if not (diag["psd_violation"] >= -1e-9 and diag["trace_error"] <= 1e-9
                    and diag["subspace_residual"] <= 1e-9
                    and all(c <= 1e-9 for c in diag["constraint_errors"])):
                problems.append(f"solver invariants {diag}")
            if len(found) != 2:
                problems.append(f"{len(found)} sectors found")
            for s in found:
                trace = sum(s["state"]["re"][i][i] for i in range(len(s["state"]["re"])))
                if not (s["residual"] <= 1e-8 and _hermiticity(s["state"]) <= 1e-12
                        and s["psd_violation"] >= -1e-9 and abs(trace - 1.0) <= 1e-9):
                    problems.append(f"sector {s['sector']}: residual {s['residual']}, "
                                    f"psd {s['psd_violation']}, trace {trace}")
            return [(WRONG, "; ".join(problems)) if problems else (OK, "both sectors")]

        steps.append(_cli_step(ctx, f"symmetry-n{n}", [f"symmetry n={n}"], "symmetry", cfg,
                               check))
    return steps


# -- noisy-tfim4 --------------------------------------------------------------

def noisy_tfim4(ctx: Context, seed: int, smoke: bool) -> list[Step]:
    n, shot_levels = (2, (10 ** 8,)) if smoke else (4, (10 ** 4, 10 ** 6, 10 ** 8))
    rng = random.Random(seed)
    steps = []
    for shots in shot_levels:
        cfg = {
            "model": {"builder": "tfim_chain", "params": {"n": n, "g": 0.5, "gamma": 1.0}},
            "ansatz": {"K": 2},
            "shots": shots,
            "noise_rng_seed": rng.randrange(2 ** 31),
            "solver": {"max_iter": SOLVER_MAX_ITER},
        }

        def check(result, out):
            failure = _exit_failure(result, 1)
            if failure:
                return failure
            fid = json.loads((out / "solution.json").read_text())["oracle"]["fidelity"]
            ok = fid is not None and fid >= 0.95
            return [(OK if ok else WRONG, f"fidelity {fid}")]

        steps.append(_cli_step(ctx, f"solve-shots{shots}", [f"solve shots={shots:.0e}"],
                               "solve", cfg, check))
    return steps


BUILDERS = {
    "sweep-tfim5": sweep_tfim5,
    "large-n": large_n,
    "boundary-extract": boundary_extract,
    "noisy-tfim4": noisy_tfim4,
}


def build(name: str, seed: int, ctx: Context, smoke: bool = False) -> list[Step]:
    """Import the package and make the workload's inputs under ``ctx.workdir``."""
    import ness_sdp.cli  # noqa: F401  (the import is part of set-up time)

    return BUILDERS[name](ctx, seed, smoke)
