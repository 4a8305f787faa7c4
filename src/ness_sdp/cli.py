"""Batch driver: model building, ansatz generation, solving, sweeps, reports.

Configuration is a JSON file; see README for the schema. Outputs are
JSON reports plus a plot-ready CSV for sweeps. Exit codes: 0 success,
2 configuration error, 3 infeasible, 4 iteration budget exhausted,
5 dense-limit / oracle error.
"""
from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import models, oracle, pipeline, sdp, states, symmetry
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSteadySpaceError,
    DenseLimitError,
    DimensionMismatchError,
    InfeasibleError,
    IterationBudgetError,
)
from .pauli import DEFAULT_DENSE_LIMIT, pauli_sum_from_obj

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_ITERATION_BUDGET = 4
EXIT_ORACLE = 5

# The keys a command config may hold, per section; any other key exits 2.
# "" is the top level, "constraints" each constraint entry, and "ansatz"
# also each sweep.ansatz_grid entry. The solver section takes the fields
# of sdp.SolverOptions, which rejects any other key itself.
_CONFIG_KEYS = {
    "": ("model", "ansatz", "solver", "constraints", "shots", "noise_rng_seed",
         "sweep", "overlap_table", "symmetry"),
    "model": ("builder", "params", "file"),
    "ansatz": ("seed", "K", "q", "rng_seed"),
    "sweep": ("parameter", "values", "ansatz_grid"),
    "overlap_table": ("parameter", "g_values"),
    "symmetry": ("use",),
    "constraints": ("generator", "observable", "target"),
}


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file must hold a JSON object: {path}")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    """cfg[name], {} when absent; a section that is not a JSON object is a config error."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, got {section!r}")
    return section


def _entries(obj: dict, name: str, what: str, default: list) -> list:
    """obj[name] as a list of JSON objects, default when absent."""
    entries = obj.get(name, default)
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"{what} must be a list of JSON objects, got {entries!r}")
    return entries


def _check_keys(obj: dict, allowed: tuple, where: str):
    unknown = [key for key in obj if key not in allowed]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} {where}; "
                          f"allowed: {', '.join(allowed)}")


def _command_config(path: str) -> dict:
    """A command's config file, every key checked against _CONFIG_KEYS; a
    model file comes alone, since builder and params beside it would go unread."""
    cfg = _load_config(path)
    _check_keys(cfg, _CONFIG_KEYS[""], "at the top level")
    for name in ("model", "ansatz", "sweep", "overlap_table", "symmetry"):
        _check_keys(_section(cfg, name), _CONFIG_KEYS[name], f"in section {name!r}")
    mcfg = _section(cfg, "model")
    beside = [key for key in ("builder", "params") if key in mcfg]
    if mcfg.get("file") is not None and beside:
        raise ConfigError(f"model section has 'file' and {' and '.join(map(repr, beside))}; "
                          "a model file takes no builder or params")
    for k, entry in enumerate(_entries(cfg, "constraints", "constraints", [])):
        _check_keys(entry, _CONFIG_KEYS["constraints"], f"in constraints[{k}]")
    grid = _entries(_section(cfg, "sweep"), "ansatz_grid", "sweep.ansatz_grid", [])
    for k, entry in enumerate(grid):
        _check_keys(entry, _CONFIG_KEYS["ansatz"], f"in sweep.ansatz_grid[{k}]")
    return cfg


def _number(value, what: str) -> float:
    """A finite float from a number or numeric string; never a bool, inf or nan."""
    try:
        number = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = None
    if number is None or not np.isfinite(number):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return number


def _integer(value, what: str, minimum: int = 0) -> int:
    """An int, a digit string or an integral float such as 1e6; never a bool or 1.9."""
    integral = not isinstance(value, bool) and (not isinstance(value, float)
                                                or value.is_integer())
    try:
        number = int(value) if integral else None
    except (TypeError, ValueError):
        number = None
    if number is None or number < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return number


def _build_model(cfg: dict) -> models.OpenSystemModel:
    mcfg = _section(cfg, "model")
    if not mcfg:
        raise ConfigError("config needs a 'model' section")
    if mcfg.get("file") is not None:
        if not isinstance(mcfg["file"], str):
            raise ConfigError(f"model.file must be a path string, got {mcfg['file']!r}")
        return models.load_model(mcfg["file"])
    if "builder" in mcfg:
        try:
            return models.build(mcfg["builder"], **mcfg.get("params", {}))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad model parameters: {exc}")
    raise ConfigError("model section needs 'file' or 'builder'")


def _seed_state(model: models.OpenSystemModel, descriptor: str,
                dense_limit: int) -> states.AnsatzSet:
    if descriptor.startswith("bits:"):
        try:
            return states.basis_state(model.n_qubits, descriptor.split(":", 1)[1])
        except DimensionMismatchError as exc:
            raise ConfigError(f"bad ansatz seed {descriptor!r}: {exc}")
    if descriptor == "uniform":
        return states.uniform_state(model.n_qubits)
    if descriptor == "oracle-top":
        # Benchmarking-only seed: consults the exact steady state.
        _, seed = oracle.dominant_eigenstate(pipeline.exact_state(model, dense_limit),
                                             model.n_qubits)
        return seed
    raise ConfigError(f"unknown seed descriptor {descriptor!r}")


def _build_ansatz(model: models.OpenSystemModel, cfg: dict,
                  dense_limit: int) -> states.AnsatzSet:
    acfg = _section(cfg, "ansatz")
    descriptor = acfg.get("seed", "bits:" + "1" * model.n_qubits)
    if not isinstance(descriptor, str):
        raise ConfigError(f"ansatz.seed must be a string, got {descriptor!r}")
    if descriptor.startswith("sector-basis:"):
        unread = [key for key in ("K", "q", "rng_seed") if key in acfg]
        if unread:
            raise ConfigError(f"ansatz seed {descriptor!r} takes no {' or '.join(map(repr, unread))}; "
                              "a sector basis spans its whole sector")
        m = _integer(descriptor.split(":", 1)[1], "the magnetization of a sector-basis seed",
                     minimum=-model.n_qubits)
        return symmetry.sector_basis_ansatz(model.n_qubits, m)
    q = acfg.get("q")
    if q is None and "rng_seed" in acfg:
        raise ConfigError("ansatz 'rng_seed' seeds the random subset, so it needs 'q' "
                          "beside it; without 'q' every extension is kept")
    seed = _seed_state(model, descriptor, dense_limit)
    order = _integer(acfg.get("K", 0), "ansatz.K")
    if q is None:
        return states.moment_states(model.hamiltonian, seed, order,
                                    seed_descriptor=descriptor)
    return states.moment_states_random(model.hamiltonian, seed, order,
                                       _integer(q, "ansatz.q", minimum=1),
                                       _integer(acfg.get("rng_seed", 0), "ansatz.rng_seed"),
                                       seed_descriptor=descriptor)


def _constraints(cfg: dict, ansatz: states.AnsatzSet,
                 model: models.OpenSystemModel):
    out = []
    for entry in _entries(cfg, "constraints", "constraints", []):
        if "target" not in entry:
            raise ConfigError(f"constraint needs a 'target': {entry}")
        target = _number(entry["target"], "constraint target")
        if entry.get("generator") == "magnetization":
            gen = models.magnetization(model.n_qubits)
        elif "observable" in entry:
            try:
                gen = pauli_sum_from_obj(entry["observable"], model.n_qubits)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError("constraint observable must be a list of pauli/coeff "
                                  f"objects, got {entry['observable']!r} ({exc})")
        else:
            raise ConfigError(f"constraint needs 'generator' or 'observable': {entry}")
        out.append(symmetry.sector_constraint(gen, target, ansatz))
    return tuple(out)


def _solver_options(cfg: dict) -> sdp.SolverOptions:
    try:
        return sdp.SolverOptions(**_section(cfg, "solver"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver options: {exc}")


def _matrix_obj(mat: np.ndarray) -> dict:
    """Real and imaginary parts as nested lists. Exact zeros are written as
    0, and every all-zero row is one shared list."""
    zero_row = [0] * mat.shape[1]

    def rows(part):
        return [[v if v else 0 for v in row.tolist()] if row.any() else zero_row
                for row in part]

    return {"re": rows(np.real(mat)), "im": rows(np.imag(mat))}


def _run_config(model: models.OpenSystemModel, cfg: dict, dense_limit: int) -> pipeline.Run:
    """``pipeline.run`` on the ansatz, shots, constraints and solver options of cfg."""
    ansatz = _build_ansatz(model, cfg, dense_limit)
    noise = {}
    if cfg.get("shots") is not None:
        noise = {"shots": _integer(cfg["shots"], "shots", minimum=1),
                 "noise_rng_seed": _integer(cfg.get("noise_rng_seed", 0), "noise_rng_seed")}
    return pipeline.run(model, ansatz, constraints=_constraints(cfg, ansatz, model),
                        options=_solver_options(cfg), dense_limit=dense_limit, **noise)


def _dump_json(obj, fh):
    """``json.dump(obj, fh, default=float)``, byte for byte, through the C encoder.

    ``json.dump`` runs the pure-Python encoder, and ``json.dumps`` of a whole
    report holds the whole string. This walks dicts, and lists whose first
    item is a container (a matrix's rows, a list of sections), and writes
    every other value whole with ``json.dumps``: a row goes out as one
    string, its numbers never looked at here. What is walked sets only the
    size of the largest string held, not the bytes written.
    """
    if isinstance(obj, dict) and obj:
        sep = "{"
        for key, value in obj.items():
            fh.write(f"{sep}{json.dumps(key if isinstance(key, str) else json.dumps(key))}: ")
            _dump_json(value, fh)
            sep = ", "
        fh.write("}")
    elif isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], (dict, list, tuple)):
        sep = "["
        for value in obj:
            fh.write(sep)
            _dump_json(value, fh)
            sep = ", "
        fh.write("]")
    else:
        fh.write(json.dumps(obj, default=float))


def _write_json(path: Path, obj: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        _dump_json(obj, fh)
    click.echo(str(path))


def _run(body):
    """Map package exceptions onto the documented exit codes."""
    try:
        body()
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    except InfeasibleError as exc:
        _fail(EXIT_INFEASIBLE, f"{exc} report={exc.report}")
    except IterationBudgetError as exc:
        _fail(EXIT_ITERATION_BUDGET, f"{exc} report={exc.report}")
    except (DenseLimitError, DegenerateSteadySpaceError, ConvergenceError) as exc:
        _fail(EXIT_ORACLE, str(exc))


@click.group()
def main():
    """Steady states of Lindblad systems via a Hermitian feasibility SDP."""


@main.command()
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_dir", default="ness_out", show_default=True)
@click.option("--dense-limit", default=oracle.DEFAULT_DENSE_LIMIT, show_default=True)
def solve(config_path, out_dir, dense_limit):
    """Solve one configuration and write a solution report."""
    def body():
        cfg = _command_config(config_path)
        model = _build_model(cfg)
        result = _run_config(model, cfg, dense_limit)
        report = {
            "model": model.label,
            "ansatz": result.ansatz.to_record(),
            "ansatz_size": result.ansatz.size,
            "shots": cfg.get("shots"),
            "diagnostics": result.beta.as_dict(),
            "beta": _matrix_obj(result.beta.matrix),
            "observables": result.observables,
            "oracle": result.verification(),
        }
        _write_json(Path(out_dir) / "solution.json", report)
    _run(body)


_SWEEP_COLUMNS = ("g", "ansatz_size", "feasible", "subspace_residual",
                  "true_residual", "fidelity", "avg_X", "avg_Z", "avg_ZZ",
                  "K", "q", "ansatz_rng_seed", "seed_descriptor", "shots", "feas_tol")


def _with_param(cfg: dict, name: str, value) -> dict:
    """Deep copy of cfg with one builder parameter of the model replaced."""
    if not isinstance(_section(cfg, "model").get("params"), dict):
        raise ConfigError("a parameter scan needs the model's 'params' section")
    point = json.loads(json.dumps(cfg))
    point["model"]["params"][name] = value
    return point


def _sweep_point(cfg, value, ansatz_cfg, dense_limit):
    point_cfg = _with_param(cfg, cfg["sweep"]["parameter"], value)
    point_cfg["ansatz"] = dict(_section(point_cfg, "ansatz"), **ansatz_cfg)
    model = _build_model(point_cfg)
    acfg = point_cfg["ansatz"]
    row = {
        "g": value,
        "K": acfg.get("K", 0),
        "q": acfg.get("q", ""),
        "ansatz_rng_seed": acfg.get("rng_seed", ""),
        "seed_descriptor": acfg.get("seed", "bits:" + "1" * model.n_qubits),
        "shots": point_cfg.get("shots", ""),
        "feas_tol": _solver_options(point_cfg).feas_tol,
    }
    try:
        result = _run_config(model, point_cfg, dense_limit)
    except (InfeasibleError, IterationBudgetError) as exc:
        row.update({"ansatz_size": "", "feasible": 0,
                    "subspace_residual": exc.report["best_residual"],
                    "true_residual": "", "fidelity": "",
                    "avg_X": "", "avg_Z": "", "avg_ZZ": ""})
        return row
    row.update(result.observables,
               ansatz_size=result.ansatz.size, feasible=1,
               subspace_residual=result.beta.subspace_residual,
               true_residual="" if result.true_residual is None else result.true_residual,
               fidelity="" if result.fidelity is None else result.fidelity)
    return row


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@main.command()
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_dir", default="ness_out", show_default=True)
@click.option("--dense-limit", default=oracle.DEFAULT_DENSE_LIMIT, show_default=True)
@click.option("--workers", default=1, show_default=True)
def sweep(config_path, out_dir, dense_limit, workers):
    """Sweep a model parameter; one CSV row per sweep point."""
    def body():
        cfg = _command_config(config_path)
        swp = _section(cfg, "sweep")
        if "parameter" not in swp or "values" not in swp:
            raise ConfigError("sweep section needs 'parameter' and 'values'")
        if not isinstance(swp["values"], list):
            raise ConfigError(f"sweep values must be a list, got {swp['values']!r}")
        values = [_number(v, "sweep value") for v in swp["values"]]
        if "builder" not in _section(cfg, "model"):
            raise ConfigError("sweep requires a builder-based model section")
        if workers < 1:
            raise ConfigError("--workers must be >= 1")
        grid = _entries(swp, "ansatz_grid", "sweep.ansatz_grid", [{}])
        points = [(v, a) for v in values for a in grid]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(
                lambda p: _sweep_point(cfg, p[0], p[1], dense_limit), points))
        out = Path(out_dir) / "sweep.csv"
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            fh.write(",".join(_SWEEP_COLUMNS) + "\n")
            for row in rows:
                fh.write(",".join(_format_cell(row[c]) for c in _SWEEP_COLUMNS) + "\n")
        click.echo(str(out))
    _run(body)


@main.command(name="oracle")
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_dir", default="ness_out", show_default=True)
@click.option("--dense-limit", default=oracle.DEFAULT_DENSE_LIMIT, show_default=True)
def oracle_cmd(config_path, out_dir, dense_limit):
    """Exact steady-state structure; optional seed-overlap table for large n."""
    def body():
        cfg = _command_config(config_path)
        model = _build_model(cfg)
        report = {"model": model.label}
        if model.n_qubits <= dense_limit:
            basis = oracle.steady_states(model, dense_limit=dense_limit)
            report["degeneracy"] = basis.dimension
            report["physical_count"] = int(sum(basis.physical))
            report["smallest_singular_values"] = [
                float(s) for s in basis.singular_values[-max(basis.dimension + 2, 3):]]
        table_cfg = _section(cfg, "overlap_table")
        if table_cfg:
            if not isinstance(table_cfg.get("g_values"), list):
                raise ConfigError("overlap_table needs a list 'g_values'")
            column = []
            for value in table_cfg["g_values"]:
                point = _with_param(cfg, table_cfg.get("parameter", "g"), value)
                pmodel = _build_model(point)
                lam, residual = pipeline.seed_overlap(pmodel, dense_limit)
                column.append({"value": value, "seed_overlap": lam, "residual": residual})
            report["overlap_table"] = column
        _write_json(Path(out_dir) / "oracle.json", report)
    _run(body)


def _declared_symmetry(model: models.OpenSystemModel, label) -> models.SymmetrySpec:
    """The model's symmetry with this label; the first declared one for None."""
    labels = [spec.label for spec in model.symmetries]
    if not labels:
        raise ConfigError(f"model {model.label!r} declares no strong symmetry")
    if label is None:
        return model.symmetries[0]
    if label not in labels:
        raise ConfigError(f"symmetry {label!r} is not declared by the model; "
                          f"it declares {labels}")
    return model.symmetries[labels.index(label)]


_EXTRACTION_LIMIT = (f"extraction realizes dense sector states, so it stops at "
                     f"{DEFAULT_DENSE_LIMIT} qubits (pauli.DEFAULT_DENSE_LIMIT)")


@main.command(name="symmetry")
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_dir", default="ness_out", show_default=True)
@click.option("--dense-limit", default=oracle.DEFAULT_DENSE_LIMIT, show_default=True,
              help=f"Largest n at which the oracle-top seed uses the dense oracle; "
                   f"{_EXTRACTION_LIMIT}.")
def symmetry_cmd(config_path, out_dir, dense_limit):
    """Twirl + Vandermonde extraction of per-sector steady states."""
    def body():
        cfg = _command_config(config_path)
        if cfg.get("shots") is not None:
            raise ConfigError("symmetry extraction runs on exact overlaps; it takes no 'shots'")
        model = _build_model(cfg)
        if model.n_qubits > DEFAULT_DENSE_LIMIT:
            raise DenseLimitError(f"the model has {model.n_qubits} qubits; {_EXTRACTION_LIMIT}; "
                                  "--dense-limit bounds only the oracle-top seed")
        scfg = _section(cfg, "symmetry")
        spec = _declared_symmetry(model, scfg.get("use"))
        ansatz = _build_ansatz(model, cfg, dense_limit)
        result = symmetry.extract_all_ness(
            model, spec, ansatz,
            options=_solver_options(cfg),
            extra_constraints=_constraints(cfg, ansatz, model),
        )
        found = result.found
        pairwise = [[float(abs(np.vdot(a.state, b.state))) for b in found] for a in found]
        report = {
            "model": model.label,
            "symmetry": spec.label,
            "attempts": result.attempts,
            "solver_diagnostics": result.beta.as_dict(),
            "sectors": [
                {
                    "sector": s.sector,
                    "eigenvalue": [s.eigenvalue.real, s.eigenvalue.imag],
                    "missing": s.missing,
                    "trace_weight": None if s.missing else [s.trace_weight.real,
                                                            s.trace_weight.imag],
                    "residual": s.residual,
                    "psd_violation": s.psd_violation,
                    "state": None if s.missing else _matrix_obj(s.state),
                }
                for s in result.states
            ],
            "pairwise_trace_overlaps": pairwise,
        }
        _write_json(Path(out_dir) / "symmetry.json", report)
    _run(body)


@main.group()
def ansatz():
    """Generate or inspect ansatz records."""


@ansatz.command(name="generate")
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_path", default="ness_out/ansatz.json", show_default=True)
@click.option("--dense-limit", default=oracle.DEFAULT_DENSE_LIMIT, show_default=True)
def ansatz_generate(config_path, out_path, dense_limit):
    def body():
        cfg = _command_config(config_path)
        model = _build_model(cfg)
        ans = _build_ansatz(model, cfg, dense_limit)
        record = ans.to_record()
        record["content_hash"] = ans.content_hash()
        _write_json(Path(out_path), record)
    _run(body)


@ansatz.command(name="inspect")
@click.argument("record_path", type=str)
def ansatz_inspect(record_path):
    def body():
        record = _load_config(record_path)
        words = record.get("words", [])
        if not isinstance(words, list) or not all(isinstance(w, list) for w in words):
            raise ConfigError(f"ansatz record 'words' must be a list of lists, got {words!r}")
        click.echo(f"n_qubits:        {record.get('n_qubits')}")
        click.echo(f"seed_descriptor: {record.get('seed_descriptor')}")
        click.echo(f"rng_seed:        {record.get('rng_seed')}")
        click.echo(f"states:          {len(words)}")
        if words:
            depth = max(len(w) for w in words)
            click.echo(f"max word length: {depth}")
    _run(body)


@main.group()
def model():
    """Validate or emit model files."""


@model.command(name="validate")
@click.argument("model_path", type=str)
def model_validate(model_path):
    def body():
        m = models.load_model(model_path)
        violations = models.validate(m)
        if violations:
            raise ConfigError("; ".join(violations))
        click.echo(f"ok: {m.label or model_path} "
                   f"(n={m.n_qubits}, H terms={m.hamiltonian.n_terms}, "
                   f"dissipators={len(m.dissipators)})")
    _run(body)


@model.command(name="emit")
@click.option("--builder", required=True, type=str)
@click.option("--out", "out_path", required=True, type=str)
@click.option("--n", type=int, required=True)
@click.option("--g", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--drive", type=float, default=None)
@click.option("--mu", type=float, default=None)
def model_emit(builder, out_path, n, g, delta, gamma, drive, mu):
    def body():
        params = {"n": n}
        for key, val in (("g", g), ("delta", delta), ("gamma", gamma),
                         ("drive", drive), ("mu", mu)):
            if val is not None:
                params[key] = val
        m = models.build(builder, **params)
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        models.save_model(m, out_path)
        click.echo(out_path)
    _run(body)


if __name__ == "__main__":
    main()
