"""Command-line driver: reports, exit codes, reproducibility."""
import io
import json
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ness_sdp import oracle, run, states
from ness_sdp.cli import _CONFIG_KEYS, _dump_json, _matrix_obj, main
from ness_sdp.models import (
    exchange_parity_symmetry,
    model_to_obj,
    save_model,
    tfim_chain,
    xxz_boundary_driven,
    xxz_dephasing,
)
from ness_sdp.sdp import SolverOptions
from ness_sdp.states import basis_state, density_from_beta, moment_states


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


TFIM_CFG = {
    "model": {"builder": "tfim_chain", "params": {"n": 2, "g": 1.0, "gamma": 1.0}},
    "ansatz": {"seed": "bits:11", "K": 2},
}


def assert_report_holds_the_run(report, result):
    """solution.json carries run()'s beta, observables and verification exactly."""
    beta = np.array(report["beta"]["re"]) + 1j * np.array(report["beta"]["im"])
    assert np.array_equal(beta, result.beta.matrix)
    assert report["observables"] == result.observables
    for field in ("fidelity", "true_residual", "skipped"):
        assert report["oracle"].get(field) == getattr(result, field)


class TestSolve:
    def test_writes_solution_with_fidelity(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", TFIM_CFG)
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert report["oracle"]["fidelity"] >= 0.999
        assert report["oracle"]["true_residual"] <= 1e-6
        assert report["diagnostics"]["mode"] == "feasibility"
        assert report["diagnostics"]["stop_reason"] == "converged"
        assert report["diagnostics"]["inner_iterations"] > 0
        assert report["ansatz"]["seed_descriptor"] == "bits:11"
        model = tfim_chain(2, 1.0, 1.0)
        ansatz = moment_states(model.hamiltonian, basis_state(2, "11"), 2)
        assert_report_holds_the_run(report, run(model, ansatz))

    def test_shots_switch_to_least_squares(self, runner, tmp_path):
        cfg_obj = dict(TFIM_CFG, shots=10 ** 6, noise_rng_seed=1)
        cfg = write_config(tmp_path / "cfg.json", cfg_obj)
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert report["diagnostics"]["mode"] == "least-squares"
        assert "noisy_mode" not in report
        assert report["diagnostics"]["stop_reason"] in ("grad-map", "stall")
        assert report["diagnostics"]["inner_iterations"] > 0  # the LSQR start
        assert report["shots"] == 10 ** 6

    def test_true_residual_above_the_dense_limit(self, runner, tmp_path, monkeypatch):
        # Above the dense limit there is no exact state, so no fidelity, but
        # up to the sparse limit the report still carries ||L[rho]||.
        cfg_obj = {"model": {"builder": "tfim_chain", "params": {"n": 7, "g": 0.5}},
                   "ansatz": {"K": 1}, "sweep": {"parameter": "g", "values": [0.5]}}
        cfg = write_config(tmp_path / "cfg.json", cfg_obj)
        args = ["--config", cfg, "--out", str(tmp_path / "out"), "--dense-limit", "6"]
        result = runner.invoke(main, ["solve", *args])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert set(report["oracle"]) == {"skipped", "true_residual"}
        model = tfim_chain(7, 0.5)
        ansatz = moment_states(model.hamiltonian, basis_state(7, "1" * 7), 1)
        beta = np.array(report["beta"]["re"]) + 1j * np.array(report["beta"]["im"])
        expect = oracle.true_residual(density_from_beta(beta, ansatz), model)
        assert report["oracle"]["true_residual"] == pytest.approx(expect, rel=1e-12)
        assert_report_holds_the_run(report, run(model, ansatz, dense_limit=6))
        result = runner.invoke(main, ["sweep", *args])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        cells = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(cells["true_residual"]) == report["oracle"]["true_residual"]
        assert cells["fidelity"] == ""
        # Above the sparse limit nothing reads rho, so the dense S beta S^dag
        # is never formed.
        monkeypatch.setattr(oracle, "SPARSE_LIMIT", 6)

        def guarded(beta, ansatz):
            if ansatz.n_qubits > oracle.SPARSE_LIMIT:
                raise AssertionError("dense rho formed above the sparse limit")
            return density_from_beta(beta, ansatz)

        monkeypatch.setattr(states, "density_from_beta", guarded)
        for command in ("solve", "sweep"):
            result = runner.invoke(main, [command, *args])
            assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert set(report["oracle"]) == {"skipped"}
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        cells = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert cells["true_residual"] == cells["fidelity"] == ""

    def test_null_model_file_builds_from_the_builder(self, runner, tmp_path):
        model = dict(TFIM_CFG["model"], file=None)
        cfg = write_config(tmp_path / "cfg.json", dict(TFIM_CFG, model=model))
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output

    def test_model_file_must_be_a_string(self, runner, tmp_path):
        # open(5) would read file descriptor 5 as a model file.
        cfg = write_config(tmp_path / "cfg.json", {"model": {"file": 5}})
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "model.file" in result.output

    def test_fourteen_qubit_solve_holds_the_ansatz_on_its_support(self, runner, tmp_path):
        # bits:1...1 at K=2 grows 106 basis states. Held on their 106 rows,
        # not as 2^14-row columns, the whole solve peaks far below the
        # 122 MiB that the dense block took.
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 14, "g": 0.5}},
            "ansatz": {"K": 2},
        })
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["solve", "--config", cfg,
                                          "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert report["ansatz_size"] == 106
        assert report["diagnostics"]["stop_reason"] == "converged"
        assert peak < 48 * 2 ** 20

    def test_twenty_four_qubit_ansatz_holds_the_seed_on_its_row(self, runner, tmp_path):
        # The bits:1...1 seed is one row, not a 2^24 vector (256 MiB, and as
        # much again for its copy), so growing its 301 K=2 states stays small.
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 24, "g": 0.5}},
            "ansatz": {"seed": "bits:" + "1" * 24, "K": 2},
        })
        record = tmp_path / "ansatz.json"
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["ansatz", "generate", "--config", cfg,
                                          "--out", str(record)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert len(json.loads(record.read_text())["words"]) == 301
        assert peak < 16 * 2 ** 20

    def test_missing_config_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["solve", "--config",
                                      str(tmp_path / "nope.json")])
        assert result.exit_code == 2

    def test_missing_model_file_is_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           {"model": {"file": str(tmp_path / "missing_model.json")}})
        result = runner.invoke(main, ["solve", "--config", cfg])
        assert result.exit_code == 2

    def test_bad_builder_params_is_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 2, "bogus": 1}},
        })
        result = runner.invoke(main, ["solve", "--config", cfg])
        assert result.exit_code == 2

    def test_infeasible_exit_code(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 2, "g": 0.0}},
            "ansatz": {"seed": "bits:00", "K": 0},
        })
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3


class TestSweep:
    def sweep_cfg(self, tmp_path, values=(0.0, 1.0)):
        return write_config(tmp_path / "sweep.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 2, "g": 0.0}},
            "ansatz": {"seed": "bits:11", "K": 2},
            "sweep": {"parameter": "g", "values": list(values)},
        })

    def test_csv_structure_and_content(self, runner, tmp_path):
        cfg = self.sweep_cfg(tmp_path, values=(0.0, 0.5, 1.0))
        result = runner.invoke(main, ["sweep", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["g", "ansatz_size", "feasible", "subspace_residual",
                              "true_residual", "fidelity"]
        assert {"K", "seed_descriptor", "feas_tol"} <= set(header)
        assert len(lines) == 4
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            assert cells["feasible"] == "1"
            assert float(cells["fidelity"]) >= 0.999

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg = self.sweep_cfg(tmp_path)
        runner.invoke(main, ["sweep", "--config", cfg, "--out", str(tmp_path / "a")])
        runner.invoke(main, ["sweep", "--config", cfg, "--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "sweep.csv").read_bytes()
                == (tmp_path / "b" / "sweep.csv").read_bytes())

    def test_single_point_sweep_matches_solve(self, runner, tmp_path):
        cfg_obj = {
            "model": {"builder": "tfim_chain", "params": {"n": 2, "g": 1.0}},
            "ansatz": {"seed": "bits:11", "K": 2},
            "sweep": {"parameter": "g", "values": [1.0]},
        }
        cfg = write_config(tmp_path / "cfg.json", cfg_obj)
        runner.invoke(main, ["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        cells = dict(zip(lines[0].split(","), lines[1].split(",")))
        solution = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert float(cells["fidelity"]) == pytest.approx(
            solution["oracle"]["fidelity"], abs=1e-12)
        assert float(cells["avg_Z"]) == pytest.approx(
            solution["observables"]["avg_Z"], abs=1e-12)

    @pytest.mark.parametrize("workers", ["2", "3"])
    def test_workers_write_the_same_bytes(self, runner, tmp_path, workers):
        # Points run concurrently on the thread pool but land in input order.
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 3, "g": 0.0}},
            "sweep": {"parameter": "g", "values": [0.0, 0.5, 1.0, 2.0],
                      "ansatz_grid": [{"K": 1}, {"K": 2}]},
        })
        for count, out in (("1", "serial"), (workers, "pool")):
            result = runner.invoke(main, ["sweep", "--config", cfg, "--workers", count,
                                          "--out", str(tmp_path / out)])
            assert result.exit_code == 0, result.output
        serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
        assert serial.count(b"\n") == 9
        assert (tmp_path / "pool" / "sweep.csv").read_bytes() == serial

    def test_sweep_requires_finite_values(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 2, "g": 0.0}},
            "sweep": {"parameter": "g", "values": [float("nan")]},
        })
        result = runner.invoke(main, ["sweep", "--config", cfg])
        assert result.exit_code == 2

    def test_ansatz_grid_rows_per_size(self, runner, tmp_path):
        # one row per (sweep value, ansatz variant), random-subset sizes
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain",
                      "params": {"n": 5, "g": 0.0, "gamma": 1.0}},
            "ansatz": {"seed": "oracle-top"},
            "sweep": {
                "parameter": "g",
                "values": [0.25, 0.5],
                "ansatz_grid": [{"K": 4, "q": 30, "rng_seed": 1},
                                {"K": 5, "q": 40, "rng_seed": 1}],
            },
        })
        result = runner.invoke(main, ["sweep", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        sizes = {(r["g"], r["q"]): int(r["ansatz_size"]) for r in rows}
        assert len(sizes) == 4
        # larger random subsets give larger ansatz sets; fidelity stays high
        for g in ("0.25", "0.5"):
            assert sizes[(g, "40")] > sizes[(g, "30")]
        for row in rows:
            assert float(row["fidelity"]) >= 0.9

    def test_infeasible_point_recorded_in_row(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 2, "g": 0.0}},
            "ansatz": {"seed": "bits:00", "K": 0},
            "sweep": {"parameter": "g", "values": [0.0, 0.0]},
        })
        result = runner.invoke(main, ["sweep", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            cells = dict(zip(lines[0].split(","), line.split(",")))
            assert cells["feasible"] == "0"


class TestOracleCmd:
    def test_degeneracy_report(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "xxz_dephasing",
                      "params": {"n": 3, "delta": 1.0, "gamma": 1.0}},
        })
        result = runner.invoke(main, ["oracle", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "oracle.json").read_text())
        assert report["degeneracy"] >= 4
        assert report["physical_count"] >= 4

    def test_overlap_table_small(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 2, "g": 0.0}},
            "overlap_table": {"parameter": "g", "g_values": [0.0, 1.0]},
        })
        result = runner.invoke(main, ["oracle", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "oracle.json").read_text())
        column = report["overlap_table"]
        assert column[0]["seed_overlap"] == pytest.approx(1.0, abs=1e-9)
        assert column[1]["seed_overlap"] < 1.0


class TestSymmetryCmd:
    def test_boundary_driven_extraction(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "xxz_boundary_driven",
                      "params": {"n": 4, "delta": 1.0, "drive": 1.0, "mu": 0.5}},
            "ansatz": {"seed": "sector-basis:0"},
            "symmetry": {"use": "exchange-parity"},
            "constraints": [{"generator": "magnetization", "target": 0.0}],
        })
        result = runner.invoke(main, ["symmetry", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "symmetry.json").read_text())
        found = [s for s in report["sectors"] if not s["missing"]]
        assert len(found) == 2
        assert report["pairwise_trace_overlaps"][0][1] <= 1e-8
        assert report["solver_diagnostics"]["inner_iterations"] > 0
        for s in found:
            assert s["residual"] <= 1e-7
        assert report["symmetry"] == "exchange-parity"
        assert [s["eigenvalue"][0] for s in report["sectors"]] == pytest.approx([1.0, -1.0])

    def test_pairwise_overlaps_are_the_trace_products(self, runner, tmp_path):
        # |Tr(a^dag b)| read as a vdot equals the dense product form.
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "xxz_boundary_driven",
                      "params": {"n": 6, "delta": 1.0, "drive": 1.0, "mu": 0.5}},
            "ansatz": {"seed": "sector-basis:0"},
            "symmetry": {"use": "exchange-parity"},
            "constraints": [{"generator": "magnetization", "target": 0.0}],
        })
        result = runner.invoke(main, ["symmetry", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "symmetry.json").read_text())
        states = [np.array(s["state"]["re"]) + 1j * np.array(s["state"]["im"])
                  for s in report["sectors"] if not s["missing"]]
        assert len(states) == 2
        products = [[abs(np.trace(a.conj().T @ b)) for b in states] for a in states]
        assert np.allclose(report["pairwise_trace_overlaps"], products, rtol=0, atol=1e-12)

    def test_extraction_limit_is_checked_before_the_ansatz(self, runner, tmp_path):
        # The 13-qubit m=1 sector basis has 1716 states; the 12-qubit cap of
        # extraction exits 5 before any of them is built, and --dense-limit
        # does not move it.
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "xxz_boundary_driven",
                      "params": {"n": 13, "delta": 1.0, "drive": 1.0, "mu": 0.5}},
            "ansatz": {"seed": "sector-basis:1"},
            "symmetry": {"use": "exchange-parity"},
        })
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["symmetry", "--config", cfg, "--dense-limit", "13",
                                          "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 5, result.output
        assert "stops at 12 qubits (pauli.DEFAULT_DENSE_LIMIT)" in result.output
        assert "--dense-limit bounds only the oracle-top seed" in result.output
        assert peak < 16 * 2 ** 20
        usage = runner.invoke(main, ["symmetry", "--help"]).output
        assert "oracle-top seed" in usage and "12 qubits" in usage

    def test_defaults_to_declared_magnetization(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "xxz_dephasing",
                      "params": {"n": 3, "delta": 1.0, "gamma": 1.0}},
            "ansatz": {"seed": "bits:110", "K": 3},
        })
        result = runner.invoke(main, ["symmetry", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "symmetry.json").read_text())
        assert report["symmetry"] == "magnetization"
        assert len(report["sectors"]) == 4
        for s in report["sectors"]:
            assert s["missing"] or s["residual"] <= 1e-7

    @pytest.mark.parametrize("model, use, message", [
        ({"builder": "xxz_dephasing", "params": {"n": 3, "delta": 1.0}},
         "exchange-parity", "not declared"),
        ({"builder": "tfim_chain", "params": {"n": 2, "g": 1.0}}, None, "declares no"),
    ])
    def test_undeclared_symmetry_is_config_error(self, runner, tmp_path, model, use, message):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": model, "symmetry": {} if use is None else {"use": use}})
        result = runner.invoke(main, ["symmetry", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert message in result.output

    def test_shots_are_a_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "xxz_boundary_driven",
                      "params": {"n": 4, "delta": 1.0, "drive": 1.0, "mu": 0.5}},
            "shots": 100,
        })
        result = runner.invoke(main, ["symmetry", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "exact overlaps" in result.output

    def test_invalid_declared_symmetry_is_config_error(self, runner, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(BAD_GENERATOR_MODEL))
        cfg = write_config(tmp_path / "cfg.json", {"model": {"file": str(model)},
                                                   "ansatz": {"seed": "bits:00"}})
        result = runner.invoke(main, ["symmetry", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "invalid strong symmetry" in result.output


# generator ZI does not commute with H = XI
BAD_GENERATOR_MODEL = {
    "n_qubits": 2,
    "hamiltonian": [{"coeff": [1.0, 0.0], "pauli": "XI"}],
    "dissipators": [],
    "symmetries": [{"label": "z1", "permutation": [1, 2], "flip": "00", "phase": 0.0,
                    "generator": [{"coeff": [1.0, 0.0], "pauli": "ZI"}]}],
}


class TestModelAndAnsatzCmds:
    def test_emit_then_validate(self, runner, tmp_path):
        out = str(tmp_path / "model.json")
        result = runner.invoke(main, ["model", "emit", "--builder", "tfim_chain",
                                      "--n", "2", "--g", "1.0", "--out", out])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["model", "validate", out])
        assert result.exit_code == 0
        assert "ok:" in result.output

    def test_validate_flags_bad_model(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n_qubits": 1,
            "hamiltonian": [{"coeff": [0.0, 1.0], "pauli": "Z"}],
            "dissipators": [],
        }))
        result = runner.invoke(main, ["model", "validate", str(bad)])
        assert result.exit_code == 2
        assert "Hermitian" in result.output

    def test_validate_flags_noncommuting_generator(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(BAD_GENERATOR_MODEL))
        result = runner.invoke(main, ["model", "validate", str(bad)])
        assert result.exit_code == 2, result.output
        assert "generator does not commute with H" in result.output

    def test_malformed_symmetry_entry(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(BAD_GENERATOR_MODEL, symmetries=[{"label": "x"}])))
        result = runner.invoke(main, ["model", "validate", str(bad)])
        assert result.exit_code == 2, result.output
        assert "'permutation'" in result.output

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("field, value, named", [
        ("re", float("nan"), "pauli term"),
        ("im", float("inf"), "pauli term"),
        ("rate", float("nan"), "dissipator 0"),
        ("rate", -float("inf"), "dissipator 0"),
    ])
    def test_model_file_with_a_non_finite_number(self, runner, tmp_path, command, field,
                                                 value, named):
        # json reads NaN and Infinity; such a file used to lose its H term
        # silently, and solve ended in a LinAlgError traceback with exit 1
        obj = model_to_obj(tfim_chain(2, 1.0))
        if field == "rate":
            obj["dissipators"][0]["rate"] = value
        else:
            obj["hamiltonian"][0]["coeff"][field == "im"] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        args = ["model", "validate", str(path)]
        if command == "solve":
            cfg = write_config(tmp_path / "cfg.json",
                               {"model": {"file": str(path)}, "ansatz": TFIM_CFG["ansatz"]})
            args = ["solve", "--config", cfg, "--out", str(tmp_path / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert named in result.output and "Traceback" not in result.output
        assert not (tmp_path / "out").exists()

    def test_ansatz_generate_and_inspect(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", TFIM_CFG)
        record = tmp_path / "ansatz.json"
        result = runner.invoke(main, ["ansatz", "generate", "--config", cfg,
                                      "--out", str(record)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["ansatz", "inspect", str(record)])
        assert result.exit_code == 0
        assert "states:          4" in result.output

    def test_symmetry_check_above_the_dense_limit(self, runner, tmp_path):
        # The symmetry checks read U's structure, so model validate decides
        # at 13 qubits. The sector states are dense, so extraction stops at
        # the default dense limit of 12, before a 2^13 x 2^13 array (1 GiB)
        # exists.
        path = tmp_path / "model.json"
        save_model(xxz_dephasing(13, 1.0), path)
        cfg = write_config(tmp_path / "cfg.json", {"model": {"file": str(path)}})
        tracemalloc.start()
        try:
            validated = runner.invoke(main, ["model", "validate", str(path)])
            extracted = runner.invoke(main, ["symmetry", "--config", cfg,
                                             "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert validated.exit_code == 0, validated.output
        assert extracted.exit_code == 5, extracted.output
        assert peak < 2 ** 26

    def test_failing_symmetry_above_the_dense_limit(self, runner, tmp_path):
        obj = model_to_obj(tfim_chain(13, 0.5))
        obj["symmetries"] = [exchange_parity_symmetry(13).to_obj()]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        result = runner.invoke(main, ["model", "validate", str(path)])
        assert result.exit_code == 2, result.output
        assert "U does not commute with jump operator 0" in result.output

    def test_model_validate_at_sixteen_qubits(self, runner, tmp_path):
        path = tmp_path / "model.json"
        save_model(xxz_boundary_driven(16, 1.0, 1.0, 0.5), path)
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["model", "validate", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert peak < 2 ** 26


class TestMalformedConfigs:
    """Each malformed input exits 2 with a message, not 1 with a traceback."""

    @pytest.mark.parametrize("beside", [["builder"], ["params"], ["builder", "params"]])
    def test_model_file_beside_a_builder(self, runner, tmp_path, beside):
        path = tmp_path / "model.json"
        save_model(tfim_chain(2, 0.0), path)
        model = {"file": str(path), "builder": "tfim_chain", "params": {"n": 2, "g": 0.0}}
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {key: model[key] for key in ["file", *beside]},
            "sweep": {"parameter": "g", "values": [0.0, 1.0]},
        })
        for command in ("solve", "sweep"):
            result = runner.invoke(main, [command, "--config", cfg,
                                          "--out", str(tmp_path / "out")])
            assert result.exit_code == 2, result.output
            assert all(f"'{key}'" in result.output for key in ["file", *beside])

    @pytest.mark.parametrize("words", [5, [3, 4]])
    def test_ansatz_record_words_not_lists(self, runner, tmp_path, words):
        record = tmp_path / "ansatz.json"
        record.write_text(json.dumps({"n_qubits": 2, "words": words}))
        result = runner.invoke(main, ["ansatz", "inspect", str(record)])
        assert result.exit_code == 2, result.output
        assert "words" in result.output

    def test_sweep_builder_without_params(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain"},
            "sweep": {"parameter": "g", "values": [0.5]},
        })
        result = runner.invoke(main, ["sweep", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "params" in result.output

    def test_constraint_without_target(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", dict(
            TFIM_CFG, constraints=[{"generator": "magnetization"}]))
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "target" in result.output

    def test_overlap_table_without_g_values(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 2, "g": 0.0}},
            "overlap_table": {"parameter": "g"},
        })
        result = runner.invoke(main, ["oracle", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "g_values" in result.output

    def test_sweep_zero_workers(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 2, "g": 0.0}},
            "sweep": {"parameter": "g", "values": [0.5]},
        })
        result = runner.invoke(main, ["sweep", "--config", cfg, "--workers", "0",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "workers" in result.output

    def test_constraint_target_not_a_number(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", dict(
            TFIM_CFG, constraints=[{"generator": "magnetization", "target": "zero"}]))
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "target" in result.output

    def test_sweep_value_not_a_number(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 2, "g": 0.0}},
            "sweep": {"parameter": "g", "values": ["a"]},
        })
        result = runner.invoke(main, ["sweep", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "sweep value" in result.output

    @pytest.mark.parametrize("extra, field", [
        ({"ansatz": {"seed": "bits:11", "K": "two"}}, "ansatz.K"),
        ({"ansatz": {"seed": "bits:11", "K": 2, "q": "all"}}, "ansatz.q"),
        ({"ansatz": {"seed": "bits:11", "K": 2, "q": 2, "rng_seed": "x"}}, "ansatz.rng_seed"),
        ({"shots": "many"}, "shots"),
        ({"shots": 100, "noise_rng_seed": "x"}, "noise_rng_seed"),
        ({"ansatz": {"seed": "bits:11", "K": 1.9}}, "ansatz.K"),
        ({"shots": 100, "noise_rng_seed": True}, "noise_rng_seed"),
    ])
    def test_solve_integer_not_an_integer(self, runner, tmp_path, extra, field):
        cfg = write_config(tmp_path / "cfg.json", dict(TFIM_CFG, **extra))
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert field in result.output

    @pytest.mark.parametrize("command, cfg, field", [
        ("solve", dict(TFIM_CFG, constraints=[{"generator": "magnetization", "target": True}]),
         "constraint target"),
        ("solve", dict(TFIM_CFG, constraints=[{"generator": "magnetization",
                                               "target": float("inf")}]),
         "constraint target"),
        ("sweep", {"model": TFIM_CFG["model"], "sweep": {"parameter": "g", "values": [True]}},
         "sweep value"),
        *[("solve", dict(TFIM_CFG, model={"builder": "tfim_chain", "params": {"n": 2, "g": g}}),
           "model parameter 'g'") for g in (float("nan"), float("inf"), -float("inf"), True)],
        ("solve", dict(TFIM_CFG, model={"builder": "tfim_chain", "params": {"n": True, "g": 1.0}}),
         "model parameter 'n'"),
        ("oracle", {"model": TFIM_CFG["model"],
                    "overlap_table": {"parameter": "g", "g_values": [True, float("nan")]}},
         "model parameter 'g'"),
    ])
    def test_number_is_a_bool_or_not_finite(self, runner, tmp_path, command, cfg, field):
        # json reads true as a bool and Infinity as inf; neither is a number here.
        path = write_config(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, [command, "--config", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert field in result.output
        assert not (tmp_path / "out").exists()

    def test_model_emit_rejects_a_non_finite_parameter(self, runner, tmp_path):
        out = tmp_path / "model.json"
        result = runner.invoke(main, ["model", "emit", "--builder", "tfim_chain",
                                      "--n", "2", "--g", "nan", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "model parameter 'g'" in result.output
        assert not out.exists()

    def test_max_retries_is_an_unknown_key(self, runner, tmp_path):
        # extraction retries a fixed number of times (symmetry.MAX_RETRIES)
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "xxz_dephasing", "params": {"n": 2, "delta": 1.0}},
            "symmetry": {"use": "exchange-parity", "max_retries": 2},
        })
        result = runner.invoke(main, ["symmetry", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "unknown config key 'max_retries' in section 'symmetry'" in result.output
        assert not (tmp_path / "out").exists()

    def test_sweep_values_not_a_list(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "tfim_chain", "params": {"n": 2, "g": 0.0}},
            "sweep": {"parameter": "g", "values": 5},
        })
        result = runner.invoke(main, ["sweep", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "list" in result.output

    @pytest.mark.parametrize("solver, field", [
        ({"feas_tol": 0}, "feas_tol"),
        ({"initial": "bogus"}, "initial"),
        ({"mode": "bogus"}, "mode"),
        ({"max_iter": "ten"}, "max_iter"),
        ({"max_iter": -3}, "max_iter"),
        ({"max_iter": 0}, "max_iter"),
        ({"initial": "random", "rng_seed": -1}, "rng_seed"),
        ({"feas_tol": float("inf")}, "feas_tol"),
        ({"feas_tol": float("nan")}, "feas_tol"),
    ])
    def test_invalid_solver_option(self, runner, tmp_path, solver, field):
        cfg = write_config(tmp_path / "cfg.json", dict(TFIM_CFG, solver=solver))
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert field in result.output

    @pytest.mark.parametrize("command, cfg, key, where", [
        ("solve", dict(TFIM_CFG, shot=100), "shot", "at the top level"),
        # removed: verification always runs
        ("solve", dict(TFIM_CFG, oracle={"enabled": False}), "oracle", "at the top level"),
        ("solve", dict(TFIM_CFG, model=dict(TFIM_CFG["model"], parms={"g": 0.5})),
         "parms", "in section 'model'"),
        ("solve", dict(TFIM_CFG, ansatz={"seed": "bits:11", "k": 2}), "k",
         "in section 'ansatz'"),
        ("solve", dict(TFIM_CFG, solver={"tolerance": 1e-9}), "tolerance",
         "bad solver options"),
        ("solve", {"model": {"builder": "xxz_dephasing", "params": {"n": 2, "delta": 1.0}},
                   "ansatz": {"seed": "sector-basis:0"},
                   "constraints": [{"generator": "magnetization", "target": 0.0,
                                    "weight": 1.0}]},
         "weight", "in constraints[0]"),
        ("sweep", {"model": TFIM_CFG["model"],
                   "sweep": {"parameter": "g", "values": [1.0], "workers": 2}},
         "workers", "in section 'sweep'"),
        ("sweep", {"model": TFIM_CFG["model"],
                   "sweep": {"parameter": "g", "values": [1.0],
                             "ansatz_grid": [{"K": 2}, {"K": 2, "order": 3}]}},
         "order", "in sweep.ansatz_grid[1]"),
        ("oracle", {"model": TFIM_CFG["model"],
                    "overlap_table": {"g_values": [0.5], "values": [1.0]}},
         "values", "in section 'overlap_table'"),
        ("symmetry", {"model": {"builder": "xxz_dephasing", "params": {"n": 2, "delta": 1.0}},
                      "symmetry": {"uses": "magnetization"}},
         "uses", "in section 'symmetry'"),
    ])
    def test_unknown_key(self, runner, tmp_path, command, cfg, key, where):
        # A key no code reads was silently ignored: "k" solved with K=0.
        path = write_config(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, [command, "--config", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert repr(key) in result.output and where in result.output

    @pytest.mark.parametrize("key", ["psd_tol", "whiten_cutoff", "cg_tol_factor",
                                     "cg_max_iter", "stall_window", "stall_improvement",
                                     "ls_max_iter", "ls_grad_tol", "ls_penalty", "mode"])
    def test_removed_solver_option(self, runner, tmp_path, key):
        # Tolerances and budgets are sdp module constants, not config keys,
        # and the mode follows "shots".
        cfg = write_config(tmp_path / "cfg.json", dict(TFIM_CFG, solver={key: 1}))
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "bad solver options" in result.output and key in result.output

    @pytest.mark.parametrize("command, section", [
        ("ansatz", {"ansatz": {"seed": "sector-basis:1", "K": 3, "q": 2, "rng_seed": 7}}),
        ("sweep", {"ansatz": {"seed": "sector-basis:1"},
                   "sweep": {"parameter": "g", "values": [0.5],
                             "ansatz_grid": [{"K": 1}, {"K": 2}]}}),
    ])
    def test_sector_basis_seed_takes_no_growth_keys(self, runner, tmp_path, command, section):
        # A sector basis spans its sector whatever K, q and rng_seed say, so
        # the keys would go unread and a grid over K would repeat one row.
        model = {"builder": "tfim_chain", "params": {"n": 3, "g": 0.5}}
        cfg = write_config(tmp_path / "cfg.json", dict(section, model=model))
        args = ["ansatz", "generate", "--config", cfg, "--out", str(tmp_path / "a.json")]
        if command == "sweep":
            args = ["sweep", "--config", cfg, "--out", str(tmp_path / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        unread = [key for key in ("'K'", "'q'", "'rng_seed'") if key in result.output]
        assert unread == (["'K'", "'q'", "'rng_seed'"] if command == "ansatz" else ["'K'"])

    @pytest.mark.parametrize("command, section", [
        ("ansatz", {"ansatz": {"seed": "bits:111", "K": 2, "rng_seed": 5}}),
        ("sweep", {"ansatz": {"seed": "bits:111", "K": 2},
                   "sweep": {"parameter": "g", "values": [0.5],
                             "ansatz_grid": [{"rng_seed": 5}, {"rng_seed": 6}]}}),
    ])
    def test_rng_seed_without_q(self, runner, tmp_path, command, section):
        # rng_seed seeds only the random subset: without q it would go
        # unread, and a grid over it would repeat one row.
        model = {"builder": "tfim_chain", "params": {"n": 3, "g": 0.5}}
        cfg = write_config(tmp_path / "cfg.json", dict(section, model=model))
        args = ["ansatz", "generate", "--config", cfg, "--out", str(tmp_path / "a.json")]
        if command == "sweep":
            args = ["sweep", "--config", cfg, "--out", str(tmp_path / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "'rng_seed'" in result.output and "'q'" in result.output

    @pytest.mark.parametrize("seed", ["sector-basis:1", "sector-basis:one"])
    def test_sector_basis_seed(self, runner, tmp_path, seed):
        # m = 1 is an empty sector for 2 qubits; "one" is not an integer.
        cfg = write_config(tmp_path / "cfg.json", dict(TFIM_CFG, ansatz={"seed": seed}))
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert ("empty" if seed.endswith("1") else "magnetization") in result.output

    @pytest.mark.parametrize("extra, field", [
        ({"ansatz": {"seed": "bits:1", "K": 2}}, "need 2 bits"),
        ({"model": {"builder": "tfim_chain", "params": {"n": 2, "g": "x"}}},
         "bad model parameters"),
        ({"constraints": [{"observable": "x", "target": 0}]}, "constraint observable"),
    ])
    def test_solve_value_of_the_wrong_kind(self, runner, tmp_path, extra, field):
        cfg = write_config(tmp_path / "cfg.json", dict(TFIM_CFG, **extra))
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert field in result.output

    @pytest.mark.parametrize("command, section, value", [
        ("symmetry", "symmetry", "magnetization"),
        ("solve", "ansatz", "x"),
        ("solve", "model", 3),
        ("solve", "solver", "x"),
        ("sweep", "sweep", 5),
        ("oracle", "overlap_table", [0.5]),
    ])
    def test_section_not_an_object(self, runner, tmp_path, command, section, value):
        model = ({"builder": "xxz_dephasing", "params": {"n": 2, "delta": 1.0}}
                 if command == "symmetry" else TFIM_CFG["model"])
        cfg = write_config(tmp_path / "cfg.json", {"model": model, section: value})
        result = runner.invoke(main, [command, "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"config section {section!r} must be a JSON object" in result.output

    @pytest.mark.parametrize("command, cfg, field", [
        ("solve", [TFIM_CFG], "JSON object"),
        ("solve", dict(TFIM_CFG, ansatz={"seed": 3}), "ansatz.seed"),
        ("solve", dict(TFIM_CFG, constraints="magnetization"), "constraints"),
        ("sweep", {"model": TFIM_CFG["model"],
                   "sweep": {"parameter": "g", "values": [0.5], "ansatz_grid": 5}},
         "ansatz_grid"),
        ("oracle", {"model": TFIM_CFG["model"], "overlap_table": {"g_values": 0.5}},
         "g_values"),
    ])
    def test_entry_of_the_wrong_type(self, runner, tmp_path, command, cfg, field):
        path = write_config(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, [command, "--config", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert field in result.output


def test_report_writer_matches_json_dump():
    obj = {
        "a": {"b": [], "c": {}, "d": [[1.5, -0.0], [np.float64(2.25), float("nan")]]},
        "tuple": (1, (2.0, None), [True, False]),
        "rows": [{"x": np.float64(1e-300), "y": [np.int64(3), np.bool_(True)]}, []],
        "flat": [float("inf"), float("-inf"), "s\u00e9\"q"],
        "none": None,
        "empty": [],
        "scalar": np.float64(0.1),
        "matrix": _matrix_obj(np.array([[0.0, 1.5 - 2j, 3.0], [0.0, 0.0, 0.0], [-0.0, 1e-17j, 7.0]])),
        "mixed": [{"re": [[0, -0.0, 2]]}, [0, 1, np.float64(2.5)], [[0, 0], [1.0, -0.0]],
                  ({"x": [0, 1]}, [np.int64(4)]), 5, [], {}, [3, {"k": np.int64(1)}, [2]]],
        3: "int key",
        1.5: "float key",
        True: "bool key",
        None: "none key",
    }
    zero_row = obj["matrix"]["re"][1]
    obj["matrix"]["re"].append(zero_row)  # rows shared, as _matrix_obj shares its zero rows
    obj["matrix"]["im"].append([np.int64(3), -0.0, 0])
    expect, got = io.StringIO(), io.StringIO()
    json.dump(obj, expect, default=float)
    _dump_json(obj, got)
    assert got.getvalue() == expect.getvalue()


def test_readme_documents_the_config_schema():
    """The README's config block parses once its // comments are stripped
    and lists exactly the keys each section accepts."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    cfg = json.loads(re.sub(r"//.*", "", block))
    documented = {"": set(cfg), "constraints": set().union(*cfg["constraints"])}
    for name in ("model", "ansatz", "sweep", "overlap_table", "symmetry"):
        documented[name] = set(cfg[name])
    assert documented == {name: set(keys) for name, keys in _CONFIG_KEYS.items()}
    assert set().union(*cfg["sweep"]["ansatz_grid"]) == set(_CONFIG_KEYS["ansatz"])
    assert set(cfg["solver"]) == {f.name for f in fields(SolverOptions)}


def test_readme_quickstart_runs(capsys):
    """The README's API quickstart runs as written and prints a verified solve."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Quickstart (API)", 1)[1]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})
    residual, fidelity, true_residual = map(float, capsys.readouterr().out.split())
    assert residual <= 1e-8 and fidelity >= 0.999 and true_residual <= 1e-8
