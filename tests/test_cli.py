"""Command-line driver: reports, exit codes, reproducibility."""
import json

import pytest
from click.testing import CliRunner

from ness_sdp.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


TFIM_CFG = {
    "model": {"builder": "tfim_chain", "params": {"n": 2, "g": 1.0, "gamma": 1.0}},
    "ansatz": {"seed": "bits:11", "K": 2},
    "oracle": {"enabled": True},
}


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
        assert report["ansatz"]["seed_descriptor"] == "bits:11"

    def test_shots_switch_to_least_squares(self, runner, tmp_path):
        cfg_obj = dict(TFIM_CFG, shots=10 ** 6, noise_rng_seed=1)
        cfg = write_config(tmp_path / "cfg.json", cfg_obj)
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert report["noisy_mode"] is True
        assert report["diagnostics"]["mode"] == "least-squares"
        assert report["diagnostics"]["stop_reason"] in ("grad-map", "stall")
        assert report["shots"] == 10 ** 6

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
            "oracle": {"enabled": True},
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
            "oracle": {"enabled": True},
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
            "oracle": {"enabled": True},
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
        for s in found:
            assert s["residual"] <= 1e-7
        assert report["symmetry"] == "exchange-parity"
        assert [s["eigenvalue"][0] for s in report["sectors"]] == pytest.approx([1.0, -1.0])

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
    "symmetries": [{"label": "z1",
                    "unitary": [{"coeff": [1.0, 0.0], "pauli": "II"}],
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
        assert "unitary" in result.output

    def test_ansatz_generate_and_inspect(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", TFIM_CFG)
        record = tmp_path / "ansatz.json"
        result = runner.invoke(main, ["ansatz", "generate", "--config", cfg,
                                      "--out", str(record)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["ansatz", "inspect", str(record)])
        assert result.exit_code == 0
        assert "states:          4" in result.output


class TestMalformedConfigs:
    """Each malformed input exits 2 with a message, not 1 with a traceback."""

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
    ])
    def test_solve_integer_not_an_integer(self, runner, tmp_path, extra, field):
        cfg = write_config(tmp_path / "cfg.json", dict(TFIM_CFG, **extra))
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert field in result.output

    def test_max_retries_not_an_integer(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "model": {"builder": "xxz_dephasing", "params": {"n": 2, "delta": 1.0}},
            "symmetry": {"max_retries": "twice"},
        })
        result = runner.invoke(main, ["symmetry", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "symmetry.max_retries" in result.output

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
    ])
    def test_invalid_solver_option(self, runner, tmp_path, solver, field):
        cfg = write_config(tmp_path / "cfg.json", dict(TFIM_CFG, solver=solver))
        result = runner.invoke(main, ["solve", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert field in result.output

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
        ("solve", "oracle", 3),
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
