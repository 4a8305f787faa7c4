"""Model builders, invariants, and serialization."""
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_exchange_parity, dense_sum
from ness_sdp import oracle
from ness_sdp.errors import ConfigError
from ness_sdp.models import (
    SYMMETRY_KEYS,
    OpenSystemModel,
    SymmetrySpec,
    build,
    load_model,
    magnetization,
    model_from_obj,
    model_to_obj,
    save_model,
    tfim_chain,
    validate,
    xxz_boundary_driven,
    xxz_dephasing,
)
from ness_sdp.pauli import PauliSum


class TestTfim:
    def test_two_qubit_counts(self):
        m = tfim_chain(2, 1.0)
        assert m.hamiltonian.n_terms == 3
        assert len(m.dissipators) == 4

    def test_five_qubit_counts(self):
        m = tfim_chain(5, 0.5)
        assert m.hamiltonian.n_terms == 9
        assert len(m.dissipators) == 10

    def test_g_zero_fixed_point_is_all_ones(self):
        for n in (2, 3):
            rho = oracle.exact_ness(tfim_chain(n, 0.0))
            expect = np.zeros(2 ** n)
            expect[-1] = 1.0
            assert np.allclose(np.diag(rho).real, expect, atol=1e-10)

    def test_requires_two_sites(self):
        with pytest.raises(ConfigError):
            tfim_chain(1, 1.0)

    def test_builders_pure(self):
        a, b = tfim_chain(3, 0.7, 1.3), tfim_chain(3, 0.7, 1.3)
        assert a.hamiltonian == b.hamiltonian
        assert a.dissipators == b.dissipators


class TestXxzDephasing:
    def test_counts(self):
        m = xxz_dephasing(4, 1.0)
        assert m.hamiltonian.n_terms == 9
        assert len(m.dissipators) == 4

    def test_magnetization_commutes(self):
        m = xxz_dephasing(4, 1.3)
        mag = magnetization(4)
        comm = mag * m.hamiltonian - m.hamiltonian * mag
        assert comm.n_terms == 0
        for _, jump in m.dissipators:
            comm = mag * jump - jump * mag
            assert comm.n_terms == 0

    def test_steady_degeneracy_at_least_n_plus_one(self):
        basis = oracle.steady_states(xxz_dephasing(3, 1.0))
        assert basis.dimension >= 4
        assert sum(basis.physical) >= 4


class TestBoundaryDriven:
    def test_jump_expansions(self):
        m = xxz_boundary_driven(4, 1.0, 1.0, 0.5)
        assert [jump.n_terms for jump in m.jumps] == [4, 4]

    def test_magnetization_commutes_with_jumps_dense(self):
        m = xxz_boundary_driven(3, 1.0, 1.0, 0.3)
        mag = dense_sum(magnetization(3))
        for _, jump in m.dissipators:
            a = dense_sum(jump)
            assert np.linalg.norm(mag @ a - a @ mag) < 1e-12

    def test_exchange_parity_commutes_dense(self):
        # S = P * prod X built locally from index arithmetic
        n = 4
        s = dense_exchange_parity(n)
        m = xxz_boundary_driven(n, 1.0, 1.0, 0.5)
        h = dense_sum(m.hamiltonian)
        assert np.linalg.norm(s @ h - h @ s) < 1e-12
        for _, jump in m.dissipators:
            a = dense_sum(jump)
            assert np.linalg.norm(s @ a - a @ s) < 1e-12

    def test_parameter_ranges(self):
        with pytest.raises(ConfigError):
            xxz_boundary_driven(4, 1.0, 0.0, 0.5)
        with pytest.raises(ConfigError):
            xxz_boundary_driven(4, 1.0, 1.0, 1.5)


class TestValidate:
    def test_valid_model_clean(self):
        assert validate(tfim_chain(2, 1.0)) == []

    def test_nonhermitian_hamiltonian_flagged(self):
        bad = OpenSystemModel(
            n_qubits=1,
            hamiltonian=PauliSum.from_label("Z", 1j),
            dissipators=((1.0, PauliSum.from_label("X")),),
        )
        assert any("Hermitian" in v for v in validate(bad))

    def test_negative_rate_flagged(self):
        bad = OpenSystemModel(
            n_qubits=1,
            hamiltonian=PauliSum.from_label("Z"),
            dissipators=((-0.5, PauliSum.from_label("X")),),
        )
        assert any("negative rate" in v for v in validate(bad))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_flagged(self, rate):
        # rate < 0 is False for NaN
        bad = OpenSystemModel(
            n_qubits=1,
            hamiltonian=PauliSum.from_label("Z"),
            dissipators=((rate, PauliSum.from_label("X")),),
        )
        assert validate(bad) == [f"dissipator 0 has non-finite rate {rate}"]

    def test_builder_outputs_validate(self):
        for model in (tfim_chain(3, 0.4), xxz_dephasing(3, 0.9),
                      xxz_boundary_driven(3, 1.0, 2.0, 0.1)):
            assert validate(model) == []


def test_json_roundtrip(tmp_path):
    m = xxz_boundary_driven(4, 1.0, 1.0, 0.5)
    path = tmp_path / "model.json"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.n_qubits == m.n_qubits
    assert loaded.hamiltonian == m.hamiltonian
    assert loaded.dissipators == m.dissipators
    assert len(loaded.symmetries) == len(m.symmetries)


def test_obj_roundtrip_preserves_symmetries():
    for m in (xxz_dephasing(3, 1.0), xxz_boundary_driven(4, 1.0, 1.0, 0.5)):
        again = model_from_obj(model_to_obj(m))
        assert again == m
        for a, b in zip(again.symmetries, m.symmetries):
            assert a.generator == b.generator
            assert (a.permutation, a.flip, a.phase) == (b.permutation, b.flip, b.phase)
            assert a.eigenvalues == b.eigenvalues


def test_saved_symmetries_are_small(tmp_path):
    # A symmetry is written as its permutation, flip and phase, not as 2^n terms.
    path = tmp_path / "model.json"
    save_model(xxz_boundary_driven(8, 1.0, 1.0, 0.5), path)
    assert path.stat().st_size < 10_000


@pytest.mark.parametrize("entry, key", [
    ({"flip": "00", "phase": 0.0}, "permutation"),
    ({"permutation": [1, 2], "phase": 0.0}, "flip"),
    ({"permutation": [1, 2], "flip": "00"}, "phase"),
    ({"permutation": [1, 2], "flip": "00", "phase": 0.0,
      "unitary": [{"coeff": [1.0, 0.0], "pauli": "II"}]}, "unitary"),
    ({"permutation": [1, 2], "flip": "00", "phase": 0.0, "sectors": 2}, "sectors"),
])
def test_symmetry_entry_keys(entry, key):
    obj = model_to_obj(tfim_chain(2, 1.0))
    obj["symmetries"] = [entry]
    with pytest.raises(ConfigError, match=repr(key)):
        model_from_obj(obj)


@pytest.mark.parametrize("fields", [
    {"permutation": ()},
    {"permutation": (1, 1)},
    {"permutation": (0, 1)},
    {"permutation": (1.0, 2.0)},
    {"permutation": (True, 2)},
    {"flip": "0"},
    {"flip": "012"},
    {"flip": 3},
    {"phase": float("nan")},
    {"phase": "0.5"},
    {"phase": True},
    {"generator": magnetization(3)},
])
def test_malformed_symmetry_fields_rejected(fields):
    with pytest.raises(ConfigError):
        SymmetrySpec(**{"permutation": (1, 2), "flip": "00", "phase": 0.0, **fields})


def test_malformed_symmetry_flip_in_file():
    obj = model_to_obj(xxz_dephasing(2, 1.0))
    for flip in ("0", "012", 3):
        obj["symmetries"][0]["flip"] = flip
        with pytest.raises(ConfigError, match="flip"):
            model_from_obj(obj)


def test_readme_model_file_names_the_symmetry_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Model files", 1)[1].split("\n## ", 1)[0]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    assert [set(entry) for entry in example["symmetries"]] == [set(SYMMETRY_KEYS)]
    assert model_from_obj(example) == xxz_dephasing(2, 1.0)
    assert set(re.findall(r"^- `(\w+)`", section, re.M)) == set(SYMMETRY_KEYS)
    assert "unitary" not in section


def test_declared_symmetries():
    assert [s.label for s in xxz_dephasing(3, 1.0).symmetries] == ["magnetization"]
    model = xxz_boundary_driven(4, 1.0, 1.0, 0.5)
    assert [s.label for s in model.symmetries] == ["exchange-parity", "magnetization"]
    assert tfim_chain(3, 0.5).symmetries == ()


def test_load_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_model(bad)


def test_build_by_name():
    m = build("tfim_chain", n=2, g=1.0)
    assert m.n_qubits == 2
    with pytest.raises(ConfigError):
        build("unknown_builder")
