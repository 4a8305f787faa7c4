"""Open-system model container and builders for the benchmark families.

A model is a Hermitian Hamiltonian plus a list of (rate, jump operator)
dissipators, all as Pauli sums. Builders are pure: identical parameters
give identical canonical Pauli sums.

Model files are JSON with Pauli words serialized as uppercase strings
and complex coefficients as [re, im] pairs; see ``model_to_obj``.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pauli import (
    PauliSum,
    pauli_sum_from_obj,
    pauli_sum_to_obj,
    sigma_minus,
    sigma_plus,
    single_site,
    two_site,
)


EIGENVALUE_TOL = 1e-8


@dataclass(frozen=True)
class SymmetrySpec:
    """A strong symmetry U of a model, stored as U's Pauli expansion.

    ``generator`` is an optional Hermitian operator conserved with U;
    ``validate`` checks that it commutes with H and every jump. The dense
    ``unitary`` is expanded on each use and not kept (DenseLimitError above
    ``pauli.DEFAULT_DENSE_LIMIT`` qubits); its distinct ``eigenvalues`` are
    derived on first use and cached, ordered by phase angle in (-pi, pi],
    so they are distinct by construction and -1 comes last.
    """

    pauli_expansion: PauliSum
    generator: PauliSum | None = None
    label: str = ""

    @property
    def unitary(self) -> np.ndarray:
        return self.pauli_expansion.to_dense()

    @functools.cached_property
    def eigenvalues(self) -> tuple[complex, ...]:
        vals = np.linalg.eigvals(self.unitary)
        angles = np.angle(vals)
        angles[angles <= EIGENVALUE_TOL - math.pi] += 2 * math.pi
        order = np.argsort(angles)
        groups = np.split(vals[order], np.flatnonzero(np.diff(angles[order]) > EIGENVALUE_TOL) + 1)
        return tuple(complex(g.mean() / abs(g.mean())) for g in groups)

    @property
    def n_sectors(self) -> int:
        return len(self.eigenvalues)

    def validate(self, model: "OpenSystemModel", tol: float = 1e-10) -> list[str]:
        """Unitarity of U, and U and the generator commuting with H and every jump."""
        if self.pauli_expansion.n_qubits != model.n_qubits:
            return [f"U acts on {self.pauli_expansion.n_qubits} qubits, "
                    f"the model on {model.n_qubits}"]
        violations = []
        u = self.unitary
        dim = u.shape[0]
        if np.linalg.norm(u @ u.conj().T - np.eye(dim)) > tol * dim:
            violations.append("U is not unitary")
        ops = [("H", model.hamiltonian)] + [
            (f"jump operator {k}", jump) for k, jump in enumerate(model.jumps)]
        conserved = [("U", u)]
        if self.generator is not None:
            if not self.generator.is_hermitian():
                violations.append("generator is not Hermitian")
            conserved.append(("generator", self.generator.to_dense()))
        for name, op in ops:
            a = op.to_dense()
            for sym_name, s in conserved:
                if np.linalg.norm(s @ a - a @ s) > tol * max(1.0, np.linalg.norm(a)):
                    violations.append(f"{sym_name} does not commute with {name}")
        return violations

    def power_pauli(self, k: int) -> PauliSum:
        """Pauli expansion of U^k (U^dag for negative k)."""
        out = PauliSum.identity(self.pauli_expansion.n_qubits)
        base = self.pauli_expansion if k >= 0 else self.pauli_expansion.dagger()
        for _ in range(abs(k)):
            out = out * base
        return out

    def to_obj(self) -> dict:
        obj = {"label": self.label, "unitary": pauli_sum_to_obj(self.pauli_expansion)}
        if self.generator is not None:
            obj["generator"] = pauli_sum_to_obj(self.generator)
        return obj

    @classmethod
    def from_obj(cls, obj: dict, n_qubits: int) -> "SymmetrySpec":
        generator = obj.get("generator")
        return cls(
            pauli_expansion=pauli_sum_from_obj(obj["unitary"], n_qubits),
            generator=None if generator is None else pauli_sum_from_obj(generator, n_qubits),
            label=obj.get("label", ""),
        )


@dataclass(frozen=True)
class OpenSystemModel:
    n_qubits: int
    hamiltonian: PauliSum
    dissipators: tuple[tuple[float, PauliSum], ...]
    label: str = ""
    symmetries: tuple[SymmetrySpec, ...] = ()

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(rate for rate, _ in self.dissipators)

    @property
    def jumps(self) -> tuple[PauliSum, ...]:
        return tuple(jump for _, jump in self.dissipators)


def tfim_chain(n: int, g: float, gamma: float = 1.0) -> OpenSystemModel:
    """Transverse-field Ising chain with per-site dephasing and damping.

    H = (1/2) sum_j Z_j Z_{j+1} + g sum_j X_j on an open chain; each
    site carries jumps Z_j and (1/2)(X_j - i Y_j), all at rate gamma.
    """
    if n < 2:
        raise ConfigError("tfim_chain needs n >= 2")
    h = PauliSum.zero(n)
    for j in range(1, n):
        h = h + two_site(n, j, "Z", j + 1, "Z", 0.5)
    for j in range(1, n + 1):
        h = h + single_site(n, j, "X", g)
    dissipators = []
    for j in range(1, n + 1):
        dissipators.append((gamma, single_site(n, j, "Z")))
        dissipators.append((gamma, sigma_minus(n, j)))
    return OpenSystemModel(
        n_qubits=n,
        hamiltonian=h,
        dissipators=tuple(dissipators),
        label=f"tfim_chain(n={n}, g={g}, gamma={gamma})",
    )


def _xxz_hamiltonian(n: int, delta: float) -> PauliSum:
    h = PauliSum.zero(n)
    for j in range(1, n):
        h = h + two_site(n, j, "X", j + 1, "X")
        h = h + two_site(n, j, "Y", j + 1, "Y")
        h = h + two_site(n, j, "Z", j + 1, "Z", delta)
    return h


def magnetization(n: int) -> PauliSum:
    """Total magnetization M = sum_j Z_j."""
    m = PauliSum.zero(n)
    for j in range(1, n + 1):
        m = m + single_site(n, j, "Z")
    return m


def z_rotation_pauli(n: int, phi: float) -> PauliSum:
    """Pauli expansion of exp(i phi sum_j Z_j) via the per-site product."""
    out = PauliSum.identity(n, math.cos(phi)) + single_site(n, 1, "Z", 1j * math.sin(phi))
    for j in range(2, n + 1):
        factor = PauliSum.identity(n, math.cos(phi)) + single_site(n, j, "Z", 1j * math.sin(phi))
        out = out * factor
    return out


def magnetization_symmetry(n: int, phi: float | None = None) -> SymmetrySpec:
    """U = exp(i phi M), generator M; sectors m = -n, -n+2, ..., n in that order.

    The default phi = 2 pi / (2n + 2) keeps all n+1 sector phases distinct.
    """
    if phi is None:
        phi = 2.0 * math.pi / (2 * n + 2)
    return SymmetrySpec(pauli_expansion=z_rotation_pauli(n, phi),
                        generator=magnetization(n), label="magnetization")


def _swap_pauli(n: int, a: int, b: int) -> PauliSum:
    """SWAP_{ab} = (1/2)(II + XX + YY + ZZ) on sites a, b."""
    out = PauliSum.identity(n, 0.5)
    for axis in "XYZ":
        out = out + two_site(n, a, axis, b, axis, 0.5)
    return out


def exchange_parity_symmetry(n: int) -> SymmetrySpec:
    """S = P * prod_j X_j with P the site-reversal permutation; sectors (+1, -1)."""
    expansion = PauliSum.from_label("X" * n)
    for j in range(n // 2, 0, -1):
        expansion = _swap_pauli(n, j, n + 1 - j) * expansion
    return SymmetrySpec(pauli_expansion=expansion, label="exchange-parity")


def xxz_dephasing(n: int, delta: float, gamma: float = 1.0) -> OpenSystemModel:
    """XXZ Heisenberg chain with per-site Z dephasing.

    Total magnetization is a strong symmetry, so there are n+1
    magnetization blocks each with its own steady state.
    """
    if n < 2:
        raise ConfigError("xxz_dephasing needs n >= 2")
    dissipators = tuple((gamma, single_site(n, j, "Z")) for j in range(1, n + 1))
    return OpenSystemModel(
        n_qubits=n,
        hamiltonian=_xxz_hamiltonian(n, delta),
        dissipators=dissipators,
        label=f"xxz_dephasing(n={n}, delta={delta}, gamma={gamma})",
        symmetries=(magnetization_symmetry(n),),
    )


def xxz_boundary_driven(n: int, delta: float, drive: float, mu: float) -> OpenSystemModel:
    """XXZ chain driven by two non-local boundary jumps.

    The jumps are sqrt(drive*(1-mu)) sigma+_1 sigma-_n and
    sqrt(drive*(1+mu)) sigma-_1 sigma+_n, each expanding to four Pauli
    terms. Both the exchange-parity operator S = P * prod_j X_j and
    magnetization are strong symmetries, declared in that order.
    """
    if n < 2:
        raise ConfigError("xxz_boundary_driven needs n >= 2")
    if drive <= 0:
        raise ConfigError("drive strength must be > 0")
    if not 0.0 <= mu <= 1.0:
        raise ConfigError("mu must lie in [0, 1]")
    jump_1 = math.sqrt(drive * (1.0 - mu)) * (sigma_plus(n, 1) * sigma_minus(n, n))
    jump_2 = math.sqrt(drive * (1.0 + mu)) * (sigma_minus(n, 1) * sigma_plus(n, n))
    dissipators = tuple((1.0, j) for j in (jump_1, jump_2) if j.n_terms)
    return OpenSystemModel(
        n_qubits=n,
        hamiltonian=_xxz_hamiltonian(n, delta),
        dissipators=dissipators,
        label=f"xxz_boundary_driven(n={n}, delta={delta}, drive={drive}, mu={mu})",
        symmetries=(exchange_parity_symmetry(n), magnetization_symmetry(n)),
    )


def validate(model: OpenSystemModel) -> list[str]:
    """Structural diagnostics, then each declared symmetry's ``validate``
    once the operators are well-formed; returns violations. The symmetry
    checks are dense: DenseLimitError above ``pauli.DEFAULT_DENSE_LIMIT`` qubits."""
    violations = []
    if not model.hamiltonian.is_hermitian():
        violations.append("hamiltonian is not Hermitian")
    if model.hamiltonian.n_qubits != model.n_qubits:
        violations.append("hamiltonian qubit count differs from model")
    for k, (rate, jump) in enumerate(model.dissipators):
        if rate < 0:
            violations.append(f"dissipator {k} has negative rate {rate}")
        if jump.n_qubits != model.n_qubits:
            violations.append(f"dissipator {k} qubit count differs from model")
    if not violations:
        for spec in model.symmetries:
            violations += [f"symmetry {spec.label!r}: {v}" for v in spec.validate(model)]
    return violations


_BUILDERS = {
    "tfim_chain": tfim_chain,
    "xxz_dephasing": xxz_dephasing,
    "xxz_boundary_driven": xxz_boundary_driven,
}


def build(name: str, **params) -> OpenSystemModel:
    if name not in _BUILDERS:
        raise ConfigError(f"unknown model builder {name!r}; have {sorted(_BUILDERS)}")
    return _BUILDERS[name](**params)


def model_to_obj(model: OpenSystemModel) -> dict:
    obj = {
        "label": model.label,
        "n_qubits": model.n_qubits,
        "hamiltonian": pauli_sum_to_obj(model.hamiltonian),
        "dissipators": [
            {"rate": rate, "operator": pauli_sum_to_obj(jump)}
            for rate, jump in model.dissipators
        ],
    }
    if model.symmetries:
        obj["symmetries"] = [spec.to_obj() for spec in model.symmetries]
    return obj


def model_from_obj(obj: dict) -> OpenSystemModel:
    try:
        n = int(obj["n_qubits"])
        ham = pauli_sum_from_obj(obj["hamiltonian"], n)
        dissipators = tuple(
            (float(d["rate"]), pauli_sum_from_obj(d["operator"], n))
            for d in obj["dissipators"]
        )
        symmetries = tuple(SymmetrySpec.from_obj(s, n) for s in obj.get("symmetries", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed model object: {exc!r}") from exc
    return OpenSystemModel(
        n_qubits=n,
        hamiltonian=ham,
        dissipators=dissipators,
        label=obj.get("label", ""),
        symmetries=symmetries,
    )


def save_model(model: OpenSystemModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_obj(model), fh, indent=2)


def load_model(path) -> OpenSystemModel:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"model file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"model file is not valid JSON: {path}") from exc
    return model_from_obj(obj)
