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
COMMUTATION_TOL = 1e-10  # SymmetrySpec.validate, relative to ||op||_F (at least 1)

# The keys of a model file's ``symmetries`` entry; the first three are required.
SYMMETRY_KEYS = ("permutation", "flip", "phase", "generator", "label")


def _frobenius(op: PauliSum) -> float:
    """||op||_F from the coefficients: Pauli words are orthogonal, each of norm 2^(n/2)."""
    return math.sqrt(2 ** op.n_qubits * sum(abs(c) ** 2 for c, _ in op.terms))


@dataclass(frozen=True)
class SymmetrySpec:
    """A strong symmetry U of a model, held as the signed permutation it is:
    U|b> = exp(i phase m(c)) |c>, with c = pi(b) xor flip and
    m(c) = sum_j (-1)^(c_j).

    Under pi, site j's bit moves to site ``permutation[j-1]`` (1-based);
    ``flip`` is a bitstring, site 1 leftmost. ``generator`` is an optional
    Hermitian operator conserved with U. The distinct ``eigenvalues`` are
    cached, ordered by phase angle in (-pi, pi], so -1 comes last.
    Malformed fields raise ConfigError.
    """

    permutation: tuple[int, ...]
    flip: str
    phase: float
    generator: PauliSum | None = None
    label: str = ""

    def __post_init__(self):
        perm, n = self.permutation, len(self.permutation)
        if not (n and all(type(s) is int for s in perm) and sorted(perm) == list(range(1, n + 1))):
            raise ConfigError(f"symmetry permutation must list the sites 1..n once each, got {perm!r}")
        if not (isinstance(self.flip, str) and len(self.flip) == n and set(self.flip) <= set("01")):
            raise ConfigError(f"symmetry flip must be a bitstring of {n} sites, got {self.flip!r}")
        if (isinstance(self.phase, bool) or not isinstance(self.phase, (int, float))
                or not math.isfinite(self.phase)):
            raise ConfigError(f"symmetry phase must be a finite number, got {self.phase!r}")
        if self.generator is not None and self.generator.n_qubits != n:
            raise ConfigError(f"symmetry generator must act on {n} qubits")
        object.__setattr__(self, "permutation", tuple(perm))
        object.__setattr__(self, "phase", float(self.phase))

    @property
    def n_qubits(self) -> int:
        return len(self.permutation)

    @functools.cached_property
    def _action(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c, m(c), w) with U|b> = w[b] |c[b]> for every basis index b
        (site 1 = most significant bit)."""
        n, idx = self.n_qubits, np.arange(2 ** self.n_qubits)
        moved = sum(((idx >> (n - 1 - j)) & 1) << (n - site) for j, site in enumerate(self.permutation))
        targets = moved ^ int(self.flip, 2)
        mags = n - 2 * np.bitwise_count(targets).astype(np.int64)
        return targets, mags, np.exp(1j * self.phase * mags)

    def apply(self, columns: np.ndarray) -> np.ndarray:
        """U applied to every column of a (2^n, m) array: a row scatter with phases."""
        targets, _, phases = self._action
        out = np.empty(columns.shape, dtype=complex)
        out[targets] = phases[:, None] * columns
        return out

    @functools.cached_property
    def eigenvalues(self) -> tuple[complex, ...]:
        """The l-th roots of exp(i phase M) for each cycle b -> c -> ... -> b
        of length l and magnetization sum M, merged within EIGENVALUE_TOL of angle."""
        targets, mags, _ = self._action
        idx = np.arange(len(targets))
        length, mag_sum, current, step = np.zeros_like(idx), np.zeros_like(idx), idx, 0
        while not length.all():
            step += 1
            open_ = length == 0
            mag_sum[open_] += mags[current[open_]]
            current = targets[current]
            length[open_ & (current == idx)] = step
        pairs = np.stack([length, mag_sum])[:, np.lexsort((mag_sum, length))]
        keep = np.append(True, (pairs[:, 1:] != pairs[:, :-1]).any(axis=0))
        vals = []
        for order, total in pairs[:, keep].T:  # np.unique(axis=1) would import numpy.ma
            roots = np.exp(2j * np.pi * np.arange(order) / order)
            if order % 2 == 0:
                roots[order // 2] = -1.0  # exp(i pi) is -1 + 1.2e-16i; a real U's stay real
            vals.append(np.exp(1j * self.phase * total / order) * roots)
        vals = np.concatenate(vals)
        angles = np.angle(vals)
        angles[angles <= EIGENVALUE_TOL - math.pi] += 2 * math.pi
        order = np.argsort(angles)
        groups = np.split(vals[order], np.flatnonzero(np.diff(angles[order]) > EIGENVALUE_TOL) + 1)
        return tuple(complex(g.mean() / abs(g.mean())) for g in groups)

    @property
    def n_sectors(self) -> int:
        return len(self.eigenvalues)

    def _conjugation_defect(self, op: PauliSum) -> float:
        """||U op U^dag - op||_F from op's flip table (p, a_p): U moves mask p
        to pi(p) = c[p] ^ c[0], with weight w[r] a_p[r] conj(w[r ^ p]) at row c[r]."""
        targets, _, phases = self._action
        table = dict(op.flip_weights())
        hit, squared = set(), 0.0
        for p, weights in table.items():
            q = int(targets[p] ^ targets[0])
            hit.add(q)
            moved = np.empty(len(targets), dtype=complex)
            moved[targets] = phases * weights * phases[np.arange(len(targets)) ^ p].conj()
            diff = moved - table.get(q, 0)
            squared += np.vdot(diff, diff).real
        return math.sqrt(squared + sum(np.vdot(a, a).real for q, a in table.items() if q not in hit))

    def validate(self, model: "OpenSystemModel") -> list[str]:
        """U and the generator commuting with H and every jump, to
        ``COMMUTATION_TOL`` times the operator's Frobenius norm (at least 1):
        U on the operator's flip table, the generator in Pauli algebra."""
        if self.n_qubits != model.n_qubits:
            return [f"U acts on {self.n_qubits} qubits, the model on {model.n_qubits}"]
        gen = self.generator
        violations = [] if gen is None or gen.is_hermitian() else ["generator is not Hermitian"]
        ops = [("H", model.hamiltonian)] + [
            (f"jump operator {k}", jump) for k, jump in enumerate(model.jumps)]
        for name, op in ops:
            bound = COMMUTATION_TOL * max(1.0, _frobenius(op))
            if self._conjugation_defect(op) > bound:
                violations.append(f"U does not commute with {name}")
            if gen is not None and _frobenius(gen * op - op * gen) > bound:
                violations.append(f"generator does not commute with {name}")
        return violations

    def to_obj(self) -> dict:
        obj = {"label": self.label, "permutation": list(self.permutation),
               "flip": self.flip, "phase": self.phase}
        if self.generator is not None:
            obj["generator"] = pauli_sum_to_obj(self.generator)
        return obj

    @classmethod
    def from_obj(cls, obj: dict, n_qubits: int) -> "SymmetrySpec":
        """A ``symmetries`` entry; a missing required key or any key outside
        SYMMETRY_KEYS is a ConfigError that names it."""
        unknown = [key for key in obj if key not in SYMMETRY_KEYS]
        missing = [key for key in SYMMETRY_KEYS[:3] if key not in obj]
        if unknown or missing:
            raise ConfigError(f"symmetry entry: unknown keys {unknown}, missing keys {missing}; "
                              f"allowed: {', '.join(SYMMETRY_KEYS)}")
        generator = obj.get("generator")
        return cls(obj["permutation"], obj["flip"], obj["phase"],
                   None if generator is None else pauli_sum_from_obj(generator, n_qubits),
                   obj.get("label", ""))


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


def magnetization_symmetry(n: int, phi: float | None = None) -> SymmetrySpec:
    """U = exp(i phi M), generator M; sectors m = -n, -n+2, ..., n in that order.

    The default phi = 2 pi / (2n + 2) keeps all n+1 sector phases distinct.
    """
    if phi is None:
        phi = 2.0 * math.pi / (2 * n + 2)
    return SymmetrySpec(tuple(range(1, n + 1)), "0" * n, phi, magnetization(n), "magnetization")


def exchange_parity_symmetry(n: int) -> SymmetrySpec:
    """S = P * prod_j X_j with P the site-reversal permutation; sectors (+1, -1)."""
    return SymmetrySpec(tuple(range(n, 0, -1)), "1" * n, 0.0, label="exchange-parity")


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
    once the operators are well-formed; returns violations. No check is
    dense, so every qubit count is decided."""
    violations = []
    if not model.hamiltonian.is_hermitian():
        violations.append("hamiltonian is not Hermitian")
    if model.hamiltonian.n_qubits != model.n_qubits:
        violations.append("hamiltonian qubit count differs from model")
    for k, (rate, jump) in enumerate(model.dissipators):
        if rate < 0 or not math.isfinite(rate):  # rate < 0 is False for NaN
            kind = "negative" if rate < 0 else "non-finite"
            violations.append(f"dissipator {k} has {kind} rate {rate}")
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
    """A named builder's model; a bool, NaN or infinite parameter is a config error."""
    if name not in _BUILDERS:
        raise ConfigError(f"unknown model builder {name!r}; have {sorted(_BUILDERS)}")
    for key, value in params.items():
        if isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value)):
            raise ConfigError(f"model parameter {key!r} must be a finite number, got {value!r}")
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


def _finite_rate(value, k: int) -> float:
    rate = float(value)
    if not math.isfinite(rate):
        raise ConfigError(f"dissipator {k}: rate must be a finite number, got {value!r}")
    return rate


def model_from_obj(obj: dict) -> OpenSystemModel:
    try:
        n = int(obj["n_qubits"])
        ham = pauli_sum_from_obj(obj["hamiltonian"], n)
        dissipators = tuple((_finite_rate(d["rate"], k), pauli_sum_from_obj(d["operator"], n))
                            for k, d in enumerate(obj["dissipators"]))
        symmetries = tuple(SymmetrySpec.from_obj(s, n) for s in obj.get("symmetries", []))
    except ConfigError:
        raise
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
