"""Exact algebra for tensored Pauli operators and complex linear combinations.

Conventions used throughout the package:

* A Pauli word is an uppercase string over {I, X, Y, Z}; the leftmost
  character acts on site 1.
* The computational basis is ordered so that sigma_Z |0> = +|0>, and the
  basis index of a bitstring reads site 1 as its most significant bit.
* Coefficients below 1e-14 in magnitude are dropped during
  canonicalization, so canonical forms stay finite under cancellation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DenseLimitError, DimensionMismatchError

COEFF_EPS = 1e-14
HERMITIAN_TOL = 1e-12
DEFAULT_DENSE_LIMIT = 12

PAULI_CHARS = "IXYZ"

# Single-qubit multiplication table: (a, b) -> (phase, a*b).
_MUL_1Q = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("Y", "I"): (1, "Y"), ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"), ("Y", "Y"): (1, "I"), ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "Z"): (1j, "X"), ("Z", "X"): (1j, "Y"),
    ("Y", "X"): (-1j, "Z"), ("Z", "Y"): (-1j, "X"), ("X", "Z"): (-1j, "Y"),
}


@lru_cache(maxsize=4096)
def string_masks(codes: str) -> tuple[int, int, complex]:
    """(x_mask, z_mask, prefactor) with P|b> = pre * (-1)^popcount(b & z) |b ^ x>."""
    n = len(codes)
    x_mask = 0
    z_mask = 0
    n_y = 0
    for site, ch in enumerate(codes):
        bit = 1 << (n - 1 - site)  # site 1 = most significant bit
        if ch in ("X", "Y"):
            x_mask |= bit
        if ch in ("Z", "Y"):
            z_mask |= bit
        if ch == "Y":
            n_y += 1
    return x_mask, z_mask, 1j ** n_y


@dataclass(frozen=True)
class PauliString:
    """A tensored Pauli word, e.g. "XIZ" for X on site 1 and Z on site 3."""

    codes: str

    def __post_init__(self):
        if not self.codes:
            raise ValueError("empty Pauli word")
        bad = set(self.codes) - set(PAULI_CHARS)
        if bad:
            raise ValueError(f"invalid Pauli characters {sorted(bad)} in {self.codes!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.codes)

    def __str__(self) -> str:
        return self.codes


def pauli_mul(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Multiply two Pauli words; returns (phase, word) with phase in {1,-1,i,-i}."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(
            f"cannot multiply Pauli words on {a.n_qubits} and {b.n_qubits} qubits"
        )
    phase = 1 + 0j
    out = []
    for ca, cb in zip(a.codes, b.codes):
        p, c = _MUL_1Q[(ca, cb)]
        phase *= p
        out.append(c)
    return phase, PauliString("".join(out))


class PauliSum:
    """Complex linear combination of Pauli words on a fixed qubit count.

    Instances are immutable and always stored in canonical form: terms
    are sorted by word, duplicate words are merged, and coefficients
    with magnitude below ``COEFF_EPS`` are dropped.
    """

    __slots__ = ("_terms", "_n", "_flips")

    def __init__(self, terms, n_qubits: int | None = None):
        acc: dict[str, complex] = {}
        n = n_qubits
        for coeff, string in terms:
            if not isinstance(string, PauliString):
                string = PauliString(string)
            if n is None:
                n = string.n_qubits
            elif string.n_qubits != n:
                raise DimensionMismatchError(
                    f"mixed qubit counts in PauliSum: {string.n_qubits} vs {n}"
                )
            acc[string.codes] = acc.get(string.codes, 0j) + complex(coeff)
        if n is None:
            raise ValueError("cannot infer qubit count of an empty PauliSum")
        self._n = n
        self._terms = tuple(
            (c, PauliString(codes))
            for codes, c in sorted(acc.items())
            if abs(c) > COEFF_EPS
        )
        self._flips = None

    @property
    def terms(self) -> tuple[tuple[complex, PauliString], ...]:
        return self._terms

    @property
    def n_qubits(self) -> int:
        return self._n

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def _check_match(self, other: "PauliSum") -> None:
        if self._n != other._n:
            raise DimensionMismatchError(
                f"PauliSum qubit counts differ: {self._n} vs {other._n}"
            )

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls([], n_qubits=n_qubits)

    @classmethod
    def from_label(cls, label: str, coeff: complex = 1.0) -> "PauliSum":
        return cls([(coeff, PauliString(label))])

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check_match(other)
        return PauliSum(list(self._terms) + list(other._terms), n_qubits=self._n)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-other)

    def __neg__(self) -> "PauliSum":
        return PauliSum([(-c, s) for c, s in self._terms], n_qubits=self._n)

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            self._check_match(other)
            prods = []
            for ca, sa in self._terms:
                for cb, sb in other._terms:
                    phase, s = pauli_mul(sa, sb)
                    prods.append((ca * cb * phase, s))
            return PauliSum(prods, n_qubits=self._n)
        return PauliSum([(complex(other) * c, s) for c, s in self._terms], n_qubits=self._n)

    def __rmul__(self, other) -> "PauliSum":
        return self.__mul__(other)

    def dagger(self) -> "PauliSum":
        """Hermitian adjoint: coefficients conjugated, words unchanged."""
        return PauliSum([(c.conjugate(), s) for c, s in self._terms], n_qubits=self._n)

    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= HERMITIAN_TOL for c, _ in self._terms)

    def flip_weights(self, rows: np.ndarray | None = None) -> tuple[tuple[int, np.ndarray], ...]:
        """(p, u_p) per distinct flip mask p, in increasing p, with
        u_p[k] = op[a, a ^ p] at a = rows[k], so that
        (op x)[a] = sum_p u_p[k] x[a ^ p].

        Each word is the signed permutation P[b ^ x, b] = pre *
        (-1)^popcount(b & z), so the words sharing a mask x sum into one
        weight vector, in term order. Without ``rows`` the table covers all
        2^n rows and is compiled once per sum, read-only; on given rows it
        is evaluated afresh and costs only those rows.
        """
        if rows is not None:
            return self._weights_at(np.asarray(rows))
        if self._flips is None:
            flips = self._weights_at(np.arange(2 ** self._n))
            for _, weights in flips:
                weights.setflags(write=False)
            self._flips = flips
        return self._flips

    def _weights_at(self, idx: np.ndarray) -> tuple[tuple[int, np.ndarray], ...]:
        """``flip_weights`` at the rows ``idx``."""
        acc: dict[int, np.ndarray] = {}
        for coeff, string in self._terms:
            x_mask, z_mask, pre = string_masks(string.codes)
            signs = 1.0 - 2.0 * (np.bitwise_count((idx ^ x_mask) & z_mask) & 1)
            acc[x_mask] = acc.get(x_mask, 0) + (coeff * pre) * signs
        return tuple(sorted(acc.items()))

    def to_dense(self, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
        """Dense 2^n x 2^n matrix (site 1 = most significant bit), one
        off-diagonal of flips per distinct mask (``flip_weights``)."""
        if self._n > dense_limit:
            raise DenseLimitError(
                f"dense expansion of {self._n} qubits exceeds limit {dense_limit}"
            )
        dim = 2 ** self._n
        idx = np.arange(dim)
        out = np.zeros((dim, dim), dtype=complex)
        for mask, weights in self.flip_weights():
            out[idx, idx ^ mask] = weights
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self._n == other._n and self._terms == other._terms

    def __hash__(self):
        return hash((self._n, self._terms))

    def __repr__(self) -> str:
        if not self._terms:
            return f"PauliSum(0 on {self._n} qubits)"
        parts = [f"({c:.6g})*{s.codes}" for c, s in self._terms]
        return "PauliSum(" + " + ".join(parts) + ")"


def single_site(n_qubits: int, site: int, axis: str, coeff: complex = 1.0) -> PauliSum:
    """Pauli ``axis`` on 1-based ``site``, identity elsewhere."""
    if not 1 <= site <= n_qubits:
        raise ValueError(f"site {site} outside 1..{n_qubits}")
    codes = "I" * (site - 1) + axis + "I" * (n_qubits - site)
    return PauliSum.from_label(codes, coeff)


def two_site(n_qubits: int, site_a: int, axis_a: str, site_b: int, axis_b: str,
             coeff: complex = 1.0) -> PauliSum:
    if site_a == site_b:
        raise ValueError("two_site requires distinct sites")
    codes = ["I"] * n_qubits
    codes[site_a - 1] = axis_a
    codes[site_b - 1] = axis_b
    return PauliSum.from_label("".join(codes), coeff)


def sigma_minus(n_qubits: int, site: int) -> PauliSum:
    """Lowering operator (1/2)(X - iY) on a site; annihilates |1>."""
    return single_site(n_qubits, site, "X", 0.5) + single_site(n_qubits, site, "Y", -0.5j)


def sigma_plus(n_qubits: int, site: int) -> PauliSum:
    """Raising operator (1/2)(X + iY) on a site; annihilates |0>."""
    return single_site(n_qubits, site, "X", 0.5) + single_site(n_qubits, site, "Y", 0.5j)


def pauli_sum_to_obj(op: PauliSum) -> list[dict]:
    """JSON-friendly form: list of {"coeff": [re, im], "pauli": word}."""
    return [{"coeff": [c.real, c.imag], "pauli": s.codes} for c, s in op.terms]


def pauli_sum_from_obj(obj, n_qubits: int | None = None) -> PauliSum:
    """The inverse of ``pauli_sum_to_obj``; a NaN or infinite coefficient part
    is a ConfigError naming its entry (canonicalization would drop the term)."""
    terms = []
    for entry in obj:
        re, im = entry["coeff"]
        coeff = complex(re, im)
        if not np.isfinite(coeff):
            raise ConfigError(f"pauli term {entry!r}: coefficient parts must be finite numbers")
        terms.append((coeff, PauliString(entry["pauli"])))
    return PauliSum(terms, n_qubits=n_qubits)
