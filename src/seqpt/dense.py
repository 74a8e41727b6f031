"""Dense state-vector and density-matrix primitives.

This is the ground-truth physics engine: every probability the estimator
reports is ultimately computed here, and the test suite uses the same
primitives as brute-force oracles.  Tolerances: 1e-12 for pure arithmetic,
1e-10/1e-9 after eigendecompositions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import NumericalIntegrityError

if TYPE_CHECKING:
    from .circuits import CliffordCircuit

NORM_ATOL = 1e-12
HERMITICITY_ATOL = 1e-10
EIGENVALUE_ATOL = 1e-9


@dataclass(frozen=True)
class StateVector:
    """A pure n-qubit state.  Construction enforces unit norm unless the
    state is created through :meth:`raw`, which keeps the bare amplitudes and
    exposes their squared norm (needed for preparation weights)."""

    n: int
    amplitudes: np.ndarray
    is_normalized: bool = True

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(
                f"expected {2**self.n} amplitudes for {self.n} qubits, "
                f"got shape {amps.shape}"
            )
        if self.is_normalized:
            norm_sq = float(np.sum(np.abs(amps) ** 2))
            if not abs(norm_sq - 1.0) <= 1e-9:
                raise ValueError(f"state is not normalized: |amps|^2 = {norm_sq}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def raw(cls, n: int, amplitudes) -> "StateVector":
        """Unnormalized construction path; never silently renormalized."""
        return cls(n, amplitudes, is_normalized=False)

    @classmethod
    def computational(cls, n: int, i: int) -> "StateVector":
        amps = np.zeros(2**n, dtype=complex)
        amps[i] = 1.0
        return cls(n, amps)

    @property
    def squared_norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def normalized(self) -> "StateVector":
        norm = np.sqrt(self.squared_norm)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.n, self.amplitudes / norm)

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """A mixed n-qubit state; Hermitian, unit trace, positive semidefinite."""

    n: int
    entries: np.ndarray
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        mat = np.array(self.entries, dtype=complex)
        d = 2**self.n
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got {mat.shape}")
        if self.validate:
            # Written as "not err <= tol" so that NaN fails every check.
            if not np.max(np.abs(mat - mat.conj().T)) <= HERMITICITY_ATOL:
                raise NumericalIntegrityError("density matrix is not Hermitian")
            if not abs(np.trace(mat) - 1.0) <= HERMITICITY_ATOL:
                raise NumericalIntegrityError(
                    f"density matrix trace is {np.trace(mat)}, expected 1"
                )
            if np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)) < -EIGENVALUE_ATOL:
                raise NumericalIntegrityError("density matrix is not positive")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        if not state.is_normalized:
            raise ValueError("a density matrix requires a normalized state")
        amps = state.amplitudes
        return cls(state.n, np.outer(amps, amps.conj()), validate=False)

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        d = 2**n
        return cls(n, np.eye(d, dtype=complex) / d, validate=False)


def survival_probability(rho: DensityMatrix, phi: StateVector) -> float:
    """<phi|rho|phi>, the probability of detecting ``phi`` in state ``rho``."""
    if rho.n != phi.n:
        raise ValueError(f"qubit counts differ: {rho.n} vs {phi.n}")
    if not phi.is_normalized:
        raise ValueError("survival probability requires a normalized state")
    amps = phi.amplitudes
    value = complex(amps.conj() @ rho.entries @ amps)
    if abs(value.imag) > NORM_ATOL:
        raise NumericalIntegrityError(
            f"survival probability has imaginary part {value.imag}"
        )
    p = value.real
    if p < -EIGENVALUE_ATOL or p > 1.0 + EIGENVALUE_ATOL:
        raise NumericalIntegrityError(f"survival probability {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def basis_probabilities(
    rho: DensityMatrix, basis: Union["CliffordCircuit", np.ndarray]
) -> np.ndarray:
    """Probabilities of projecting ``rho`` onto each basis state ``C|i>``.

    ``basis`` is the change-of-basis circuit C or its dense unitary.  Entry i
    is <i|C^dag rho C|i>; the vector sums to one within 1e-10.
    """
    if isinstance(basis, np.ndarray):
        d = 2**rho.n
        if basis.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} basis unitary, got shape {basis.shape}")
        unitary = basis
    else:
        if rho.n != basis.n:
            raise ValueError(f"qubit counts differ: {rho.n} vs {basis.n}")
        unitary = basis.unitary()
    probs = np.real(np.einsum("ji,jk,ki->i", unitary.conj(), rho.entries, unitary))
    if not abs(float(np.sum(probs)) - 1.0) <= HERMITICITY_ATOL:
        raise NumericalIntegrityError(
            f"basis probabilities sum to {np.sum(probs)}, expected 1"
        )
    return np.clip(probs, 0.0, 1.0)


def haar_random_state(n: int, seed: Union[int, np.random.Generator]) -> StateVector:
    """A Haar-distributed pure state; deterministic for a fixed integer seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d = 2**n
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector(n, vec / np.linalg.norm(vec))
