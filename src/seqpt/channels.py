"""Quantum channels in Kraus form, chi (process) matrices in the Pauli basis,
the built-in channel zoo and fidelity measures.

A channel acts as rho -> sum_k A_k rho A_k^dag with sum_k A_k^dag A_k = I.
Its chi matrix is defined by rho -> sum_ab chi_ab E_a rho E_b^dag over the
Hermitian Pauli basis {E_a}; chi is Hermitian, positive semidefinite and has
unit trace for a trace-preserving channel.

Built-in channels (the two-qubit ones treat qubit 0 as the path and qubit 1
as the polarization):

* ``identity``           -- single Kraus I on any n.
* ``polarization_unitary`` -- I (x) exp(-i theta/2 sigma_axis), n = 2.
* ``controlled_uc``      -- U_c = |0><0| (x) X + |1><1| (x) Z, n = 2.
* ``noisy_uc``           -- U_c with probability 1-p, (Z (x) I) U_c with
                            probability p (path-qubit dephasing mixed into
                            the gate), n = 2.
* ``depolarizing``       -- rho -> (1-p) rho + p I/D on any n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .dense import DensityMatrix
from .errors import NotCompletelyPositiveError, NumericalIntegrityError
from .paulis import enumerate_paulis, pauli_label, pauli_to_matrix

TP_ATOL = 1e-10
CP_EIGENVALUE_ATOL = 1e-7


@lru_cache(maxsize=8)
def pauli_basis(n: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Stack of the 4**n Hermitian Pauli matrices in index order, plus labels."""
    mats = []
    labels = []
    for p in enumerate_paulis(n):
        mats.append(pauli_to_matrix(p))
        labels.append(pauli_label(p))
    stack = np.array(mats)
    stack.flags.writeable = False
    return stack, tuple(labels)


@dataclass(frozen=True)
class QuantumChannel:
    """A trace-preserving channel given by its Kraus operators."""

    n: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        d = 2**self.n
        mats = []
        total = np.zeros((d, d), dtype=complex)
        for k in self.kraus:
            mat = np.array(k, dtype=complex)
            if mat.shape != (d, d):
                raise ValueError(f"Kraus operator has shape {mat.shape}, expected {(d, d)}")
            if not np.all(np.isfinite(mat)):
                raise ValueError("Kraus operators must have finite entries")
            mat.flags.writeable = False
            mats.append(mat)
            total += mat.conj().T @ mat
        if not mats:
            raise ValueError("a channel requires at least one Kraus operator")
        tp_error = np.max(np.abs(total - np.eye(d)))
        if not tp_error <= TP_ATOL:
            raise NumericalIntegrityError(
                f"Kraus operators are not trace preserving: max |sum A^dag A - I| = {tp_error}"
            )
        object.__setattr__(self, "kraus", tuple(mats))


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix in the Pauli basis, indexed by PauliIndex pairs."""

    n: int
    entries: np.ndarray
    validate: bool = True

    def __post_init__(self):
        dd = 4**self.n
        mat = np.array(self.entries, dtype=complex)
        if mat.shape != (dd, dd):
            raise ValueError(f"expected a {dd}x{dd} matrix, got {mat.shape}")
        if self.validate:
            # Written as "not err <= tol" so that NaN fails every check.
            if not np.max(np.abs(mat - mat.conj().T)) <= TP_ATOL:
                raise NumericalIntegrityError("chi matrix is not Hermitian")
            if not abs(np.trace(mat).real - 1.0) <= 1e-9:
                raise NumericalIntegrityError(f"chi trace is {np.trace(mat)}, expected 1")
            low = float(np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)))
            if low < -1e-9:
                raise NotCompletelyPositiveError(f"chi has eigenvalue {low}")
            basis, _ = pauli_basis(self.n)
            # sum_ab chi_ab E_b^dag E_a with Hermitian E_b.
            resolved = np.einsum("ab,bij,ajk->ik", mat, basis, basis, optimize=True)
            if not np.max(np.abs(resolved - np.eye(2**self.n))) <= 1e-9:
                raise NumericalIntegrityError("chi matrix is not trace preserving")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)


def chi_from_kraus(channel: QuantumChannel) -> ChiMatrix:
    """Expand each Kraus operator in the Pauli basis and accumulate chi.

    A_k = sum_a c_ka E_a with c_ka = Tr(E_a A_k)/D, and
    chi_ab = sum_k c_ka conj(c_kb).
    """
    basis, _ = pauli_basis(channel.n)
    d = 2**channel.n
    coeffs = np.array(
        [np.einsum("aij,ji->a", basis, k) / d for k in channel.kraus]
    )
    chi = coeffs.T @ coeffs.conj()
    chi = (chi + chi.conj().T) / 2
    return ChiMatrix(channel.n, chi)


def kraus_from_chi(chi: ChiMatrix) -> QuantumChannel:
    """Eigendecompose chi into Kraus operators A_k = sqrt(l_k) sum_a v_ka E_a."""
    basis, _ = pauli_basis(chi.n)
    values, vectors = np.linalg.eigh(chi.entries)
    if float(values.min()) < -CP_EIGENVALUE_ATOL:
        raise NotCompletelyPositiveError(
            f"chi eigenvalue {values.min()} below the CP tolerance"
        )
    kraus = []
    for lam, vec in zip(values, vectors.T):
        if lam <= 1e-12:  # numerically zero weight
            continue
        kraus.append(math.sqrt(lam) * np.einsum("a,aij->ij", vec, basis))
    return QuantumChannel(chi.n, tuple(kraus))


def apply_channel(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_k A_k rho A_k^dag."""
    if channel.n != rho.n:
        raise ValueError(f"qubit counts differ: {channel.n} vs {rho.n}")
    out = np.zeros_like(rho.entries)
    for k in channel.kraus:
        out = out + k @ rho.entries @ k.conj().T
    return DensityMatrix(channel.n, out)


def apply_channel_raw(channel: QuantumChannel, mat: np.ndarray) -> np.ndarray:
    """The channel extended linearly to arbitrary (non-Hermitian) inputs."""
    out = np.zeros_like(mat, dtype=complex)
    for k in channel.kraus:
        out = out + k @ mat @ k.conj().T
    return out


def controlled_uc_unitary() -> np.ndarray:
    """U_c = (I-Z)/2 (x) Z + (I+Z)/2 (x) X: path |0> applies X, path |1> applies Z."""
    eye = np.eye(2, dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    return np.kron((eye - z) / 2, z) + np.kron((eye + z) / 2, x)


def builtin_channel(name: str, params: Optional[dict] = None) -> QuantumChannel:
    """Construct a channel from the built-in zoo; see the module docstring."""
    params = dict(params or {})

    def take(key: str, convert=float, default=None):
        if key not in params:
            if default is None:
                raise ValueError(f"channel {name!r} requires parameter {key!r}")
            return default
        value = params.pop(key)
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"channel {name!r} parameter {key!r} must be a number") from None
        if not math.isfinite(number):
            raise ValueError(f"channel {name!r} parameter {key!r} must be finite, got {value}")
        return convert(value)

    def take_prob(key: str = "p") -> float:
        p = take(key)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{key} must lie in [0, 1], got {p}")
        return p

    if name == "identity":
        n = take("n", int, 2)
        channel = QuantumChannel(n, (np.eye(2**n, dtype=complex),))
    elif name == "polarization_unitary":
        theta = take("theta")
        axis = str(params.pop("axis", "x")).lower()
        sigma = {
            "x": np.array([[0, 1], [1, 0]], dtype=complex),
            "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "z": np.diag([1.0, -1.0]).astype(complex),
        }
        if axis not in sigma:
            raise ValueError(f"axis must be x, y or z, got {axis!r}")
        rot = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * sigma[axis]
        channel = QuantumChannel(2, (np.kron(np.eye(2, dtype=complex), rot),))
    elif name == "controlled_uc":
        channel = QuantumChannel(2, (controlled_uc_unitary(),))
    elif name == "noisy_uc":
        p = take_prob()
        uc = controlled_uc_unitary()
        dephased = np.kron(np.diag([1.0, -1.0]).astype(complex), np.eye(2)) @ uc
        kraus = [math.sqrt(1.0 - p) * uc, math.sqrt(p) * dephased]
        channel = QuantumChannel(2, tuple(k for k in kraus if np.any(k)))
    elif name == "depolarizing":
        p = take_prob()
        n = take("n", int, 1)
        basis, _ = pauli_basis(n)
        d = 2**n
        kraus = [math.sqrt(1.0 - p + p / d**2) * np.eye(d, dtype=complex)]
        if p > 0.0:
            kraus.extend(math.sqrt(p) / d * basis[a] for a in range(1, d**2))
        channel = QuantumChannel(n, tuple(kraus))
    else:
        raise ValueError(f"unknown channel name {name!r}")
    if params:
        raise ValueError(f"unexpected parameters for {name!r}: {sorted(params)}")
    return channel


def kraus_channel(n: int, kraus: Sequence[np.ndarray]) -> QuantumChannel:
    return QuantumChannel(n, tuple(np.asarray(k, dtype=complex) for k in kraus))


def random_channel(n: int, num_kraus: int, seed: Union[int, np.random.Generator]) -> QuantumChannel:
    """Random CP trace-preserving channel: complex-normal Kraus operators
    whitened by the inverse square root of sum A^dag A."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d = 2**n
    raw = rng.standard_normal((num_kraus, d, d)) + 1j * rng.standard_normal((num_kraus, d, d))
    total = np.einsum("kji,kjl->il", raw.conj(), raw)
    values, vectors = np.linalg.eigh(total)
    inv_sqrt = vectors @ np.diag(values**-0.5) @ vectors.conj().T
    return QuantumChannel(n, tuple(mat @ inv_sqrt for mat in raw))


@dataclass(frozen=True)
class TargetSupport:
    """Sparse chi matrix of the inverse of a unitary target.

    For a target U with coefficients t_a = Tr(E_a U)/D the entries are
    chi~_ab = conj(t_a) t_b, a rank-1 Hermitian matrix; only index pairs where
    both coefficients are nonzero are stored.  The average fidelity of a
    channel to the target contracts these entries elementwise with chi, which
    equals <t|chi|t>.
    """

    n: int
    entries: dict

    def __post_init__(self):
        for (a, b), value in self.entries.items():
            conj = self.entries.get((b, a))
            if conj is None or abs(np.conj(conj) - value) > 1e-12:
                raise ValueError("target support is not Hermitian")

    @classmethod
    def from_unitary(cls, unitary: np.ndarray, tol: float = 1e-12) -> "TargetSupport":
        mat = np.asarray(unitary, dtype=complex)
        d = mat.shape[0]
        n = int(round(math.log2(d)))
        if mat.shape != (d, d) or 2**n != d:
            raise ValueError(f"expected a 2**n x 2**n unitary, got shape {mat.shape}")
        if np.max(np.abs(mat.conj().T @ mat - np.eye(d))) > 1e-10:
            raise ValueError("target matrix is not unitary")
        basis, _ = pauli_basis(n)
        coeffs = np.einsum("aij,ji->a", basis, mat) / d
        support = [a for a in range(d**2) if abs(coeffs[a]) > tol]
        entries = {
            (a, b): complex(np.conj(coeffs[a]) * coeffs[b])
            for a in support
            for b in support
        }
        return cls(n, entries)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted({a for a, _ in self.entries}))


def average_fidelity(chi: Union[ChiMatrix, np.ndarray], target: TargetSupport) -> float:
    """F = (D * Re sum_ab chi_ab chi~_ab + 1) / (D + 1).

    The elementwise contraction with the inverse-target entries equals
    <t|chi|t>, so a unitary channel scores exactly 1 against its own target.
    """
    mat = chi.entries if isinstance(chi, ChiMatrix) else np.asarray(chi)
    overlap = sum(mat[a, b] * value for (a, b), value in target.entries.items())
    d = 2**target.n
    return (d * complex(overlap).real + 1.0) / (d + 1.0)


def _project_to_density(mat: np.ndarray) -> np.ndarray:
    """Nearest positive unit-trace matrix in Frobenius norm: the eigenvalue
    spectrum is projected onto the probability simplex (uniform shift of the
    kept eigenvalues, zeroing the rest), keeping the eigenvectors."""
    herm = (mat + mat.conj().T) / 2
    values, vectors = np.linalg.eigh(herm)
    descending = values[::-1]
    cumulative = np.cumsum(descending)
    ranks = np.arange(1, len(values) + 1)
    feasible = descending + (1.0 - cumulative) / ranks > 0.0
    if not np.any(feasible):
        raise NumericalIntegrityError("matrix has no positive weight")
    rho = int(np.nonzero(feasible)[0].max())
    shift = (1.0 - cumulative[rho]) / (rho + 1.0)
    projected = np.clip(values + shift, 0.0, None)
    return (vectors * projected) @ vectors.conj().T


def chi_comparison_fidelity(
    chi1: Union[ChiMatrix, np.ndarray], chi2: Union[ChiMatrix, np.ndarray]
) -> float:
    """State fidelity (Tr sqrt(sqrt(a) b sqrt(a)))**2 of two chi matrices
    treated as density operators; both are projected to the nearest positive
    unit-trace matrix first, so noisy reconstructions can be compared against
    exact ones."""
    mats = []
    for chi in (chi1, chi2):
        mat = chi.entries if isinstance(chi, ChiMatrix) else np.asarray(chi, dtype=complex)
        if np.max(np.abs(mat - mat.conj().T)) > 1e-6:
            raise NumericalIntegrityError("chi comparison requires Hermitian inputs")
        mats.append(_project_to_density(mat))
    a, b = mats
    values, vectors = np.linalg.eigh(a)
    sqrt_a = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    inner = sqrt_a @ b @ sqrt_a
    inner_values = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    root = float(np.sum(np.sqrt(np.clip(inner_values, 0.0, None))))
    return root**2
