"""n-qubit Pauli operators in binary symplectic form with exact phase tracking.

A Pauli operator is stored as two bit tuples of length n plus an integer
phase exponent, and denotes

    i**phase_power * P(x_0, z_0) (x) P(x_1, z_1) (x) ... (x) P(x_{n-1}, z_{n-1})

where the single-qubit factors are the Hermitian matrices

    P(0, 0) = I,   P(1, 0) = X,   P(1, 1) = Y,   P(0, 1) = Z.

Qubit 0 is the leftmost character of a text label, the most significant
base-4 digit of a ``PauliIndex`` and the most significant bit of a
computational basis index.  Operators with ``phase_power == 0`` are Hermitian;
``PauliIndex`` enumerates exactly those, with digits 0=I, 1=X, 2=Y, 3=Z, so
index 0 is always the identity.

Everything in this module is exact integer arithmetic; dense matrix export is
the only operation that produces floating point values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .errors import UnsupportedSizeError

DENSE_QUBIT_LIMIT = 6

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}
_DIGIT_TO_BITS = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}
_BITS_TO_DIGIT = {v: k for k, v in _DIGIT_TO_BITS.items()}

_SINGLE_QUBIT_MATRICES = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliOperator:
    """An n-qubit Pauli operator, i**phase_power times a Hermitian tensor
    product of I/X/Y/Z factors."""

    n: int
    x_bits: tuple[int, ...]
    z_bits: tuple[int, ...]
    phase_power: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        if len(self.x_bits) != self.n or len(self.z_bits) != self.n:
            raise ValueError("x_bits and z_bits must both have length n")
        if any(b not in (0, 1) for b in self.x_bits + self.z_bits):
            raise ValueError("bit entries must be 0 or 1")
        if self.phase_power not in (0, 1, 2, 3):
            raise ValueError("phase_power must be an integer in {0,1,2,3}")

    @property
    def is_identity(self) -> bool:
        return not any(self.x_bits) and not any(self.z_bits)

    def phaseless(self) -> "PauliOperator":
        """The same tensor-product factors with phase_power reset to 0."""
        return PauliOperator(self.n, self.x_bits, self.z_bits, 0)

    def __str__(self) -> str:
        return pauli_label(self)


@dataclass(frozen=True)
class PauliIndex:
    """Base-4 label of a phaseless Pauli operator; 0 is the identity."""

    value: int
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        if not 0 <= self.value < 4**self.n:
            raise ValueError(
                f"index {self.value} out of range for {self.n} qubits"
            )

    def to_pauli(self) -> PauliOperator:
        return pauli_from_index(self, self.n)

    def __str__(self) -> str:
        return pauli_label(self.to_pauli())


PauliLike = Union[PauliOperator, PauliIndex, int, str]


def pauli_from_label(label: str) -> PauliOperator:
    """Parse a text label such as "XIZ" into a phaseless Pauli operator."""
    if not label:
        raise ValueError("Pauli label must be nonempty")
    x_bits = []
    z_bits = []
    for pos, char in enumerate(label):
        try:
            x, z = _CHAR_TO_BITS[char]
        except KeyError:
            raise ValueError(
                f"invalid Pauli character {char!r} at position {pos}"
            ) from None
        x_bits.append(x)
        z_bits.append(z)
    return PauliOperator(len(label), tuple(x_bits), tuple(z_bits), 0)


def pauli_label(p: PauliOperator) -> str:
    """Text label of a Pauli; a nonzero phase is rendered as a prefix."""
    prefix = {0: "", 1: "i", 2: "-", 3: "-i"}[p.phase_power]
    return prefix + "".join(
        _BITS_TO_CHAR[x, z] for x, z in zip(p.x_bits, p.z_bits)
    )


def identity(n: int) -> PauliOperator:
    return PauliOperator(n, (0,) * n, (0,) * n, 0)


def pauli_multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Exact operator product p*q.

    Bits are XORed; the phase is updated with the symplectic rule so that the
    dense export of the result equals matrix(p) @ matrix(q) exactly.
    """
    if p.n != q.n:
        raise ValueError(f"qubit counts differ: {p.n} vs {q.n}")
    x_bits = tuple(a ^ b for a, b in zip(p.x_bits, q.x_bits))
    z_bits = tuple(a ^ b for a, b in zip(p.z_bits, q.z_bits))
    phase = p.phase_power + q.phase_power
    for xp, zp, xq, zq, xr, zr in zip(
        p.x_bits, p.z_bits, q.x_bits, q.z_bits, x_bits, z_bits
    ):
        # Hermitian storage adds i**(x*z) per factor; the XZ reordering of
        # the product contributes (-1)**(zp*xq).
        phase += xp * zp + xq * zq - xr * zr + 2 * zp * xq
    return PauliOperator(p.n, x_bits, z_bits, phase % 4)


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    """True iff the symplectic inner product x_p.z_q + z_p.x_q vanishes mod 2."""
    if p.n != q.n:
        raise ValueError(f"qubit counts differ: {p.n} vs {q.n}")
    acc = 0
    for xp, zp, xq, zq in zip(p.x_bits, p.z_bits, q.x_bits, q.z_bits):
        acc ^= (xp & zq) ^ (zp & xq)
    return acc == 0


def pauli_to_matrix(
    p: PauliOperator, dense_limit: int = DENSE_QUBIT_LIMIT
) -> np.ndarray:
    """Dense 2**n x 2**n export, i**phase_power times a Kronecker product."""
    if p.n > dense_limit:
        raise UnsupportedSizeError(
            f"dense export limited to {dense_limit} qubits, got {p.n}"
        )
    mat = np.ones((1, 1), dtype=complex)
    for x, z in zip(p.x_bits, p.z_bits):
        mat = np.kron(mat, _SINGLE_QUBIT_MATRICES[x, z])
    return (1j**p.phase_power) * mat


def pauli_to_index(p: PauliOperator) -> PauliIndex:
    """Base-4 index of the phaseless part of p (qubit 0 = most significant)."""
    value = 0
    for x, z in zip(p.x_bits, p.z_bits):
        value = 4 * value + _BITS_TO_DIGIT[x, z]
    return PauliIndex(value, p.n)


def pauli_from_index(index: Union[PauliIndex, int], n: int | None = None) -> PauliOperator:
    """Inverse of :func:`pauli_to_index`; always phaseless."""
    if isinstance(index, PauliIndex):
        value, n = index.value, index.n
    else:
        if n is None:
            raise ValueError("an integer index requires an explicit qubit count")
        value = PauliIndex(int(index), n).value
    x_bits = []
    z_bits = []
    for k in range(n - 1, -1, -1):
        x, z = _DIGIT_TO_BITS[(value >> (2 * k)) & 3]
        x_bits.append(x)
        z_bits.append(z)
    return PauliOperator(n, tuple(x_bits), tuple(z_bits), 0)


def as_pauli(op: PauliLike, n: int) -> PauliOperator:
    """Coerce a label, index or operator into a PauliOperator on n qubits."""
    if isinstance(op, PauliOperator):
        p = op
    elif isinstance(op, PauliIndex):
        p = op.to_pauli()
    elif isinstance(op, str):
        p = pauli_from_label(op)
    elif isinstance(op, (int, np.integer)):
        p = pauli_from_index(int(op), n)
    else:
        raise TypeError(f"cannot interpret {type(op).__name__} as a Pauli")
    if p.n != n:
        raise ValueError(f"operator acts on {p.n} qubits, expected {n}")
    return p


def enumerate_paulis(n: int) -> Iterator[PauliOperator]:
    """All 4**n phaseless Paulis in index order, identity first."""
    for value in range(4**n):
        yield pauli_from_index(value, n)


def pauli_masks(p: PauliOperator) -> tuple[int, int, int]:
    """``(xmask, zmask, phase_power)`` of p, with qubit 0 as the most
    significant bit, so the masks line up with computational basis indices."""
    xmask = zmask = 0
    for x, z in zip(p.x_bits, p.z_bits):
        xmask = (xmask << 1) | x
        zmask = (zmask << 1) | z
    return xmask, zmask, p.phase_power


def masked_action(xmask: int, zmask: int, phase_power: int, i: int) -> tuple[int, int]:
    """``(i_prime, power)`` with ``P|i> = i**power |i_prime>`` for the Pauli
    given by :func:`pauli_masks`: X bits flip, each Y factor contributes i and
    each Z or Y factor on a set bit contributes -1."""
    power = phase_power + (xmask & zmask).bit_count() + 2 * (zmask & i).bit_count()
    return i ^ xmask, power % 4


def apply_to_computational(p: PauliOperator, i: int) -> tuple[int, int]:
    """Apply p to the computational basis state ``|i>``.

    Returns ``(i_prime, power)`` with ``p|i> = i**power |i_prime>``; exact
    integer arithmetic.
    """
    if not 0 <= i < 2**p.n:
        raise ValueError(f"basis index {i} out of range for {p.n} qubits")
    return masked_action(*pauli_masks(p), i)
