"""Mutually unbiased bases from commuting Pauli partitions.

For n qubits the 4**n - 1 nonidentity Paulis split into D+1 = 2**n + 1
commuting classes; each class plus the identity is an abelian subgroup with n
independent generators, and its joint eigenbasis is one measurement basis.
The D(D+1) basis states together form a state 2-design.

Conventions fixed here and relied on everywhere else:

* basis 0 is the computational basis with generators Z_0, ..., Z_{n-1} and an
  empty circuit;
* for n = 2 the remaining bases are hard-coded as the separable X and Y bases
  plus the entangled pairs (XY, YZ) and (YX, ZY); other sizes come from a
  deterministic backtracking search with lexicographic tie-breaking, so basis
  labels are reproducible across runs;
* generator k of basis alpha has eigenvalue (-1)**(bit k of i) on state i of
  that basis (the synthesized circuit maps Z_k to the generator with sign +1),
  which makes Pauli translation within a basis a pure XOR rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .circuits import CliffordCircuit, conjugate_pauli, synthesize_basis_circuit
from .dense import StateVector
from .errors import UnsupportedSizeError
from .paulis import (
    PauliIndex,
    PauliOperator,
    as_pauli,
    commutes,
    masked_action,
    pauli_from_index,
    pauli_from_label,
    pauli_label,
    pauli_masks,
    pauli_multiply,
    pauli_to_index,
)

PARTITION_QUBIT_LIMIT = 3

_TWO_QUBIT_GENERATORS = (
    ("ZI", "IZ"),
    ("XI", "IX"),
    ("YI", "IY"),
    ("XY", "YZ"),
    ("YX", "ZY"),
)


@dataclass(frozen=True)
class MubBasis:
    """One basis: its index, ordered generator list and change-of-basis
    circuit (state i of the basis is circuit applied to |i>).

    The basis caches its exact data on first use, both read-only: the dense
    unitary (column i is state i) and, per Pauli index a, the image
    C^dag E_a C as integer masks -- the basis's Pauli translation table.
    """

    alpha: int
    generators: tuple[PauliOperator, ...]
    circuit: CliffordCircuit
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def unitary(self) -> np.ndarray:
        """Dense change-of-basis matrix, built once."""
        unitary = self.circuit.unitary()
        unitary.flags.writeable = False
        return unitary

    def image(self, a: int) -> tuple[int, int, int]:
        """C^dag E_a C for Pauli index a, as ``pauli_masks`` output
        ``(xmask, zmask, phase_power)``; memoized per index."""
        image = self._images.get(a)
        if image is None:
            moved = conjugate_pauli(
                self.circuit, pauli_from_index(a, self.circuit.n), direction="reverse"
            )
            image = self._images[a] = pauli_masks(moved)
        return image

    def apply_pauli(self, p: PauliOperator, i: int) -> tuple[int, int]:
        """Translation rule: ``(i_prime, power)`` with
        E_p |phi_i> = i**power |phi_i_prime>, read from the table."""
        xmask, zmask, phase = self.image(pauli_to_index(p).value)
        return masked_action(xmask, zmask, phase + p.phase_power, i)


@dataclass(frozen=True)
class MubDesign:
    """The D+1 mutually unbiased bases of an n-qubit system."""

    n: int
    bases: tuple[MubBasis, ...]

    @property
    def dim(self) -> int:
        return 2**self.n

    @property
    def size(self) -> int:
        """Number of states in the 2-design, K = D(D+1)."""
        return self.dim * (self.dim + 1)

    def states(self) -> list[StateVector]:
        """All K design states, basis-major then state index."""
        return [
            design_state(self, alpha, i)
            for alpha in range(len(self.bases))
            for i in range(self.dim)
        ]


def subgroup_indices(generators: Sequence[PauliOperator]) -> frozenset[int]:
    """Pauli indices of all nonidentity products of the generators."""
    n = generators[0].n
    elements: set[int] = set()
    for mask in range(1, 2 ** len(generators)):
        prod = None
        for k, g in enumerate(generators):
            if (mask >> k) & 1:
                prod = g if prod is None else pauli_multiply(prod, g)
        elements.add(pauli_to_index(prod).value)
    return frozenset(elements)


def _computational_generators(n: int) -> tuple[PauliOperator, ...]:
    return tuple(
        pauli_from_label("".join("Z" if j == k else "I" for j in range(n)))
        for k in range(n)
    )


def _search_partition(n: int) -> list[tuple[PauliOperator, ...]]:
    """Deterministic backtracking partition of the nonidentity Paulis into
    D+1 commuting classes; candidates are tried in ascending index order."""
    total = 4**n - 1
    ops = {v: pauli_from_index(v, n) for v in range(1, 4**n)}
    bases: list[tuple[PauliOperator, ...]] = [_computational_generators(n)]
    covered = set(subgroup_indices(bases[0]))

    def extend_basis(gens: list[PauliOperator], start: int) -> bool:
        if len(gens) == n:
            group = subgroup_indices(gens)
            if len(group) != 2**n - 1 or group & covered:
                return False
            covered.update(group)
            bases.append(tuple(gens))
            if search():
                return True
            bases.pop()
            covered.difference_update(group)
            return False
        for v in range(start, 4**n):
            if v in covered:
                continue
            cand = ops[v]
            if all(commutes(cand, g) for g in gens):
                gens.append(cand)
                if extend_basis(gens, v + 1):
                    return True
                gens.pop()
        return False

    def search() -> bool:
        if len(covered) == total:
            return True
        anchor = min(v for v in range(1, 4**n) if v not in covered)
        return extend_basis([ops[anchor]], anchor + 1)

    if not search():
        raise UnsupportedSizeError(f"no commuting partition found for n={n}")
    return bases


def build_design(n: int, partition_limit: int = PARTITION_QUBIT_LIMIT) -> MubDesign:
    """Construct the D+1 mutually unbiased bases for n qubits.

    n = 2 uses the fixed generator sets listed in the module docstring; other
    sizes up to ``partition_limit`` run the backtracking partition search.
    """
    if n < 1 or n > partition_limit:
        raise UnsupportedSizeError(
            f"design construction supports 1 <= n <= {partition_limit}, got {n}"
        )
    if n == 2:
        generator_sets = [
            tuple(pauli_from_label(lbl) for lbl in pair)
            for pair in _TWO_QUBIT_GENERATORS
        ]
    else:
        generator_sets = _search_partition(n)
    bases = tuple(
        MubBasis(alpha, gens, synthesize_basis_circuit(gens))
        for alpha, gens in enumerate(generator_sets)
    )
    return MubDesign(n, bases)


def design_state(design: MubDesign, alpha: int, i: int) -> StateVector:
    """State i of basis alpha: the basis circuit applied to |i>, read as
    column i of the basis unitary."""
    if not 0 <= alpha < len(design.bases):
        raise ValueError(f"basis index {alpha} out of range")
    if not 0 <= i < design.dim:
        raise ValueError(f"state index {i} out of range")
    return StateVector(design.n, design.bases[alpha].unitary[:, i])


def translate(
    design: MubDesign, alpha: int, i: int, a: Union[PauliIndex, PauliOperator, int, str]
) -> tuple[int, complex]:
    """Translation rule: E_a |phi_i^(alpha)> = phase * |phi_i'^(alpha)>.

    i' flips the eigenvalue bit of every generator that anticommutes with
    E_a; both i' and the phase come from the basis's exact image of E_a
    (:meth:`MubBasis.apply_pauli`).
    """
    if not 0 <= alpha < len(design.bases):
        raise ValueError(f"basis index {alpha} out of range")
    if not 0 <= i < design.dim:
        raise ValueError(f"state index {i} out of range")
    i_prime, power = design.bases[alpha].apply_pauli(as_pauli(a, design.n), i)
    return i_prime, 1j**power


def superposition_norm(m: int, n_idx: int, gamma_quarters: int) -> float:
    """Squared norm of |m> + i**gamma_quarters |n_idx>: 2 for distinct
    indices; 4, 2, 0, 2 for gamma_quarters 0..3 when they coincide."""
    if m != n_idx:
        return 2.0
    return (4.0, 2.0, 0.0, 2.0)[gamma_quarters % 4]


def frame_potential(design: Union[MubDesign, Iterable[StateVector]]) -> float:
    """(1/K^2) sum_{jk} |<phi_j|phi_k>|^4; equals 2/(D(D+1)) for a 2-design."""
    states = design.states() if isinstance(design, MubDesign) else list(design)
    amps = np.array([s.amplitudes for s in states])
    overlaps = np.abs(amps.conj() @ amps.T) ** 4
    return float(np.sum(overlaps)) / len(states) ** 2


def validate_design(design: MubDesign, atol: float = 1e-10) -> dict:
    """Run the design invariants and return a check report.

    Checks: within-basis orthonormality, cross-basis unbiasedness, the
    2-design frame potential and the partition property.
    """
    d = design.dim
    checks = []
    states = design.states()
    amps = np.array([s.amplitudes for s in states])
    gram = np.abs(amps.conj() @ amps.T) ** 2
    worst_orth = 0.0
    worst_unbiased = 0.0
    n_bases = len(design.bases)
    for aj in range(n_bases):
        for ak in range(n_bases):
            block = gram[aj * d : (aj + 1) * d, ak * d : (ak + 1) * d]
            if aj == ak:
                worst_orth = max(worst_orth, float(np.max(np.abs(block - np.eye(d)))))
            else:
                worst_unbiased = max(worst_unbiased, float(np.max(np.abs(block - 1.0 / d))))
    checks.append(("orthonormality", worst_orth, worst_orth <= atol))
    checks.append(("unbiasedness", worst_unbiased, worst_unbiased <= atol))
    fp = frame_potential(design)
    fp_err = abs(fp - 2.0 / (d * (d + 1)))
    checks.append(("frame_potential", fp_err, fp_err <= 1e-12))
    seen: dict[int, int] = {}
    duplicates = 0
    for basis in design.bases:
        for idx in subgroup_indices(basis.generators):
            duplicates += seen.get(idx, 0)
            seen[idx] = seen.get(idx, 0) + 1
    missing = (4**design.n - 1) - len(seen)
    checks.append(("partition", float(duplicates + missing), duplicates + missing == 0))
    return {
        "passed": all(ok for _, _, ok in checks),
        "checks": [
            {"name": name, "max_error": err, "passed": ok} for name, err, ok in checks
        ],
    }


def design_report(design: MubDesign) -> dict:
    """JSON-style description: per basis, generator labels and gate list."""
    return {
        "n": design.n,
        "dim": design.dim,
        "num_states": design.size,
        "bases": [
            {
                "alpha": basis.alpha,
                "generators": [pauli_label(g) for g in basis.generators],
                "circuit": basis.circuit.gate_strings(),
            }
            for basis in design.bases
        ],
    }
