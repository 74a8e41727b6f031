"""Clifford circuits over {H, S, CNOT, X, Z}: dense execution, Pauli
conjugation, change-of-basis synthesis and the preparation-state compiler.

Conjugation direction: ``conjugate_pauli(c, p, direction="forward")`` returns
C p C^dag by traversing the gate list in order; ``direction="reverse"``
returns C^dag p C by traversing it backwards with per-gate inverses.  Both
track the exact phase, so round trips are bit-exact.

The synthesizer produces, for n commuting independent generators g_k, a
circuit C with C Z_k C^dag = +g_k exactly: sign corrections are realized with
explicit X gates, so basis eigenvalue conventions never carry hidden signs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .dense import StateVector
from .errors import InvalidBasisError
from .paulis import PauliOperator

if TYPE_CHECKING:
    from .mub import MubDesign

GATE_KINDS = ("H", "S", "X", "Z", "CNOT")

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    """A single gate; ``control`` is set only for CNOT."""

    kind: str
    qubit: int
    control: Optional[int] = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "CNOT":
            if self.control is None:
                raise ValueError("CNOT requires a control qubit")
            if self.control == self.qubit:
                raise ValueError("CNOT control and target must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind} takes no control qubit")

    def __str__(self) -> str:
        if self.kind == "CNOT":
            return f"CNOT {self.control} {self.qubit}"
        return f"{self.kind} {self.qubit}"


@dataclass(frozen=True)
class CliffordCircuit:
    """An ordered gate list on n qubits."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            qubits = (g.qubit,) if g.control is None else (g.qubit, g.control)
            for q in qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"gate {g} addresses qubit {q} outside 0..{self.n - 1}")

    def __len__(self) -> int:
        return len(self.gates)

    def followed_by(self, other: "CliffordCircuit") -> "CliffordCircuit":
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
        return CliffordCircuit(self.n, self.gates + other.gates)

    def inverse(self) -> "CliffordCircuit":
        """Reversed gate order with each gate inverted (S^dag emitted as S, Z)."""
        gates: list[Gate] = []
        for g in reversed(self.gates):
            if g.kind == "S":
                gates.append(Gate("S", g.qubit))
                gates.append(Gate("Z", g.qubit))
            else:
                gates.append(g)
        return CliffordCircuit(self.n, tuple(gates))

    def gate_strings(self) -> list[str]:
        """One line per gate: "H q", "S q", "X q", "Z q", "CNOT c t"."""
        return [str(g) for g in self.gates]

    def unitary(self) -> np.ndarray:
        """Dense matrix of the circuit (columns are images of basis states).

        All columns go through one gate pass over the identity; each column
        sees the same arithmetic as :func:`apply_circuit` on its basis state.
        """
        d = 2**self.n
        cols = np.eye(d, dtype=complex).reshape([2] * self.n + [d])
        return _run_gates(self.gates, cols).reshape(d, d)


def apply_circuit(circuit: CliffordCircuit, state: StateVector) -> StateVector:
    """Gate-by-gate dense application; preserves the norm to 1e-12."""
    if circuit.n != state.n:
        raise ValueError(f"qubit counts differ: {circuit.n} vs {state.n}")
    psi = np.array(state.amplitudes, dtype=complex).reshape([2] * circuit.n)
    _run_gates(circuit.gates, psi)
    return StateVector(circuit.n, psi.reshape(-1), is_normalized=state.is_normalized)


def _run_gates(gates: Sequence[Gate], psi: np.ndarray) -> np.ndarray:
    """Apply the gates in place to ``psi``, whose leading axes are the qubits;
    trailing axes, if any, batch independent states."""
    for g in gates:
        if g.kind == "H":
            view = np.moveaxis(psi, g.qubit, 0)
            a0 = view[0].copy()
            view[0] = (a0 + view[1]) * _SQRT_HALF
            view[1] = (a0 - view[1]) * _SQRT_HALF
        elif g.kind == "S":
            np.moveaxis(psi, g.qubit, 0)[1] *= 1j
        elif g.kind == "X":
            view = np.moveaxis(psi, g.qubit, 0)
            view[[0, 1]] = view[[1, 0]]
        elif g.kind == "Z":
            np.moveaxis(psi, g.qubit, 0)[1] *= -1.0
        else:  # CNOT
            view = np.moveaxis(psi, (g.control, g.qubit), (0, 1))
            view[1, [0, 1]] = view[1, [1, 0]]
    return psi


def _conjugate_gate(x: list, z: list, phase: int, gate: Gate, inverted: bool) -> int:
    """Conjugate a Pauli (mutable bit lists) by one gate; returns new phase."""
    q = gate.qubit
    if gate.kind == "H":
        phase += 2 * (x[q] & z[q])
        x[q], z[q] = z[q], x[q]
    elif gate.kind == "S":
        if inverted:
            z[q] ^= x[q]
            phase += 2 * (x[q] & z[q])
        else:
            phase += 2 * (x[q] & z[q])
            z[q] ^= x[q]
    elif gate.kind == "X":
        phase += 2 * z[q]
    elif gate.kind == "Z":
        phase += 2 * x[q]
    else:  # CNOT
        c = gate.control
        phase += 2 * (x[c] & z[q] & (x[q] ^ z[c] ^ 1))
        x[q] ^= x[c]
        z[c] ^= z[q]
    return phase % 4


def conjugate_pauli(
    circuit: CliffordCircuit, p: PauliOperator, direction: str = "forward"
) -> PauliOperator:
    """C p C^dag (forward traversal) or C^dag p C (reverse traversal)."""
    if circuit.n != p.n:
        raise ValueError(f"qubit counts differ: {circuit.n} vs {p.n}")
    if direction not in ("forward", "reverse"):
        raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")
    x = list(p.x_bits)
    z = list(p.z_bits)
    phase = p.phase_power
    gates = circuit.gates if direction == "forward" else tuple(reversed(circuit.gates))
    inverted = direction == "reverse"
    for gate in gates:
        phase = _conjugate_gate(x, z, phase, gate, inverted)
    return PauliOperator(p.n, tuple(x), tuple(z), phase)


def synthesize_basis_circuit(generators: Sequence[PauliOperator]) -> CliffordCircuit:
    """Build a circuit C with C Z_k C^dag equal to generator k, sign included.

    Gaussian elimination over GF(2) with the lowest qubit as pivot at every
    step, so circuits are canonical per generator set; gate count is O(n^2).
    Raises :class:`InvalidBasisError` for non-commuting or dependent inputs.
    """
    gens = list(generators)
    if not gens:
        raise InvalidBasisError("at least one generator is required")
    n = gens[0].n
    if len(gens) != n:
        raise InvalidBasisError(f"expected {n} generators, got {len(gens)}")
    from .paulis import commutes  # local import keeps module init order simple

    for i, g in enumerate(gens):
        if g.n != n:
            raise InvalidBasisError("generators act on different qubit counts")
        for h in gens[i + 1 :]:
            if not commutes(g, h):
                raise InvalidBasisError(f"generators {g} and {h} do not commute")
    # Rows of the tableau; phases track signs picked up during elimination.
    xs = [list(g.x_bits) for g in gens]
    zs = [list(g.z_bits) for g in gens]
    phases = [g.phase_power for g in gens]
    if any(ph % 2 for ph in phases):
        raise InvalidBasisError("generators must be Hermitian (even phase power)")
    recorded: list[Gate] = []

    def apply(gate: Gate):
        recorded.append(gate)
        for r in range(n):
            phases[r] = _conjugate_gate(xs[r], zs[r], phases[r], gate, inverted=False)

    for k in range(n):
        if (
            phases[k] == 0
            and not any(xs[k])
            and zs[k] == [1 if j == k else 0 for j in range(n)]
        ):
            continue  # row already equals +Z_k
        if not any(xs[k][k:]):
            pivots = [q for q in range(k, n) if zs[k][q]]
            if not pivots:
                raise InvalidBasisError("generators are not independent")
            apply(Gate("H", pivots[0]))
        pivot = next(q for q in range(k, n) if xs[k][q])
        if pivot != k:
            apply(Gate("CNOT", pivot, control=k))
            apply(Gate("CNOT", k, control=pivot))
            apply(Gate("CNOT", pivot, control=k))
        for j in range(k + 1, n):
            if xs[k][j]:
                apply(Gate("CNOT", j, control=k))
        if zs[k][k]:
            apply(Gate("S", k))
        for j in range(n):
            if j != k and zs[k][j]:
                apply(Gate("H", j))
                apply(Gate("CNOT", j, control=k))
                apply(Gate("H", j))
        apply(Gate("H", k))
        if phases[k] == 2:
            apply(Gate("X", k))
        if phases[k] != 0 or any(xs[k]) or zs[k] != [1 if j == k else 0 for j in range(n)]:
            raise InvalidBasisError("generators are not independent")
    return CliffordCircuit(n, tuple(recorded)).inverse()


@dataclass(frozen=True)
class PrepProgram:
    """A compiled preparation of (E_a + e^{i beta} E_b)|phi_i^(alpha)>.

    ``squared_norm`` is the raw norm squared of the unnormalized target (the
    preparation weight); ``m``/``n_idx`` are the computational indices of the
    superposed pair and ``gamma_quarters`` their relative phase in units of
    pi/2.  A null program (complete destructive interference) carries no
    circuit.
    """

    circuit: Optional[CliffordCircuit]
    squared_norm: float
    is_null: bool
    m: int
    n_idx: int
    gamma_quarters: int

    @property
    def gamma(self) -> float:
        return self.gamma_quarters * math.pi / 2.0

    def __post_init__(self):
        if self.is_null != (self.squared_norm == 0.0):
            raise ValueError("is_null must hold exactly when squared_norm is 0")
        if self.is_null and self.circuit is not None:
            raise ValueError("a null program carries no circuit")


def superposition_circuit(n: int, m: int, n_idx: int, gamma_quarters: int) -> CliffordCircuit:
    """Circuit preparing (|m> + i**gamma_quarters |n_idx>)/sqrt(2) from |0...0>,
    up to a global phase: one Hadamard, O(n) CNOTs, a few X/S/Z gates."""
    if m == n_idx:
        raise ValueError("superposed indices must differ")
    gates: list[Gate] = []
    diff = m ^ n_idx
    bits_m = [(m >> (n - 1 - k)) & 1 for k in range(n)]
    bits_diff = [(diff >> (n - 1 - k)) & 1 for k in range(n)]
    pivot = bits_diff.index(1)
    gates.append(Gate("H", pivot))
    for k in range(n):
        if bits_diff[k] and k != pivot:
            gates.append(Gate("CNOT", k, control=pivot))
    for k in range(n):
        if bits_diff[k]:
            if k != pivot and bits_m[k] != bits_m[pivot]:
                gates.append(Gate("X", k))
        elif bits_m[k]:
            gates.append(Gate("X", k))
    # Phase lands on the |pivot=1> branch: i**gamma on the n_idx branch, or
    # equivalently i**(-gamma) on the m branch when m occupies that slot.
    power = gamma_quarters % 4 if not bits_m[pivot] else (-gamma_quarters) % 4
    if power in (1, 3):
        gates.append(Gate("S", pivot))
    if power in (2, 3):
        gates.append(Gate("Z", pivot))
    return CliffordCircuit(n, tuple(gates))


def _computational_prep(n: int, i: int) -> CliffordCircuit:
    gates = tuple(Gate("X", k) for k in range(n) if (i >> (n - 1 - k)) & 1)
    return CliffordCircuit(n, gates)


def _beta_quarters(beta: float) -> int:
    quarters = beta / (math.pi / 2.0)
    rounded = round(quarters)
    if abs(quarters - rounded) > 1e-12:
        raise ValueError(f"beta must be a multiple of pi/2, got {beta}")
    return rounded % 4


def compile_prep(
    design: "MubDesign",
    alpha: int,
    i: int,
    a: "PauliOperator | int",
    b: "PauliOperator | int",
    beta: float,
) -> PrepProgram:
    """Compile the preparation of (E_a + e^{i beta} E_b)|phi_i^(alpha)>.

    E_a and E_b move |i> by the basis translation table
    (:meth:`seqpt.mub.MubBasis.apply_pauli`), and the resulting two-term
    computational superposition is prepared by a short circuit before the
    change of basis is appended.
    """
    from .mub import superposition_norm
    from .paulis import as_pauli

    basis = design.bases[alpha]
    if not 0 <= i < design.dim:
        raise ValueError(f"state index {i} out of range")
    ea = as_pauli(a, design.n)
    eb = as_pauli(b, design.n)
    beta_q = _beta_quarters(beta)
    m, power_a = basis.apply_pauli(ea, i)
    n_idx, power_b = basis.apply_pauli(eb, i)
    gamma_q = (beta_q + power_b - power_a) % 4
    squared_norm = superposition_norm(m, n_idx, gamma_q)
    if squared_norm == 0.0:
        return PrepProgram(None, 0.0, True, m, n_idx, gamma_q)
    if m == n_idx:
        # Amplitudes interfere on a single computational state.
        prep = _computational_prep(design.n, m)
    else:
        prep = superposition_circuit(design.n, m, n_idx, gamma_q)
    return PrepProgram(
        prep.followed_by(basis.circuit), squared_norm, False, m, n_idx, gamma_q
    )
