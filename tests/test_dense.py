"""State-vector and density-matrix oracle primitives."""
import numpy as np
import pytest

from seqpt import (
    CliffordCircuit,
    DensityMatrix,
    Gate,
    StateVector,
    basis_probabilities,
    haar_random_state,
    survival_probability,
)
from seqpt.channels import apply_channel
from seqpt.errors import NumericalIntegrityError


def test_state_normalization_enforced():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, [1.0, 1.0])
    raw = StateVector.raw(1, [1.0, 1.0])
    assert raw.squared_norm == pytest.approx(2.0)
    assert raw.normalized().squared_norm == pytest.approx(1.0)


def test_state_shape_checked():
    with pytest.raises(ValueError, match="amplitudes"):
        StateVector(2, [1.0, 0.0])


def test_density_matrix_invariants():
    DensityMatrix(1, np.eye(2) / 2)
    with pytest.raises(NumericalIntegrityError, match="Hermitian"):
        DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(NumericalIntegrityError, match="trace"):
        DensityMatrix(1, np.eye(2))
    with pytest.raises(NumericalIntegrityError, match="positive"):
        DensityMatrix(1, np.diag([1.5, -0.5]))


def test_survival_probability_examples():
    zero = StateVector.computational(1, 0)
    one = StateVector.computational(1, 1)
    rho = DensityMatrix.from_state(zero)
    assert survival_probability(rho, zero) == 1.0
    assert survival_probability(rho, one) == 0.0
    mixed = DensityMatrix.maximally_mixed(1)
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    assert survival_probability(mixed, plus) == pytest.approx(0.5, abs=1e-12)


def test_survival_probability_linearity():
    rng = np.random.default_rng(11)
    phi = haar_random_state(2, rng)
    r1 = DensityMatrix.from_state(haar_random_state(2, rng))
    r2 = DensityMatrix.from_state(haar_random_state(2, rng))
    for lam in (0.0, 0.25, 0.7, 1.0):
        blend = DensityMatrix(2, lam * r1.entries + (1 - lam) * r2.entries)
        expected = lam * survival_probability(r1, phi) + (1 - lam) * survival_probability(r2, phi)
        assert survival_probability(blend, phi) == pytest.approx(expected, abs=1e-12)


def test_survival_probability_integrity_error():
    # a deliberately non-Hermitian matrix smuggled past validation
    sneaky = DensityMatrix(1, np.array([[0.5, 0.5j], [0.0, 0.5]]), validate=False)
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    with pytest.raises(NumericalIntegrityError, match="imaginary"):
        survival_probability(sneaky, plus)


def test_survival_probability_dimension_mismatch():
    rho = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ValueError, match="qubit counts"):
        survival_probability(rho, StateVector.computational(1, 0))


def test_basis_probabilities_computational_is_diagonal():
    rng = np.random.default_rng(3)
    rho = DensityMatrix.from_state(haar_random_state(2, rng))
    probs = basis_probabilities(rho, CliffordCircuit(2))
    assert np.allclose(probs, np.diag(rho.entries).real, atol=1e-12)


def test_basis_probabilities_x_basis():
    rho = DensityMatrix.from_state(StateVector.computational(1, 0))
    probs = basis_probabilities(rho, CliffordCircuit(1, (Gate("H", 0),)))
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)


def test_basis_probabilities_uc_output_in_entangled_basis(design2, uc_channel):
    # independent oracle: overlap with explicit circuit-built basis columns
    rho = apply_channel(uc_channel, DensityMatrix.from_state(StateVector.computational(2, 0)))
    circuit = design2.bases[3].circuit  # generators {XY, YZ}
    probs = basis_probabilities(rho, circuit)
    unitary = circuit.unitary()
    oracle = [
        float(np.real(unitary[:, i].conj() @ rho.entries @ unitary[:, i]))
        for i in range(4)
    ]
    assert np.allclose(probs, oracle, atol=1e-12)
    # the basis unitary may stand in for its circuit, checked by shape
    assert np.array_equal(basis_probabilities(rho, unitary), probs)
    with pytest.raises(ValueError, match="4x4 basis unitary"):
        basis_probabilities(rho, unitary[:2, :2])
    assert np.sum(probs) == pytest.approx(1.0, abs=1e-10)


def test_haar_random_state_deterministic_and_normalized():
    a = haar_random_state(2, 42)
    b = haar_random_state(2, 42)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert a.squared_norm == pytest.approx(1.0, abs=1e-12)


def test_haar_random_state_zero_overlap_moment():
    # mean |<0...0|psi>|^2 over Haar samples is 1/D
    rng = np.random.default_rng(2024)
    n, samples = 1, 100_000
    values = np.empty(samples)
    for s in range(samples):
        values[s] = np.abs(haar_random_state(n, rng).amplitudes[0]) ** 2
    mean = values.mean()
    stderr = values.std() / np.sqrt(samples)
    assert abs(mean - 0.5) < 5 * stderr


def test_density_matrix_from_raw_state_rejected():
    raw = StateVector.raw(1, [1.0, 1.0])
    with pytest.raises(ValueError, match="normalized"):
        DensityMatrix.from_state(raw)


def test_nan_fails_density_and_probability_checks():
    nan_rho = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(NumericalIntegrityError, match="Hermitian"):
        DensityMatrix(1, nan_rho)
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, [np.nan, 0.0])
    with pytest.raises(NumericalIntegrityError, match="sum to"):
        basis_probabilities(DensityMatrix(1, nan_rho, validate=False), np.eye(2, dtype=complex))
