"""Channel representations, the chi matrix, the channel zoo and fidelities."""
import numpy as np
import pytest

from seqpt import (
    ChiMatrix,
    DensityMatrix,
    QuantumChannel,
    StateVector,
    TargetSupport,
    apply_channel,
    average_fidelity,
    builtin_channel,
    chi_comparison_fidelity,
    chi_from_kraus,
    haar_random_state,
    kraus_from_chi,
    pauli_basis,
    random_channel,
)
from seqpt.channels import controlled_uc_unitary
from seqpt.errors import NotCompletelyPositiveError, NumericalIntegrityError

from conftest import random_unitary

UC_SUPPORT_COEFFS = {"IZ": 0.5, "ZZ": -0.5, "IX": 0.5, "ZX": 0.5}


def test_channel_requires_trace_preservation():
    with pytest.raises(NumericalIntegrityError, match="trace preserving"):
        QuantumChannel(1, (np.diag([1.0, 0.5]),))


def test_chi_identity():
    chi = chi_from_kraus(builtin_channel("identity", {"n": 1}))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(chi.entries, expected, atol=1e-12)


def test_chi_full_depolarizing():
    chi = chi_from_kraus(builtin_channel("depolarizing", {"p": 1.0, "n": 1}))
    assert np.allclose(chi.entries, np.eye(4) / 4, atol=1e-12)


def test_chi_uc_sixteen_elements(uc_channel):
    # coefficient oracle: c_a = Tr(E_a U_c)/4, chi_ab = c_a conj(c_b)
    basis, labels = pauli_basis(2)
    uc = controlled_uc_unitary()
    coeffs = np.einsum("aij,ji->a", basis, uc) / 4
    for label, expected in UC_SUPPORT_COEFFS.items():
        assert coeffs[labels.index(label)] == pytest.approx(expected, abs=1e-12)
    chi = chi_from_kraus(uc_channel)
    oracle = np.outer(coeffs, coeffs.conj())
    assert np.allclose(chi.entries, oracle, atol=1e-12)
    nonzero = np.abs(chi.entries) > 1e-12
    assert nonzero.sum() == 16
    assert np.allclose(np.abs(chi.entries[nonzero]), 0.25, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_chi_invariants_random_channels(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        chi = chi_from_kraus(random_channel(n, int(rng.integers(1, 5)), rng))
        mat = chi.entries
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
        assert np.trace(mat).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(mat)) > -1e-10


def test_chi_invariant_under_kraus_remixing():
    rng = np.random.default_rng(55)
    channel = random_channel(2, 3, rng)
    unitary = random_unitary(3, rng)
    stack = np.array(channel.kraus)
    remixed = QuantumChannel(2, tuple(np.einsum("kl,lij->kij", unitary, stack)))
    chi_a = chi_from_kraus(channel).entries
    chi_b = chi_from_kraus(remixed).entries
    assert np.max(np.abs(chi_a - chi_b)) < 1e-10


def test_kraus_from_chi_identity():
    chi = chi_from_kraus(builtin_channel("identity", {"n": 1}))
    channel = kraus_from_chi(chi)
    assert len(channel.kraus) == 1
    phase = channel.kraus[0][0, 0]
    assert np.allclose(channel.kraus[0], phase * np.eye(2), atol=1e-10)


def test_kraus_from_chi_depolarizing_is_pauli_mix():
    chi = chi_from_kraus(builtin_channel("depolarizing", {"p": 1.0, "n": 1}))
    channel = kraus_from_chi(chi)
    assert len(channel.kraus) == 4
    basis, _ = pauli_basis(1)
    for k in channel.kraus:
        overlaps = [abs(np.trace(b.conj().T @ k)) / 2 for b in basis]
        assert max(overlaps) == pytest.approx(0.5, abs=1e-10)


def test_kraus_from_chi_uc_rank_one(uc_channel):
    chi = chi_from_kraus(uc_channel)
    channel = kraus_from_chi(chi)
    assert len(channel.kraus) == 1
    kraus = channel.kraus[0]
    phase = kraus[np.abs(kraus) > 0.5].flat[0]
    phase /= abs(phase)
    assert np.allclose(kraus / phase, controlled_uc_unitary(), atol=1e-9)


def test_kraus_from_chi_rejects_negative():
    bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(NotCompletelyPositiveError):
        kraus_from_chi(ChiMatrix(1, bad, validate=False))


@pytest.mark.parametrize("n", [1, 2])
def test_kraus_chi_round_trip(n):
    rng = np.random.default_rng(200 + n)
    basis, _ = pauli_basis(n)
    for _ in range(25):
        channel = random_channel(n, int(rng.integers(1, 4)), rng)
        rebuilt = kraus_from_chi(chi_from_kraus(channel))
        # same map: compare action on a full operator basis
        for b in basis:
            out_a = sum(k @ b @ k.conj().T for k in channel.kraus)
            out_b = sum(k @ b @ k.conj().T for k in rebuilt.kraus)
            assert np.max(np.abs(out_a - out_b)) < 1e-9


def test_apply_channel_identity():
    rho = DensityMatrix.maximally_mixed(2)
    out = apply_channel(builtin_channel("identity", {"n": 2}), rho)
    assert np.array_equal(out.entries, rho.entries)


def test_apply_channel_uc_on_00(uc_channel):
    # dense oracle: U_c|00> = |0> (x) X|0> = |01>
    rho = DensityMatrix.from_state(StateVector.computational(2, 0))
    out = apply_channel(uc_channel, rho)
    oracle = controlled_uc_unitary() @ rho.entries @ controlled_uc_unitary().conj().T
    assert np.allclose(out.entries, oracle, atol=1e-12)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 1.0
    assert np.allclose(out.entries, expected, atol=1e-12)


def test_apply_channel_full_depolarizing():
    rng = np.random.default_rng(77)
    channel = builtin_channel("depolarizing", {"p": 1.0, "n": 2})
    rho = DensityMatrix.from_state(haar_random_state(2, rng))
    out = apply_channel(channel, rho)
    assert np.allclose(out.entries, np.eye(4) / 4, atol=1e-12)


def test_builtin_channel_zoo():
    assert len(builtin_channel("identity", {"n": 1}).kraus) == 1
    uc = builtin_channel("controlled_uc")
    assert np.array_equal(uc.kraus[0], controlled_uc_unitary())
    clean = builtin_channel("noisy_uc", {"p": 0.0})
    assert len(clean.kraus) == 1
    assert np.allclose(clean.kraus[0], controlled_uc_unitary(), atol=1e-12)
    pol = builtin_channel("polarization_unitary", {"theta": np.pi / 2, "axis": "y"})
    assert pol.n == 2
    with pytest.raises(ValueError, match="unknown channel"):
        builtin_channel("nonexistent")
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        builtin_channel("noisy_uc", {"p": 1.5})
    with pytest.raises(ValueError, match="unexpected parameters"):
        builtin_channel("identity", {"n": 1, "bogus": 2})
    with pytest.raises(ValueError, match="channel 'noisy_uc' requires parameter 'p'"):
        builtin_channel("noisy_uc")
    with pytest.raises(ValueError, match="channel 'polarization_unitary' requires parameter 'theta'"):
        builtin_channel("polarization_unitary", {"axis": "x"})
    with pytest.raises(ValueError, match="parameter 'p' must be a number"):
        builtin_channel("depolarizing", {"p": None})


def test_noisy_uc_is_dephasing_mixture():
    p = 0.3
    channel = builtin_channel("noisy_uc", {"p": p})
    uc = controlled_uc_unitary()
    zi = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    assert np.allclose(channel.kraus[0], np.sqrt(1 - p) * uc, atol=1e-12)
    assert np.allclose(channel.kraus[1], np.sqrt(p) * zi @ uc, atol=1e-12)


def test_average_fidelity_examples(uc_channel):
    chi_uc = chi_from_kraus(uc_channel)
    chi_id = chi_from_kraus(builtin_channel("identity", {"n": 2}))
    target_id = TargetSupport.from_unitary(np.eye(4))
    target_uc = TargetSupport.from_unitary(controlled_uc_unitary())
    assert average_fidelity(chi_id, target_id) == pytest.approx(1.0, abs=1e-12)
    # Tr(U_c) = 0, so the identity overlap vanishes and F = 1/(D+1)
    assert np.trace(controlled_uc_unitary()) == pytest.approx(0.0, abs=1e-12)
    assert average_fidelity(chi_uc, target_id) == pytest.approx(0.2, abs=1e-12)
    assert average_fidelity(chi_uc, target_uc) == pytest.approx(1.0, abs=1e-12)


def test_average_fidelity_unitary_self_fidelity_is_one():
    rng = np.random.default_rng(303)
    for n in (1, 2):
        for _ in range(5):
            unitary = random_unitary(2**n, rng)
            chi = chi_from_kraus(QuantumChannel(n, (unitary,)))
            target = TargetSupport.from_unitary(unitary, tol=1e-14)
            assert average_fidelity(chi, target) == pytest.approx(1.0, abs=1e-9)


def test_target_support_counts():
    assert len(TargetSupport.from_unitary(np.eye(4)).entries) == 1
    support = TargetSupport.from_unitary(controlled_uc_unitary())
    assert len(support.entries) == 16
    diag = [(a, b) for a, b in support.entries if a == b]
    assert len(diag) == 4


def test_average_fidelity_haar_consistency():
    # F = (D Tr(chi chi~) + 1)/(D+1) against a Monte Carlo Haar average
    rng = np.random.default_rng(404)
    samples = 100_000
    for trial in range(2):
        channel = random_channel(1, 2, rng)
        unitary = random_unitary(2, rng)
        target = TargetSupport.from_unitary(unitary, tol=1e-14)
        formula = average_fidelity(chi_from_kraus(channel), target)
        vecs = rng.standard_normal((2, samples)) + 1j * rng.standard_normal((2, samples))
        vecs /= np.linalg.norm(vecs, axis=0)
        values = np.zeros(samples)
        for kraus in channel.kraus:
            amp = np.einsum("in,in->n", vecs.conj(), (unitary.conj().T @ kraus) @ vecs)
            values += np.abs(amp) ** 2
        mc = values.mean()
        stderr = values.std() / np.sqrt(samples)
        assert abs(mc - formula) < 5 * stderr


def test_chi_comparison_fidelity_examples(uc_channel):
    chi_uc = chi_from_kraus(uc_channel)
    chi_id = chi_from_kraus(builtin_channel("identity", {"n": 2}))
    assert chi_comparison_fidelity(chi_uc, chi_uc) == pytest.approx(1.0, abs=1e-7)
    assert chi_comparison_fidelity(chi_id, chi_uc) == pytest.approx(0.0, abs=1e-10)
    chi_id1 = chi_from_kraus(builtin_channel("identity", {"n": 1}))
    chi_dep = chi_from_kraus(builtin_channel("depolarizing", {"p": 1.0, "n": 1}))
    assert chi_comparison_fidelity(chi_id1, chi_dep) == pytest.approx(0.25, abs=1e-10)


def test_chi_comparison_projects_noisy_input():
    noisy = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
    clean = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    value = chi_comparison_fidelity(noisy, clean)
    assert 0.9 < value <= 1.0 + 1e-9


def test_chi_comparison_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NumericalIntegrityError, match="Hermitian"):
        chi_comparison_fidelity(bad, np.eye(4) / 4)


def test_chi_matrix_validation():
    good = np.zeros((4, 4), dtype=complex)
    good[0, 0] = 1.0
    ChiMatrix(1, good)
    bad_tp = np.zeros((4, 4), dtype=complex)
    bad_tp[1, 1] = 1.0
    ChiMatrix(1, bad_tp)  # X conjugation is still trace preserving
    with pytest.raises(NumericalIntegrityError):
        ChiMatrix(1, np.eye(4) / 2)  # trace 2


def test_non_finite_input_rejected():
    kraus = np.eye(2, dtype=complex)
    kraus[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite entries"):
        QuantumChannel(1, (kraus,))
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="parameter 'theta' must be finite"):
            builtin_channel("polarization_unitary", {"theta": value})
    with pytest.raises(NumericalIntegrityError, match="Hermitian"):
        ChiMatrix(1, np.full((4, 4), np.nan))
