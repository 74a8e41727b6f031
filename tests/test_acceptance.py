"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""
import itertools

import numpy as np
import pytest

from seqpt import (
    SamplingPlan,
    StateVector,
    TargetSupport,
    apply_circuit,
    builtin_channel,
    chi_comparison_fidelity,
    chi_from_kraus,
    compile_prep,
    enumerate_settings,
    error_bound,
    estimate_element,
    exact_element,
    fidelity_to_target,
    frame_potential,
    full_tomography,
    pauli_basis,
    random_channel,
)
from seqpt.channels import controlled_uc_unitary
from seqpt.estimator import ExperimentBackend, _element_entries
from seqpt.mub import design_state

from conftest import random_unitary

IZ, ZZ = 3, 15


def report(line):
    print(f"\n[ACCEPTANCE] {line}")


def test_criterion_1_design_sum_equals_ground_truth(design1, design2):
    """Eq. 1/Eq. 2 equivalence for 50 random CP channels."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(25):  # n = 1: all 16 ordered (a, b) pairs
        channel = random_channel(1, int(rng.integers(1, 5)), rng)
        truth = chi_from_kraus(channel).entries
        backend = ExperimentBackend(channel, design1)
        for a in range(4):
            for b in range(4):
                value = exact_element(channel, a, b, design1, backend=backend)
                worst = max(worst, abs(value - truth[a, b]))
    for _ in range(25):  # n = 2: 50 random pairs each
        channel = random_channel(2, int(rng.integers(1, 5)), rng)
        truth = chi_from_kraus(channel).entries
        backend = ExperimentBackend(channel, design2)
        for _ in range(50):
            a, b = (int(v) for v in rng.integers(0, 16, 2))
            value = exact_element(channel, a, b, design2, backend=backend)
            worst = max(worst, abs(value - truth[a, b]))
    assert worst < 1e-9
    report(f"criterion 1 PASS: 2-design sum vs ground truth, worst |diff| = {worst:.2e}")


def test_criterion_2_full_reconstruction(design2, uc_channel, identity2):
    """Full tomography: exact patterns at m=K, fidelity >= 0.99 at 1e4 shots."""
    plan = SamplingPlan(m=20)
    chi_id, _ = full_tomography(identity2, plan, design2)
    assert chi_id.entries[0, 0] == pytest.approx(1.0, abs=1e-9)
    rest = chi_id.entries.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-9

    chi_uc, _ = full_tomography(uc_channel, plan, design2)
    truth_uc = chi_from_kraus(uc_channel).entries
    nonzero = np.abs(chi_uc.entries) > 1e-9
    assert nonzero.sum() == 16
    assert np.allclose(np.abs(chi_uc.entries[nonzero]), 0.25, atol=1e-9)
    assert np.max(np.abs(chi_uc.entries - truth_uc)) < 1e-9

    fidelities = []
    for channel, truth in ((identity2, chi_id.entries), (uc_channel, truth_uc)):
        noisy_plan = SamplingPlan(m=20, shots=10_000, seed=21)
        chi_hat, _ = full_tomography(channel, noisy_plan, design2)
        fidelities.append(chi_comparison_fidelity(chi_hat.entries, truth))
    assert all(f >= 0.99 for f in fidelities)
    report(
        "criterion 2 PASS: exact reconstruction patterns; shot-noise fidelities "
        + ", ".join(f"{f:.4f}" for f in fidelities)
    )


def test_criterion_3_dedup_counts(design2):
    """Naive 10240 probabilities collapse to <= 600 (target 560 / 140 settings)."""
    dedup = enumerate_settings(_element_entries(design2), design2)
    assert dedup.naive_probabilities == 10240
    assert dedup.num_probabilities <= 600
    deviation = dedup.num_probabilities - 560
    assert deviation == 0, f"convention diff vs reference count: {deviation:+d}"
    assert dedup.num_settings == 140
    report(
        f"criterion 3 PASS: naive {dedup.naive_probabilities} -> "
        f"{dedup.num_settings} settings / {dedup.num_probabilities} probabilities "
        f"(deviation from 560: {deviation:+d})"
    )


def test_criterion_4_error_scaling_law(design2, uc_channel):
    """Empirical std over 1000 seeds matches sigma_pop * sqrt((1/m)(1-(m-1)/(K-1)))."""
    # independent population oracle: dense per-state design-sum terms
    basis, _ = pauli_basis(2)
    from seqpt.channels import apply_channel_raw

    population = np.empty(20, dtype=complex)
    for j in range(20):
        phi = design_state(design2, j // 4, j % 4).amplitudes
        inserted = basis[IZ] @ np.outer(phi, phi.conj()) @ basis[ZZ]
        f_j = phi.conj() @ apply_channel_raw(uc_channel, inserted) @ phi
        population[j] = (5.0 * f_j) / 4.0  # (D+1)/D, delta_ab = 0
    sigma_pop = float(np.sqrt(np.mean(np.abs(population - population.mean()) ** 2)))

    backend = ExperimentBackend(uc_channel, design2)
    ratios = []
    for m in (2, 5, 10, 15, 19):
        predicted = sigma_pop * error_bound(m, 20)
        values = np.empty(1000, dtype=complex)
        for seed in range(1000):
            result = estimate_element(
                uc_channel, IZ, ZZ, SamplingPlan(m=m, seed=seed), design2, backend=backend
            )
            values[seed] = result.value
            assert result.std_error == pytest.approx(predicted, abs=1e-12)
        empirical = float(np.sqrt(np.mean(np.abs(values - values.mean()) ** 2)))
        assert empirical == pytest.approx(predicted, rel=0.10), f"m={m}"
        ratios.append(empirical / predicted)
    finals = {
        estimate_element(
            uc_channel, IZ, ZZ, SamplingPlan(m=20, seed=seed), design2, backend=backend
        ).value
        for seed in range(1000)
    }
    assert len(finals) == 1  # exactly zero spread at m = K
    assert error_bound(20, 20) == 0.0
    report(
        "criterion 4 PASS: empirical/predicted std ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + "; zero spread at m=K over 1000 seeds"
    )


def test_criterion_5_convergence_traces(design2):
    """Fidelity traces for 10 sampling orders: exact endpoints, 3-sigma coverage,
    statistical separation of the clean and noisy gates."""
    channels = {
        "identity": builtin_channel("identity", {"n": 2}),
        "uc": builtin_channel("controlled_uc"),
        "noisy_uc": builtin_channel("noisy_uc", {"p": 0.3}),
    }
    targets = {
        "identity": TargetSupport.from_unitary(np.eye(4)),
        "uc": TargetSupport.from_unitary(controlled_uc_unitary()),
    }
    inside = 0
    intermediate = 0
    finals: dict[tuple[str, str], tuple[float, float]] = {}
    for ch_name, channel in channels.items():
        for t_name, target in targets.items():
            backend = ExperimentBackend(channel, design2)
            for seed in range(10):
                plan = SamplingPlan(m=20, seed=seed)
                result, rep = fidelity_to_target(channel, target, plan, design2, backend=backend)
                assert result.value.real == pytest.approx(rep["exact_value"], abs=1e-9)
                finals[(ch_name, t_name)] = (result.value.real, result.std_error)
                for (t, value), (_, lo, hi) in zip(result.trace[:-1], rep["envelope"][:-1]):
                    intermediate += 1
                    inside += lo - 1e-12 <= value.real <= hi + 1e-12
    coverage = inside / intermediate
    assert coverage >= 0.95
    uc_final, uc_err = finals[("uc", "uc")]
    noisy_final, noisy_err = finals[("noisy_uc", "uc")]
    assert uc_final - 3 * uc_err > noisy_final + 3 * noisy_err
    assert uc_final == pytest.approx(1.0, abs=1e-9)
    assert noisy_final == pytest.approx(0.76, abs=1e-9)
    report(
        f"criterion 5 PASS: 60 traces end exact, 3-sigma coverage {coverage:.3f}, "
        f"final F(uc)={uc_final:.3f} vs F(noisy)={noisy_final:.3f} separated"
    )


def test_criterion_6_two_design_certification(design1, design2):
    """Frame potential and mutual unbiasedness at their exact values."""
    fp1 = frame_potential(design1)
    fp2 = frame_potential(design2)
    assert fp1 == pytest.approx(1 / 3, abs=1e-12)
    assert fp2 == pytest.approx(0.1, abs=1e-12)
    worst = 0.0
    for design in (design1, design2):
        d = design.dim
        states = design.states()
        for j, sj in enumerate(states):
            for k, sk in enumerate(states):
                if j // d == k // d:
                    continue
                worst = max(worst, abs(abs(sj.overlap(sk)) ** 2 - 1.0 / d))
    assert worst < 1e-10
    report(
        f"criterion 6 PASS: frame potentials {fp1:.12f}, {fp2:.12f}; "
        f"worst unbiasedness error {worst:.2e}"
    )


def _prep_program_fidelity(design, alpha, i, a, b, beta_q):
    """Compile (E_a + i**beta_q E_b)|phi_i^(alpha)>, check its weight against
    the dense raw norm, and return the prepared state's fidelity to the
    normalized target (None for a null program)."""
    basis, _ = pauli_basis(design.n)
    program = compile_prep(design, alpha, i, a, b, beta_q * np.pi / 2)
    assert program.squared_norm in (0.0, 2.0, 4.0)
    phi = design_state(design, alpha, i).amplitudes
    raw = (basis[a] + 1j**beta_q * basis[b]) @ phi
    norm_sq = float(np.vdot(raw, raw).real)
    assert program.squared_norm == pytest.approx(norm_sq, abs=1e-10)
    if program.is_null:
        return None
    state = apply_circuit(program.circuit, StateVector.computational(design.n, 0))
    return abs(np.vdot(state.amplitudes, raw / np.sqrt(norm_sq))) ** 2


def test_criterion_7_prep_compiler_exhaustive(design2):
    """All 9600 (alpha, i, a<b, beta) programs reach fidelity >= 1 - 1e-9."""
    count = 0
    nulls = 0
    worst_fidelity = 1.0
    for alpha in range(5):
        for i in range(4):
            for a, b in itertools.combinations(range(16), 2):
                for beta_q in range(4):
                    fid = _prep_program_fidelity(design2, alpha, i, a, b, beta_q)
                    count += 1
                    if fid is None:
                        nulls += 1
                        continue
                    worst_fidelity = min(worst_fidelity, fid)
                    assert fid >= 1 - 1e-9
    assert count == 9600
    report(
        f"criterion 7 PASS: {count} programs ({nulls} null), "
        f"worst fidelity 1 - {1 - worst_fidelity:.2e}"
    )


def test_criterion_7_prep_compiler_sampled_n3(design3):
    """A seeded sample of 2000 n = 3 programs reaches fidelity >= 1 - 1e-9."""
    rng = np.random.default_rng(7007)
    nulls = 0
    worst_fidelity = 1.0
    for _ in range(2000):
        alpha, i, beta_q = int(rng.integers(9)), int(rng.integers(8)), int(rng.integers(4))
        a, b = sorted(int(v) for v in rng.choice(64, size=2, replace=False))
        fid = _prep_program_fidelity(design3, alpha, i, a, b, beta_q)
        if fid is None:
            nulls += 1
            continue
        worst_fidelity = min(worst_fidelity, fid)
        assert fid >= 1 - 1e-9
    report(
        f"criterion 7 (n = 3 sample) PASS: 2000 programs ({nulls} null), "
        f"worst fidelity 1 - {1 - worst_fidelity:.2e}"
    )


def test_criterion_8_average_fidelity_haar(design1):
    """Fidelity formula vs Monte Carlo Haar average, 5 channels, 1e5 samples."""
    rng = np.random.default_rng(8008)
    samples = 100_000
    sigmas = []
    for _ in range(5):
        channel = random_channel(1, int(rng.integers(1, 4)), rng)
        unitary = random_unitary(2, rng)
        target = TargetSupport.from_unitary(unitary, tol=1e-14)
        formula = (chi_from_kraus(channel), target)
        from seqpt import average_fidelity

        formula = average_fidelity(*formula)
        vecs = rng.standard_normal((2, samples)) + 1j * rng.standard_normal((2, samples))
        vecs /= np.linalg.norm(vecs, axis=0)
        values = np.zeros(samples)
        for kraus in channel.kraus:
            amp = np.einsum("in,in->n", vecs.conj(), (unitary.conj().T @ kraus) @ vecs)
            values += np.abs(amp) ** 2
        stderr = values.std() / np.sqrt(samples)
        deviation = abs(values.mean() - formula)
        assert deviation < 5 * stderr
        sigmas.append(deviation / stderr)
    report(
        "criterion 8 PASS: Haar MC deviations (in std errors) "
        + ", ".join(f"{s:.2f}" for s in sigmas)
    )
