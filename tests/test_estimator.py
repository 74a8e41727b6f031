"""Element estimation, sampling statistics, dedup and fidelity traces."""
import collections
import json
import sys

import numpy as np
import pytest

from seqpt import (
    CliffordCircuit,
    SamplingPlan,
    TargetSupport,
    build_design,
    builtin_channel,
    chi_from_kraus,
    enumerate_settings,
    error_bound,
    estimate_element,
    exact_element,
    fidelity_to_target,
    full_tomography,
    pauli_basis,
    random_channel,
)
from seqpt.channels import apply_channel_raw, controlled_uc_unitary
from seqpt.estimator import (
    _OFFDIAG_PREPS,
    ExperimentBackend,
    _ElementBatch,
    _element_entries,
    _element_report,
    _populations,
)
from seqpt.mub import design_state, superposition_norm
from seqpt.paulis import PauliOperator, as_pauli, pauli_from_index

IZ, IX, ZZ, ZX = 3, 1, 15, 13  # Pauli indices used throughout


def eq2_design_sum(channel, a, b, design):
    """Literal 2-design sum oracle: (1/K) sum_j <phi_j| L(E_a phi phi^dag E_b) |phi_j>."""
    basis, _ = pauli_basis(design.n)
    total = 0.0j
    for alpha in range(len(design.bases)):
        for i in range(design.dim):
            phi = design_state(design, alpha, i).amplitudes
            inserted = basis[a] @ np.outer(phi, phi.conj()) @ basis[b]
            total += phi.conj() @ apply_channel_raw(channel, inserted) @ phi
    f_ab = total / design.size
    d = design.dim
    delta = 1.0 if a == b else 0.0
    return ((d + 1) * f_ab - delta) / d


def loop_population(backend, a, b, sampled):
    """Loop reference for f_j: per design state, the uses from the
    translation rule, merged per setting and summed in use order."""
    design = backend.design
    pa, pb = as_pauli(a, design.n), as_pauli(b, design.n)
    probs_of = backend.outcome_probabilities if sampled else backend.exact_probabilities
    values = []
    for basis in design.bases:
        for i in range(design.dim):
            m, power_a = basis.apply_pauli(pa, i)
            n_idx, power_b = basis.apply_pauli(pb, i)
            uses = {}
            preps = [(0, 1.0 + 0.0j)] if pa == pb else _OFFDIAG_PREPS
            for beta_q, coeff in preps:
                gamma_q = (beta_q + power_b - power_a) % 4
                norm = 1.0 if pa == pb else superposition_norm(m, n_idx, gamma_q)
                if m == n_idx:
                    key = (basis.alpha, "s", m)
                elif m < n_idx:
                    key = (basis.alpha, "p", m, n_idx, gamma_q)
                else:
                    key = (basis.alpha, "p", n_idx, m, -gamma_q % 4)
                if norm:
                    uses[key] = uses[key] + coeff * norm if key in uses else coeff * norm
            total = 0.0 + 0.0j
            for key, weight in uses.items():
                total += weight * probs_of(key)[i]
            values.append(total)
    return np.array(values)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_populations_equal_loop_reference_bitwise(n, design1, design2, design3):
    design = {1: design1, 2: design2, 3: design3}[n]
    rng = np.random.default_rng(700 + n)
    backend = ExperimentBackend(random_channel(n, 2, rng), design, shots=250, seed=n)
    elements = [tuple(int(v) for v in rng.integers(0, 4**n, 2)) for _ in range(6)]
    elements += [(3, 3), (1, pauli_from_index(1, n))]
    phased = pauli_from_index(2, n)
    elements.append((PauliOperator(n, phased.x_bits, phased.z_bits, 1), 2))
    exact, measured, _, _ = _populations(backend, _ElementBatch(design, elements))
    for row, (a, b) in enumerate(elements):
        assert exact[row].tobytes() == loop_population(backend, a, b, False).tobytes()
        assert measured[row].tobytes() == loop_population(backend, a, b, True).tobytes()


def test_error_bound_values():
    assert error_bound(20, 20) == 0.0
    assert error_bound(1, 20) == 1.0
    assert error_bound(10, 20) == pytest.approx(np.sqrt(0.1 * (1 - 9 / 19)), abs=1e-15)
    assert error_bound(10, 20) == pytest.approx(0.2294157, abs=1e-7)


def test_error_bound_monotone():
    values = [error_bound(m, 20) for m in range(1, 21)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_error_bound_domain():
    with pytest.raises(ValueError):
        error_bound(0, 20)
    with pytest.raises(ValueError):
        error_bound(21, 20)


def test_exact_element_identity(design2, identity2):
    assert exact_element(identity2, 0, 0, design2) == pytest.approx(1.0, abs=1e-12)
    for a in (1, 5, 15):
        assert abs(exact_element(identity2, a, a, design2)) < 1e-12


def test_exact_element_uc_off_diagonal(design2, uc_channel):
    # c_IZ * conj(c_ZZ) = (1/2)(-1/2)
    value = exact_element(uc_channel, IZ, ZZ, design2)
    assert value == pytest.approx(-0.25, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2])
def test_exact_element_matches_ground_truth_and_eq2(n, design1, design2):
    design = design1 if n == 1 else design2
    rng = np.random.default_rng(500 + n)
    for _ in range(4):
        channel = random_channel(n, int(rng.integers(1, 4)), rng)
        truth = chi_from_kraus(channel).entries
        backend = ExperimentBackend(channel, design)
        for _ in range(6):
            a, b = (int(v) for v in rng.integers(0, 4**n, 2))
            value = exact_element(channel, a, b, design, backend=backend)
            assert abs(value - truth[a, b]) < 1e-9
            assert abs(value - eq2_design_sum(channel, a, b, design)) < 1e-9


def test_estimate_full_design_is_deterministic(design2, uc_channel):
    backend = ExperimentBackend(uc_channel, design2)
    reference = exact_element(uc_channel, IZ, ZZ, design2, backend=backend)
    for seed in (0, 1, 123):
        plan = SamplingPlan(m=20, seed=seed)
        result = estimate_element(uc_channel, IZ, ZZ, plan, design2, backend=backend)
        assert result.value == reference  # bitwise: canonical accumulation order
        assert result.std_error == 0.0
        assert result.m_used == 20 and result.k_total == 20


def test_estimate_identity_chi00(design2, identity2):
    result = estimate_element(identity2, 0, 0, SamplingPlan(m=20), design2)
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.std_error == 0.0


def test_estimate_trace_prefix_lengths(design2, uc_channel):
    plan = SamplingPlan(m=7, seed=4)
    result = estimate_element(uc_channel, IZ, ZZ, plan, design2)
    assert [t for t, _ in result.trace] == list(range(1, 8))
    assert result.trace[-1][1] == result.value


def test_estimate_m_above_design_size(design2, uc_channel):
    with pytest.raises(ValueError, match="design size"):
        estimate_element(uc_channel, IZ, ZZ, SamplingPlan(m=21), design2)


def test_estimate_unbiased_over_seeds(design2, uc_channel):
    backend = ExperimentBackend(uc_channel, design2)
    values = []
    predicted = None
    for seed in range(1000):
        result = estimate_element(
            uc_channel, IZ, ZZ, SamplingPlan(m=10, seed=seed), design2, backend=backend
        )
        values.append(result.value)
        predicted = result.std_error
    values = np.array(values)
    exact = exact_element(uc_channel, IZ, ZZ, design2, backend=backend)
    assert abs(values.mean() - exact) < 3 * predicted / np.sqrt(len(values))
    empirical = np.sqrt(np.mean(np.abs(values - values.mean()) ** 2))
    assert empirical == pytest.approx(predicted, rel=0.2)


def test_haar_average_matches_affine_map(design1):
    # Monte Carlo over Haar states: <phi| L(E_a phi phi^dag E_b) |phi>
    # averages to (D chi_ab + delta_ab)/(D + 1).
    rng = np.random.default_rng(606)
    samples = 100_000
    basis, _ = pauli_basis(1)
    for _ in range(5):
        channel = random_channel(1, int(rng.integers(1, 4)), rng)
        chi = chi_from_kraus(channel).entries
        a, b = (int(v) for v in rng.integers(0, 4, 2))
        expected = (2 * chi[a, b] + (1.0 if a == b else 0.0)) / 3
        vecs = rng.standard_normal((2, samples)) + 1j * rng.standard_normal((2, samples))
        vecs /= np.linalg.norm(vecs, axis=0)
        terms = np.zeros(samples, dtype=complex)
        for kraus in channel.kraus:
            u = np.einsum("in,in->n", vecs.conj(), (kraus @ basis[a]) @ vecs)
            v = np.einsum("in,in->n", vecs.conj(), (kraus @ basis[b]) @ vecs)
            terms += u * v.conj()
        stderr = np.sqrt(terms.real.var() + terms.imag.var()) / np.sqrt(samples)
        assert abs(terms.mean() - expected) < 5 * stderr


def test_estimate_with_shots_deterministic_per_seed(design2, uc_channel):
    plan = SamplingPlan(m=10, shots=200, seed=9)
    a = estimate_element(uc_channel, IZ, ZZ, plan, design2)
    b = estimate_element(uc_channel, IZ, ZZ, plan, design2)
    assert a.value == b.value and a.std_error == b.std_error


def test_shot_results_independent_of_evaluation_order(design2, uc_channel):
    # the substream is keyed by setting, so element order cannot matter
    plan = SamplingPlan(m=20, shots=500, seed=10)
    backend_a = ExperimentBackend(uc_channel, design2, shots=500, seed=10)
    first = estimate_element(uc_channel, IZ, ZZ, plan, design2, backend=backend_a)
    backend_b = ExperimentBackend(uc_channel, design2, shots=500, seed=10)
    estimate_element(uc_channel, IX, ZX, plan, design2, backend=backend_b)
    second = estimate_element(uc_channel, IZ, ZZ, plan, design2, backend=backend_b)
    assert first.value == second.value


def test_estimate_with_shots_converges(design2, uc_channel):
    plan = SamplingPlan(m=20, shots=40_000, seed=3)
    result = estimate_element(uc_channel, IZ, ZZ, plan, design2)
    assert result.value.real == pytest.approx(-0.25, abs=5 * result.std_error)
    assert result.std_error > 0.0


def test_sampling_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(m=0)
    with pytest.raises(ValueError):
        SamplingPlan(m=5, shots=0)
    plan = SamplingPlan(m=5, order=(4, 3, 2, 1, 0, 5))
    assert plan.sample_order(6) == (4, 3, 2, 1, 0, 5)
    with pytest.raises(ValueError, match="permutation"):
        SamplingPlan(m=5, order=(0, 0, 1)).sample_order(3)


def test_enumerate_settings_full_two_qubit_counts(design2):
    report = enumerate_settings(_element_entries(design2), design2)
    assert report.naive_probabilities == 10240
    assert report.num_settings == 140
    assert report.num_probabilities == 560


def test_enumerate_settings_diagonal_only(design2):
    elements = [(a, a) for a in range(16)]
    report = enumerate_settings(elements, design2)
    assert report.survival_probabilities_naive == 320
    assert report.num_settings == 20  # every translated prep is a design state
    assert report.num_probabilities == 80


def test_canonical_keys_identify_physical_settings(design2):
    # distinct canonical keys must give distinct prepared states (up to phase)
    backend = ExperimentBackend(builtin_channel("identity", {"n": 2}), design2)
    report = enumerate_settings(_element_entries(design2), design2)
    states = {key: backend._prepared_state(key).amplitudes for key in report.settings}
    keys = list(states)
    for i, ka in enumerate(keys):
        for kb in keys[i + 1 :]:
            if ka[0] != kb[0]:
                continue  # different measurement basis: distinct settings anyway
            overlap = abs(np.vdot(states[ka], states[kb]))
            assert overlap < 1 - 1e-9, (ka, kb)


def test_full_tomography_identity(design2, identity2):
    chi, report = full_tomography(identity2, SamplingPlan(m=20), design2)
    assert chi.entries[0, 0] == pytest.approx(1.0, abs=1e-9)
    off = chi.entries.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) < 1e-9
    assert report["dedup"]["num_probabilities"] == 560
    assert report["dedup"]["deviation_from_reference"] == 0


def test_full_tomography_uc_pattern(design2, uc_channel):
    chi, _ = full_tomography(uc_channel, SamplingPlan(m=20), design2)
    truth = chi_from_kraus(uc_channel).entries
    assert np.max(np.abs(chi.entries - truth)) < 1e-9
    nonzero = np.abs(chi.entries) > 1e-9
    assert nonzero.sum() == 16


def test_full_tomography_noisy_uc(design2):
    channel = builtin_channel("noisy_uc", {"p": 0.3})
    chi, _ = full_tomography(channel, SamplingPlan(m=20), design2)
    truth = chi_from_kraus(channel).entries
    assert np.max(np.abs(chi.entries - truth)) < 1e-9


def test_full_tomography_hermitian_by_construction(design2):
    channel = random_channel(2, 3, 808)
    chi, _ = full_tomography(channel, SamplingPlan(m=6, shots=100, seed=2), design2)
    assert np.array_equal(chi.entries, chi.entries.conj().T)


def test_fidelity_to_target_exact_values(design2, uc_channel, identity2):
    target_uc = TargetSupport.from_unitary(controlled_uc_unitary())
    target_id = TargetSupport.from_unitary(np.eye(4))
    plan = SamplingPlan(m=20)
    result, report = fidelity_to_target(identity2, target_id, plan, design2)
    assert result.value.real == pytest.approx(1.0, abs=1e-9)
    assert report["elements_estimated"] == 1
    result, report = fidelity_to_target(uc_channel, target_id, plan, design2)
    assert result.value.real == pytest.approx(0.2, abs=1e-9)
    result, report = fidelity_to_target(uc_channel, target_uc, plan, design2)
    assert result.value.real == pytest.approx(1.0, abs=1e-9)
    assert report["elements_estimated"] == 16
    noisy = builtin_channel("noisy_uc", {"p": 0.5})
    result, _ = fidelity_to_target(noisy, target_uc, plan, design2)
    assert result.value.real == pytest.approx(0.6, abs=1e-9)


def test_fidelity_trace_ends_at_exact_value(design2):
    noisy = builtin_channel("noisy_uc", {"p": 0.3})
    target = TargetSupport.from_unitary(controlled_uc_unitary())
    for seed in range(5):
        result, report = fidelity_to_target(noisy, target, SamplingPlan(m=20, seed=seed), design2)
        assert result.value.real == pytest.approx(report["exact_value"], abs=1e-12)
        assert result.std_error == 0.0
        # intermediate points stay inside the 3-sigma envelope most of the time
        inside = 0
        for (t, value), (t2, lo, hi) in zip(result.trace, report["envelope"]):
            assert t == t2
            inside += lo - 1e-12 <= value.real <= hi + 1e-12
        assert inside >= 0.9 * len(result.trace)


def test_fidelity_envelope_shrinks(design2, uc_channel):
    target = TargetSupport.from_unitary(controlled_uc_unitary())
    _, report = fidelity_to_target(uc_channel, target, SamplingPlan(m=20, seed=1), design2)
    widths = [hi - lo for _, lo, hi in report["envelope"]]
    assert widths[-1] == pytest.approx(0.0, abs=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(widths, widths[1:]))


def test_fidelity_with_shots_has_running_uncertainty(design2, uc_channel):
    target = TargetSupport.from_unitary(controlled_uc_unitary())
    plan = SamplingPlan(m=20, shots=5000, seed=6)
    result, _ = fidelity_to_target(uc_channel, target, plan, design2)
    assert result.std_error > 0.0
    assert result.value.real == pytest.approx(1.0, abs=5 * result.std_error + 0.02)


def _count_calls(monkeypatch) -> collections.Counter:
    """Count calls to the simulation and compilation entry points, wrapped in
    every seqpt module that imported them by name."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, name in (
        ("seqpt.dense", "basis_probabilities"),
        ("seqpt.circuits", "compile_prep"),
        ("seqpt.circuits", "apply_circuit"),
        ("seqpt.mub", "translate"),
    ):
        original = getattr(sys.modules[module_name], name)
        for holder_name, holder in list(sys.modules.items()):
            if holder_name.split(".")[0] == "seqpt" and getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, counted(name, original))
    monkeypatch.setattr(CliffordCircuit, "unitary", counted("unitary", CliffordCircuit.unitary))
    return counts


def test_full_tomography_compiles_nothing_per_use(monkeypatch):
    # A fresh design, so no basis has its unitary or table cached yet.
    design = build_design(2)
    counts = _count_calls(monkeypatch)
    full_tomography(random_channel(2, 2, seed=41), SamplingPlan(m=20), design)
    assert counts["basis_probabilities"] == 140
    assert counts["compile_prep"] == counts["apply_circuit"] == counts["translate"] == 0
    assert counts["unitary"] <= 5


def test_n3_element_builds_each_basis_unitary_once(monkeypatch):
    design = build_design(3)
    counts = _count_calls(monkeypatch)
    plan = SamplingPlan(m=12, shots=1000, seed=5)
    estimate_element(random_channel(3, 2, seed=42), "XYZ", "ZIY", plan, design)
    assert counts["compile_prep"] == counts["apply_circuit"] == counts["translate"] == 0
    assert counts["unitary"] <= 9


@pytest.mark.parametrize("plan", [SamplingPlan(m=20, seed=8), SamplingPlan(m=7, shots=300, seed=8)])
def test_full_tomography_matches_estimate_element_bitwise(design2, plan):
    channel = random_channel(2, 3, seed=43)
    _, report = full_tomography(channel, plan, design2)
    rng = np.random.default_rng(44)
    elements = _element_entries(design2)
    for pos in rng.choice(len(elements), size=12, replace=False):
        a, b = elements[pos]
        result = estimate_element(channel, a, b, plan, design2)
        expected = _element_report(2, a, b, result)
        assert json.dumps(report["elements"][pos]) == json.dumps(expected)


def test_full_tomography_n3_exact(design3):
    channel = random_channel(3, 2, seed=45)
    chi, report = full_tomography(channel, SamplingPlan(m=72), design3)
    assert np.max(np.abs(chi.entries - chi_from_kraus(channel).entries)) < 1e-12
    assert report["dedup"]["num_settings"] == 1080


def test_element_reads_translation_images_of_its_paulis_only(monkeypatch):
    # A fresh design has no image cached; one element needs its two Paulis
    # in each of the 9 bases.
    design = build_design(3)
    counts = collections.Counter()
    original = sys.modules["seqpt.mub"].conjugate_pauli

    def counted(*args, **kwargs):
        counts["conjugate_pauli"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(sys.modules["seqpt.mub"], "conjugate_pauli", counted)
    plan = SamplingPlan(m=12, shots=1000, seed=5)
    estimate_element(random_channel(3, 2, seed=46), "XYZ", "ZIY", plan, design)
    assert counts["conjugate_pauli"] == 2 * 9
