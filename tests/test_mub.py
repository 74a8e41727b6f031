"""Mutually unbiased bases: construction, 2-design property, translation."""
import numpy as np
import pytest

from seqpt import (
    PauliOperator,
    build_design,
    conjugate_pauli,
    design_state,
    frame_potential,
    pauli_from_index,
    pauli_from_label,
    pauli_label,
    pauli_to_matrix,
    translate,
    validate_design,
)
from seqpt.errors import UnsupportedSizeError
from seqpt.mub import subgroup_indices
from seqpt.paulis import commutes, pauli_masks


def test_single_qubit_basis_order(design1):
    labels = [[pauli_label(g) for g in b.generators] for b in design1.bases]
    assert labels == [["Z"], ["X"], ["Y"]]
    assert design1.bases[0].circuit.gates == ()


def test_two_qubit_generator_sets_are_the_fixed_partition(design2):
    labels = [tuple(pauli_label(g) for g in b.generators) for b in design2.bases]
    assert labels == [
        ("ZI", "IZ"),
        ("XI", "IX"),
        ("YI", "IY"),
        ("XY", "YZ"),
        ("YX", "ZY"),
    ]


def test_three_qubit_design_shape(design3):
    assert len(design3.bases) == 9
    for basis in design3.bases:
        assert len(basis.generators) == 3
        for i, g in enumerate(basis.generators):
            for h in basis.generators[i + 1 :]:
                assert commutes(g, h)
        assert len(subgroup_indices(basis.generators)) == 7


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partition_covers_every_pauli_once(n, design1, design2, design3):
    design = {1: design1, 2: design2, 3: design3}[n]
    seen = []
    for basis in design.bases:
        seen.extend(subgroup_indices(basis.generators))
    assert sorted(seen) == list(range(1, 4**n))


@pytest.mark.parametrize("n", [1, 2])
def test_unbiasedness_exhaustive(n, design1, design2):
    design = design1 if n == 1 else design2
    d = design.dim
    states = design.states()
    for j, sj in enumerate(states):
        for k, sk in enumerate(states):
            overlap = abs(sj.overlap(sk)) ** 2
            if j // d == k // d:
                expected = 1.0 if j == k else 0.0
            else:
                expected = 1.0 / d
            assert overlap == pytest.approx(expected, abs=1e-10)


def test_unbiasedness_sampled_n3(design3):
    rng = np.random.default_rng(9)
    d = design3.dim
    for _ in range(200):
        aj, ak = rng.integers(0, 9, 2)
        i, j = rng.integers(0, d, 2)
        overlap = abs(design_state(design3, int(aj), int(i)).overlap(design_state(design3, int(ak), int(j)))) ** 2
        if aj == ak:
            expected = 1.0 if i == j else 0.0
        else:
            expected = 1.0 / d
        assert overlap == pytest.approx(expected, abs=1e-10)


def test_design_state_examples(design1, design2):
    assert np.array_equal(design_state(design2, 0, 0).amplitudes, [1, 0, 0, 0])
    plus = design_state(design1, 1, 0).amplitudes
    assert np.allclose(plus, [1, 1] / np.sqrt(2), atol=1e-12)


def test_design_states_are_generator_eigenstates(design2):
    for basis in design2.bases:
        mats = [pauli_to_matrix(g) for g in basis.generators]
        for i in range(design2.dim):
            state = design_state(design2, basis.alpha, i).amplitudes
            for k, mat in enumerate(mats):
                sign = -1.0 if (i >> (design2.n - 1 - k)) & 1 else 1.0
                assert np.allclose(mat @ state, sign * state, atol=1e-10)


def test_design_state_range_errors(design2):
    with pytest.raises(ValueError, match="basis index"):
        design_state(design2, 5, 0)
    with pytest.raises(ValueError, match="state index"):
        design_state(design2, 0, 4)


def test_translate_examples(design2):
    i_prime, phase = translate(design2, 0, 0, pauli_from_label("XI"))
    assert (i_prime, phase) == (2, 1.0 + 0.0j)
    i_prime, phase = translate(design2, 0, 1, pauli_from_label("ZZ"))
    assert (i_prime, phase) == (1, -1.0 + 0.0j)
    # a phase on the operator carries through: (i XI)|00> = i|10>
    i_prime, phase = translate(design2, 0, 0, PauliOperator(2, (1, 0), (0, 0), 1))
    assert (i_prime, phase) == (2, 1j)


def test_translate_exhaustive_n2(design2):
    for alpha in range(5):
        for i in range(4):
            phi = design_state(design2, alpha, i).amplitudes
            for a in range(16):
                i_prime, phase = translate(design2, alpha, i, a)
                target = design_state(design2, alpha, i_prime).amplitudes
                moved = pauli_to_matrix(pauli_from_index(a, 2)) @ phi
                assert np.max(np.abs(moved - phase * target)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_translation_table_is_exact(n, design1, design2, design3):
    # every cached image is the circuit conjugation C^dag E_a C, and the
    # (i', k) it gives satisfies U^dag E_a U |i> = i**k |i'> densely
    design = {1: design1, 2: design2, 3: design3}[n]
    d = design.dim
    for basis in design.bases:
        unitary = basis.unitary
        for a in range(4**n):
            op = pauli_from_index(a, n)
            assert basis.image(a) == pauli_masks(conjugate_pauli(basis.circuit, op, "reverse"))
            moved = unitary.conj().T @ pauli_to_matrix(op) @ unitary
            expected = np.zeros((d, d), dtype=complex)
            for i in range(d):
                i_prime, k = basis.apply_pauli(op, i)
                expected[i_prime, i] = 1j**k
            assert np.max(np.abs(moved - expected)) < 1e-12


def test_basis_caches_are_read_only(design2):
    basis = design2.bases[3]
    assert basis.unitary is basis.unitary
    with pytest.raises(ValueError):
        basis.unitary[0, 0] = 0.0


def test_translate_index_is_anticommutation_pattern(design2):
    # i' differs from i exactly on the bits of anticommuting generators
    for alpha in range(5):
        basis = design2.bases[alpha]
        for a in range(16):
            op = pauli_from_index(a, 2)
            flips = 0
            for k, g in enumerate(basis.generators):
                if not commutes(op, g):
                    flips |= 1 << (design2.n - 1 - k)
            for i in range(4):
                i_prime, _ = translate(design2, alpha, i, a)
                assert i_prime == i ^ flips


def test_frame_potential_values(design1, design2):
    assert frame_potential(design1) == pytest.approx(1 / 3, abs=1e-12)
    assert frame_potential(design2) == pytest.approx(0.1, abs=1e-12)


def test_frame_potential_single_basis_control(design2):
    # one orthonormal basis alone is not a 2-design
    states = [design_state(design2, 0, i) for i in range(4)]
    assert frame_potential(states) > 0.1


def test_validate_design_passes(design3):
    report = validate_design(design3)
    assert report["passed"]
    assert all(check["passed"] for check in report["checks"])


def test_unsupported_sizes_rejected():
    with pytest.raises(UnsupportedSizeError):
        build_design(0)
    with pytest.raises(UnsupportedSizeError):
        build_design(4)
