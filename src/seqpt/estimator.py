"""Selective chi-matrix estimation from survival probabilities of 2-design
states.

Every element chi_ab maps to an average survival probability over the design:

    F_ab = (1/K) sum_j <phi_j| L(E_a |phi_j><phi_j| E_b) |phi_j>
         = (D chi_ab + delta_ab) / (D + 1).

Diagonal elements need one preparation per design state (a Pauli is a
translation within each basis).  Off-diagonal elements use four preparations
per state, (E_a +/- E_b)|phi_j> and (E_a -/+ i E_b)|phi_j>, each weighted by
its raw squared norm N in {0, 2, 4}; with w(beta) = N * survival probability,
the per-state contribution is

    f_j = (w(0) - w(pi)) / 4  -  i (w(3 pi/2) - w(pi/2)) / 4,

a combination pinned against the exact ground truth by the test suite.
Sampling m of the K states without replacement gives the finite-population
error sigma_pop * sqrt((1/m)(1 - (m-1)/(K-1))), which vanishes at m = K.

No circuit is compiled and no per-use object is built.  A batch of E
elements is worked one basis at a time, over integer arrays shaped
(E, D, 4): element, state i of the basis, and preparation slot, the four
beta of the combination above in its order.  The basis translation table
(E_a|phi_i> = i**k |phi_i'>, see :meth:`seqpt.mub.MubBasis.image`), read
only for the Paulis the batch names, gives m = i' of E_a, n_idx = i' of
E_b and both phase powers with integer operations.  The preparation
(E_a + e^{i beta} E_b)|phi_i> is |phi_m> + i**gamma |phi_n_idx> up to a
phase, so each slot holds

* a folded weight, the combination coefficient times the squared norm;
* an integer setting code: m for a single design state, or
  D + 4 (lo D + hi) + gamma' for the pair written with lo < hi.

A diagonal element, or an off-diagonal one whose two translations land on
one state, has a single setting per state: slot 0 holds the merged weight
and the other slots are padding with weight 0.  Each distinct code of a
basis is simulated once.  Its state is one column, or the normalized sum of
two columns, of the cached basis unitary, which also measures it.  The
probabilities are then gathered back into the populations f_j, the shot
variances and the fidelity coefficients.

Determinism contract: probabilities are memoized per experimental setting and
shot noise uses an RNG substream derived from (master seed, canonical setting
key), so results do not depend on evaluation order; estimates accumulate the
sampled states in canonical order, so the m = K estimate is bit-identical
across seeds.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .channels import QuantumChannel, ChiMatrix, TargetSupport, apply_channel, pauli_basis
from .dense import DensityMatrix, StateVector, basis_probabilities
from .mub import MubBasis, MubDesign, superposition_norm
from .paulis import (
    PauliIndex,
    PauliLike,
    as_pauli,
    pauli_from_index,
    pauli_label,
    pauli_to_index,
)

EXACT_SHOTS = "exact"

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# e^{i beta} coefficients of the four off-diagonal preparations and the
# weights they carry in the per-state combination f_j (see module docstring).
_OFFDIAG_PREPS = (
    (0, 0.25 + 0.0j),   # E_a + E_b
    (2, -0.25 + 0.0j),  # E_a - E_b
    (3, 0.0 - 0.25j),   # E_a - i E_b   (the + branch of the imaginary pair)
    (1, 0.0 + 0.25j),   # E_a + i E_b
)
_BETA_QUARTERS = np.array([beta_q for beta_q, _ in _OFFDIAG_PREPS])
_FIRST_SLOT = np.arange(len(_OFFDIAG_PREPS)) == 0
# Distinct translated states: every preparation has squared norm 2.
_PAIR_WEIGHTS = np.array(
    [coeff * superposition_norm(0, 1, beta_q) for beta_q, coeff in _OFFDIAG_PREPS]
)


def _merged_single_weight(delta: int) -> complex:
    """Weight of the one setting left when E_a and E_b translate state i to
    the same state, for phase-power difference delta; the preparation with
    zero norm drops out and the others merge in slot order."""
    merged = None
    for beta_q, coeff in _OFFDIAG_PREPS:
        squared_norm = superposition_norm(0, 0, beta_q + delta)
        if squared_norm:
            weight = coeff * squared_norm
            merged = weight if merged is None else merged + weight
    return merged


_SINGLE_WEIGHTS = np.array([_merged_single_weight(delta) for delta in range(4)])


@dataclass(frozen=True)
class SamplingPlan:
    """How to sample the design: m states without replacement, a shot count
    per setting (or exact probabilities) and the seed that fixes both the
    sampling order and all shot-noise substreams."""

    m: int
    shots: Union[int, str] = EXACT_SHOTS
    seed: int = 0
    order: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        if self.shots != EXACT_SHOTS:
            if int(self.shots) < 1:
                raise ValueError(f"shots must be positive or 'exact', got {self.shots}")
            object.__setattr__(self, "shots", int(self.shots))
        if self.order is not None:
            object.__setattr__(self, "order", tuple(int(v) for v in self.order))

    @property
    def exact(self) -> bool:
        return self.shots == EXACT_SHOTS

    def sample_order(self, k: int) -> tuple[int, ...]:
        """Permutation of [0, k); explicit order is validated, otherwise it is
        derived deterministically from the seed."""
        if self.order is not None:
            if sorted(self.order) != list(range(k)):
                raise ValueError(f"order is not a permutation of 0..{k - 1}")
            return self.order
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        return tuple(int(v) for v in rng.permutation(k))


@dataclass(frozen=True)
class ExperimentSetting:
    """One use of a physical (preparation, measurement basis) pair, as
    :meth:`ExperimentBackend.element_uses` reports it.

    ``canonical_key`` identifies the physical setting: ``(alpha, "s", m)``
    is state m of basis alpha and ``(alpha, "p", lo, hi, gamma)`` is
    (|phi_lo> + i**gamma |phi_hi>)/sqrt(2) with lo < hi, measured in basis
    alpha.  Two uses share a key exactly when the prepared state (up to a
    global phase) and the measurement basis coincide.  ``outcome`` is the
    basis state whose probability the use reads; ``weight`` is the squared
    norm of the raw preparation times its combination coefficient and
    belongs to the use, not the setting.
    """

    canonical_key: tuple
    outcome: int
    weight: complex


@dataclass(frozen=True)
class EstimationResult:
    """An estimate with its finite-population uncertainty and running trace."""

    value: complex
    std_error: float
    m_used: int
    k_total: int
    trace: tuple[tuple[int, complex], ...]
    seed: int


def error_bound(m: int, k: int) -> float:
    """sqrt((1/m)(1 - (m-1)/(k-1))): the without-replacement scaling factor.

    Decreases monotonically in m, behaves as 1/sqrt(m) for m << k and
    vanishes at m = k (the full-design sum has no sampling error).
    """
    if m < 1 or m > k:
        raise ValueError(f"m must satisfy 1 <= m <= k, got m={m}, k={k}")
    if k == 1:
        return 0.0
    return float(np.sqrt((1.0 / m) * (1.0 - (m - 1.0) / (k - 1.0))))


def _key_rng(master_seed: int, key: tuple) -> np.random.Generator:
    digest = hashlib.sha256(repr(key).encode()).digest()
    words = np.frombuffer(digest[:16], dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence([master_seed, *map(int, words)]))


def _code_count(d: int) -> int:
    """Setting codes per basis: D single states plus 4 phases of each
    ordered index pair (only lo < hi is used)."""
    return d + 4 * d * d


def _setting_key(alpha: int, code: int, d: int) -> tuple:
    """The canonical setting key that setting code ``code`` of basis alpha
    names (see :class:`ExperimentSetting`)."""
    if code < d:
        return (alpha, "s", code)
    pair, gamma_q = divmod(code - d, 4)
    lo, hi = divmod(pair, d)
    return (alpha, "p", lo, hi, gamma_q)


def _distinct_settings(alpha: int, codes: np.ndarray, d: int) -> tuple[np.ndarray, list[tuple]]:
    """The distinct setting codes among ``codes`` of basis alpha, ascending,
    and their keys."""
    live = np.flatnonzero(np.bincount(codes.ravel(), minlength=_code_count(d)))
    return live, [_setting_key(alpha, code, d) for code in live.tolist()]


def _pauli_parts(op: PauliLike, n: int) -> tuple[int, int]:
    """(Pauli index, phase power) of an element's operator."""
    if isinstance(op, (int, np.integer)):
        return PauliIndex(int(op), n).value, 0
    p = as_pauli(op, n)
    return pauli_to_index(p).value, p.phase_power


class _ElementBatch:
    """A batch of chi elements (a, b) as integer arrays; ``uses`` derives the
    uses of one basis for all of them (see the module docstring)."""

    def __init__(self, design: MubDesign, elements: Sequence[tuple[PauliLike, PauliLike]]):
        self.design = design
        parts = np.array(
            [[_pauli_parts(op, design.n) for op in element] for element in elements], dtype=int
        ).reshape(-1, 2, 2)
        index, self.phase = parts[..., 0], parts[..., 1]
        self.diagonal = (index[:, 0] == index[:, 1]) & (self.phase[:, 0] == self.phase[:, 1])
        # Only the Paulis the batch names are looked up in the tables.
        self.paulis, rows = np.unique(index, return_inverse=True)
        self.rows = rows.reshape(index.shape)
        self.popcount = np.array([v.bit_count() for v in range(design.dim)])

    def __len__(self) -> int:
        return len(self.diagonal)

    def uses(self, basis: MubBasis) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, weights)`` of every use in the basis, both shaped
        (element, state, slot); padding slots repeat slot 0's code."""
        d = self.design.dim
        states = np.arange(d)
        images = np.array([basis.image(a) for a in self.paulis.tolist()], dtype=int)
        xmask, zmask, phase = images.reshape(-1, 3).T
        # The translation rule for every looked-up Pauli and state at once:
        # X bits flip i, Y factors give i, Z or Y factors on set bits give -1.
        moved = xmask[:, None] ^ states
        power = (
            phase[:, None]
            + self.popcount[xmask & zmask][:, None]
            + 2 * self.popcount[zmask[:, None] & states]
        )
        m, n_idx = moved[self.rows[:, 0]], moved[self.rows[:, 1]]
        delta = (
            power[self.rows[:, 1]] + self.phase[:, 1:] - power[self.rows[:, 0]] - self.phase[:, :1]
        ) % 4
        pair = (m != n_idx) & ~self.diagonal[:, None]
        gamma_q = (delta[..., None] + _BETA_QUARTERS) % 4
        lo, hi = np.minimum(m, n_idx)[..., None], np.maximum(m, n_idx)[..., None]
        canonical_gamma = np.where((m < n_idx)[..., None], gamma_q, -gamma_q % 4)
        codes = np.where(pair[..., None], d + 4 * (lo * d + hi) + canonical_gamma, m[..., None])
        single = np.where(self.diagonal[:, None], 1.0 + 0.0j, _SINGLE_WEIGHTS[delta])
        weights = np.where(
            pair[..., None], _PAIR_WEIGHTS, np.where(_FIRST_SLOT, single[..., None], 0.0)
        )
        return codes, weights


def _sum_slots(terms: np.ndarray) -> np.ndarray:
    """Sum over the last (slot) axis left to right, starting from zero, so
    zero-weight padding slots leave the sum unchanged."""
    total = np.zeros(terms.shape[:-1], dtype=terms.dtype)
    for slot in range(terms.shape[-1]):
        total += terms[..., slot]
    return total


class ExperimentBackend:
    """Simulates the experiment: prepares settings, applies the channel and
    measures design-basis probabilities, memoized per canonical setting key.

    A deduplicated setting is therefore measured once and shared by every
    element that needs it, and each setting's shot noise comes from its own
    seed substream, independent of evaluation order.
    """

    def __init__(
        self,
        channel: QuantumChannel,
        design: MubDesign,
        shots: Union[int, str] = EXACT_SHOTS,
        seed: int = 0,
    ):
        if channel.n != design.n:
            raise ValueError(f"qubit counts differ: {channel.n} vs {design.n}")
        self.channel = channel
        self.design = design
        self.shots = shots
        self.seed = seed
        self._exact: dict[tuple, np.ndarray] = {}
        self._sampled: dict[tuple, np.ndarray] = {}

    @property
    def exact_shots(self) -> bool:
        return self.shots == EXACT_SHOTS

    def _prepared_state(self, key: tuple) -> StateVector:
        """The setting's state from columns of the cached basis unitary:
        U|m>, or (U|m> + i**gamma U|n_idx>)/sqrt(2) for a pair."""
        unitary = self.design.bases[key[0]].unitary
        if key[1] == "s":
            return StateVector(self.design.n, unitary[:, key[2]])
        _, _, m, n_idx, gamma_q = key
        return StateVector(
            self.design.n, (unitary[:, m] + 1j**gamma_q * unitary[:, n_idx]) * _SQRT_HALF
        )

    def exact_probabilities(self, key: tuple) -> np.ndarray:
        probs = self._exact.get(key)
        if probs is None:
            state = self._prepared_state(key)
            rho = apply_channel(self.channel, DensityMatrix.from_state(state))
            probs = basis_probabilities(rho, self.design.bases[key[0]].unitary)
            probs.flags.writeable = False
            self._exact[key] = probs
        return probs

    def outcome_probabilities(self, key: tuple) -> np.ndarray:
        """Measured outcome probabilities: exact values, or independent
        binomial draws per outcome at the configured shot count."""
        if self.exact_shots:
            return self.exact_probabilities(key)
        probs = self._sampled.get(key)
        if probs is None:
            exact = self.exact_probabilities(key)
            rng = _key_rng(self.seed, key)
            counts = rng.binomial(int(self.shots), exact)
            probs = counts / float(self.shots)
            probs.flags.writeable = False
            self._sampled[key] = probs
        return probs

    def simulate(self, alpha: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
        """Exact and measured probabilities of basis alpha's settings, one
        row per setting code (rows of codes not in ``codes`` stay zero), and
        the keys of the distinct settings, each simulated once."""
        d = self.design.dim
        live, keys = _distinct_settings(alpha, codes, d)
        exact = np.zeros((_code_count(d), d))
        exact[live] = [self.exact_probabilities(key) for key in keys]
        if self.exact_shots:
            return exact, exact, keys
        measured = np.zeros_like(exact)
        measured[live] = [self.outcome_probabilities(key) for key in keys]
        return exact, measured, keys

    def element_uses(self, a: PauliLike, b: PauliLike) -> tuple[tuple[ExperimentSetting, ...], ...]:
        """Per design state, the uses element (a, b) needs: an inspection
        view decoded from the arrays the estimator reduces."""
        batch = _ElementBatch(self.design, [(a, b)])
        d = self.design.dim
        uses = []
        for basis in self.design.bases:
            codes, weights = batch.uses(basis)
            for i in range(d):
                uses.append(tuple(
                    ExperimentSetting(_setting_key(basis.alpha, code, d), i, weight)
                    for code, weight in zip(codes[0, i].tolist(), weights[0, i].tolist())
                    if weight
                ))
        return tuple(uses)


def _populations(
    backend: ExperimentBackend, batch: _ElementBatch
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple]]:
    """Per element (row) and design state (column, basis-major): the exact
    f_j, the measured f_j and the exact binomial variance of the measured
    f_j (zero for exact probabilities); plus the keys of the settings
    simulated."""
    design = backend.design
    d = design.dim
    shape = (len(batch), design.size)
    exact = np.empty(shape, dtype=complex)
    measured = exact if backend.exact_shots else np.empty(shape, dtype=complex)
    shot_var = np.zeros(shape)
    outcome = np.arange(d)[:, None]
    keys = []
    for basis in design.bases:
        codes, weights = batch.uses(basis)
        exact_p, measured_p, basis_keys = backend.simulate(basis.alpha, codes)
        keys += basis_keys
        states = slice(basis.alpha * d, (basis.alpha + 1) * d)
        p = exact_p[codes, outcome]
        exact[:, states] = _sum_slots(weights * p)
        if not backend.exact_shots:
            measured[:, states] = _sum_slots(weights * measured_p[codes, outcome])
            shot_var[:, states] = _sum_slots(
                np.abs(weights) ** 2 * p * (1.0 - p) / float(backend.shots)
            )
    return exact, measured, shot_var, keys


def _prefix_means(values: np.ndarray, sampled_ids: Sequence[int]) -> np.ndarray:
    """Column t-1 holds each row's mean over the first t sampled states,
    summed in canonical state order.  ``take`` keeps each prefix row
    contiguous, so every row is reduced as a 1-d sum would be."""
    means = np.empty((values.shape[0], len(sampled_ids)), dtype=values.dtype)
    for t in range(1, len(sampled_ids) + 1):
        means[:, t - 1] = values.take(sorted(sampled_ids[:t]), axis=1).sum(axis=1) / t
    return means


def _affine_to_chi(mean_f, delta, d: int):
    """chi from the mean population; delta is 1.0 for a diagonal element."""
    return ((d + 1.0) * mean_f - delta) / d


def _estimate_batch(
    backend: ExperimentBackend, batch: _ElementBatch, plan: SamplingPlan
) -> tuple[list[EstimationResult], list[tuple]]:
    """Estimates of every element of the batch from one pass over the
    design, and the keys of the settings simulated."""
    design = backend.design
    k = design.size
    if plan.m > k:
        raise ValueError(f"plan.m = {plan.m} exceeds the design size {k}")
    d = design.dim
    exact, measured, shot_var, keys = _populations(backend, batch)
    sampled_ids = plan.sample_order(k)[: plan.m]
    delta = batch.diagonal.astype(float)[:, None]
    trace = _affine_to_chi(_prefix_means(measured, sampled_ids), delta, d)

    scale = (d + 1.0) / d
    pop_var = np.mean(np.abs(exact - np.mean(exact, axis=1, keepdims=True)) ** 2, axis=1)
    variance = scale**2 * pop_var * error_bound(plan.m, k) ** 2
    variance += scale**2 * np.mean(shot_var, axis=1) / plan.m
    steps = range(1, plan.m + 1)
    results = [
        EstimationResult(
            value=row[-1],
            std_error=std_error,
            m_used=plan.m,
            k_total=k,
            trace=tuple(zip(steps, row)),
            seed=plan.seed,
        )
        for row, std_error in zip(trace.tolist(), np.sqrt(variance).tolist())
    ]
    return results, keys


def exact_element(
    channel: QuantumChannel,
    a: PauliLike,
    b: PauliLike,
    design: MubDesign,
    backend: Optional[ExperimentBackend] = None,
) -> complex:
    """chi_ab from the full K-term 2-design sum with exact probabilities."""
    if backend is None:
        backend = ExperimentBackend(channel, design)
    batch = _ElementBatch(design, [(a, b)])
    mean_f = np.mean(_populations(backend, batch)[0], axis=1)
    return complex(_affine_to_chi(mean_f, batch.diagonal.astype(float), design.dim)[0])


def estimate_element(
    channel: QuantumChannel,
    a: PauliLike,
    b: PauliLike,
    plan: SamplingPlan,
    design: MubDesign,
    backend: Optional[ExperimentBackend] = None,
) -> EstimationResult:
    """Estimate chi_ab by sampling plan.m design states without replacement.

    The returned ``std_error`` is the exact finite-population deviation of
    the sampled mean (population sigma times :func:`error_bound`), plus the
    binomial shot-noise contribution when the plan uses finite shots.
    """
    if backend is None:
        backend = ExperimentBackend(channel, design, plan.shots, plan.seed)
    results, _ = _estimate_batch(backend, _ElementBatch(design, [(a, b)]), plan)
    return results[0]


@dataclass(frozen=True)
class SettingsReport:
    """Deduplication statistics for a list of requested elements.

    ``naive_probabilities`` counts 2K probabilities per real chi parameter
    (each ordered element naively needs two preparations per design state);
    ``survival_probabilities_naive`` counts K per parameter (survival only).
    Each deduplicated setting yields D outcome probabilities.
    """

    naive_probabilities: int
    survival_probabilities_naive: int
    num_settings: int
    num_probabilities: int
    settings: tuple[tuple, ...]

    def as_dict(self) -> dict:
        return {
            "naive_probabilities": self.naive_probabilities,
            "survival_probabilities_naive": self.survival_probabilities_naive,
            "num_settings": self.num_settings,
            "num_probabilities": self.num_probabilities,
        }


def _settings_report(batch: _ElementBatch, keys: Sequence[tuple]) -> SettingsReport:
    k = batch.design.size
    parameters = 2 * len(batch) - int(np.count_nonzero(batch.diagonal))
    return SettingsReport(
        naive_probabilities=2 * k * parameters,
        survival_probabilities_naive=k * parameters,
        num_settings=len(keys),
        num_probabilities=len(keys) * batch.design.dim,
        settings=tuple(sorted(keys)),
    )


def enumerate_settings(
    elements: Sequence[tuple[PauliLike, PauliLike]], design: MubDesign
) -> SettingsReport:
    """Generate, canonicalize and deduplicate every (preparation, measurement
    basis) pair the given elements need."""
    batch = _ElementBatch(design, elements)
    keys = []
    for basis in design.bases:
        keys += _distinct_settings(basis.alpha, batch.uses(basis)[0], design.dim)[1]
    return _settings_report(batch, keys)


def _element_entries(design: MubDesign) -> list[tuple[int, int]]:
    dd = design.dim**2
    return [(a, a) for a in range(dd)] + [
        (a, b) for a in range(dd) for b in range(a + 1, dd)
    ]


def full_tomography(
    channel: QuantumChannel, plan: SamplingPlan, design: MubDesign
) -> tuple[ChiMatrix, dict]:
    """Estimate every chi element (diagonals, plus a < b off-diagonals with
    Hermitian completion) and assemble the full matrix.

    The raw estimate is Hermitian by construction but is deliberately not
    projected to the positive cone; comparisons handle that separately.
    """
    backend = ExperimentBackend(channel, design, plan.shots, plan.seed)
    dd = design.dim**2
    chi = np.zeros((dd, dd), dtype=complex)
    elements = _element_entries(design)
    batch = _ElementBatch(design, elements)
    results, keys = _estimate_batch(backend, batch, plan)
    for (a, b), result in zip(elements, results):
        if a == b:
            chi[a, a] = result.value.real
        else:
            chi[a, b] = result.value
            chi[b, a] = np.conj(result.value)
    dedup = _settings_report(batch, keys)
    _, labels = pauli_basis(design.n)
    report = {
        "n": design.n,
        "plan": _plan_dict(plan),
        "dedup": dedup.as_dict(),
        "elements": [
            _element_report(design.n, a, b, result) for (a, b), result in zip(elements, results)
        ],
    }
    if design.n == 2:
        report["dedup"]["reference_probabilities"] = 560
        report["dedup"]["deviation_from_reference"] = dedup.num_probabilities - 560
    report["labels"] = list(labels)
    return ChiMatrix(design.n, chi, validate=False), report


def _plan_dict(plan: SamplingPlan) -> dict:
    return {"m": plan.m, "shots": plan.shots, "seed": plan.seed}


def _element_report(n: int, a: int, b: int, result: EstimationResult) -> dict:
    return {
        "element": [pauli_label(pauli_from_index(a, n)), pauli_label(pauli_from_index(b, n))],
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "std_error": result.std_error,
        "m": result.m_used,
        "k": result.k_total,
        "trace": [[t, v.real, v.imag] for t, v in result.trace],
        "seed": result.seed,
    }


def _sum_by_state(terms: np.ndarray, state: np.ndarray, d: int) -> np.ndarray:
    """Per basis state, the sum of its terms in the order given, from zero."""
    total = np.zeros(d)
    np.add.at(total, state, terms)
    return total


def fidelity_to_target(
    channel: QuantumChannel,
    target: Union[TargetSupport, np.ndarray],
    plan: SamplingPlan,
    design: MubDesign,
    backend: Optional[ExperimentBackend] = None,
) -> tuple[EstimationResult, dict]:
    """Average fidelity to a unitary target from its sparse chi support only.

    Per design state the element contributions are contracted with the
    target entries into a single real value, so the running estimate, the
    exact final value and the without-replacement error envelope all come
    from one scalar population.
    """
    if not isinstance(target, TargetSupport):
        target = TargetSupport.from_unitary(np.asarray(target))
    if target.n != design.n:
        raise ValueError(f"qubit counts differ: {target.n} vs {design.n}")
    if backend is None:
        backend = ExperimentBackend(channel, design, plan.shots, plan.seed)
    k = design.size
    if plan.m > k:
        raise ValueError(f"plan.m = {plan.m} exceeds the design size {k}")
    d = design.dim
    scale = (d + 1.0) / d
    nc = _code_count(d)

    diag = [(a, value.real) for (a, b), value in target.entries.items() if a == b]
    pairs = [((a, b), value) for (a, b), value in target.entries.items() if a < b]
    batch = _ElementBatch(design, [(a, a) for a, _ in diag] + [pair for pair, _ in pairs])
    # weight * (scale * f_j - 1/d) for a diagonal entry and 2 Re(value *
    # scale * f_j) for a pair distribute onto the use weights w as the
    # coefficients weight * scale * Re(w) and 2 scale Re(value * w).
    diag_scale = np.array([weight * scale for _, weight in diag])[:, None, None]
    pair_values = np.array([value for _, value in pairs], dtype=complex)[:, None, None]
    offset = 0.0
    for _, weight in diag:
        offset -= weight / d

    exact_w = np.empty(k)
    observed_w = exact_w if backend.exact_shots else np.empty(k)
    shot_var = np.zeros(k)
    keys = []
    state_major = (1, 0, 2)
    for basis in design.bases:
        codes, weights = batch.uses(basis)
        exact_p, measured_p, basis_keys = backend.simulate(basis.alpha, codes)
        keys += basis_keys
        coeffs = np.concatenate((
            diag_scale * weights[: len(diag)].real,
            2.0 * scale * (pair_values * weights[len(diag):]).real,
        ))
        # Per state, merge the coefficients of each setting in use order,
        # then sum w_j = sum c * probability over the state's settings in
        # the order they are first used.  Merging before the variance is
        # accumulated keeps the shot-noise bookkeeping exact.
        live = (weights != 0).transpose(state_major)
        setting = (np.arange(d)[:, None, None] * nc + codes.transpose(state_major))[live]
        distinct, first, which = np.unique(setting, return_index=True, return_inverse=True)
        merged = np.zeros(len(distinct))
        np.add.at(merged, which, coeffs.transpose(state_major)[live])
        in_use_order = np.argsort(first)
        state, code = np.divmod(distinct[in_use_order], nc)
        c = merged[in_use_order]
        p = exact_p[code, state]
        states = slice(basis.alpha * d, (basis.alpha + 1) * d)
        exact_w[states] = offset + _sum_by_state(c * p, state, d)
        if not backend.exact_shots:
            observed_w[states] = offset + _sum_by_state(c * measured_p[code, state], state, d)
            # float_power is the scalar c ** 2 (libm pow); c * c can differ in the last bit.
            shot_var[states] = _sum_by_state(
                np.float_power(c, 2.0) * p * (1.0 - p) / float(backend.shots), state, d
            )

    sampled_ids = plan.sample_order(k)[: plan.m]
    means = _prefix_means(observed_w[None, :], sampled_ids)[0].tolist()
    trace = tuple(
        (t, complex((d * mean_w + 1.0) / (d + 1.0))) for t, mean_w in enumerate(means, start=1)
    )
    value = trace[-1][1].real

    pop_sigma = float(np.std(exact_w))
    exact_value = (d * float(np.mean(exact_w)) + 1.0) / (d + 1.0)
    fid_scale = d / (d + 1.0)

    def envelope_sigma(t: int) -> float:
        var = pop_sigma**2 * error_bound(t, k) ** 2
        var += float(np.mean(shot_var)) / t
        return fid_scale * float(np.sqrt(var))

    result = EstimationResult(
        value=complex(value),
        std_error=envelope_sigma(plan.m),
        m_used=plan.m,
        k_total=k,
        trace=trace,
        seed=plan.seed,
    )
    dedup = _settings_report(batch, keys)
    report = {
        "n": design.n,
        "plan": _plan_dict(plan),
        "elements_estimated": len(target.entries),
        "support": [list(pair) for pair in sorted(target.entries)],
        "exact_value": exact_value,
        "dedup": dedup.as_dict(),
        "envelope": [
            [t, exact_value - 3.0 * envelope_sigma(t), exact_value + 3.0 * envelope_sigma(t)]
            for t in range(1, plan.m + 1)
        ],
    }
    return result, report
