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

No circuit is compiled or simulated here.  Each use comes from integer
operations on the basis translation table (E_a|phi_i> = i**k |phi_i'>, see
:meth:`seqpt.mub.MubBasis.image`): the preparation (E_a + e^{i beta} E_b)
|phi_i> is |phi_m> + i**gamma |phi_n_idx> up to a phase, with m = i' of E_a
and n_idx = i' of E_b.  Each setting's state is one column, or the
normalized sum of two columns, of the cached basis unitary, which also
measures it.

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
from .mub import MubDesign, superposition_norm
from .paulis import (
    PauliLike,
    as_pauli,
    masked_action,
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
    """One use of a physical (preparation, measurement basis) pair.

    ``canonical_key`` identifies the physical setting: two uses share a key
    exactly when the prepared state (up to a global phase) and the
    measurement basis coincide.  ``weight`` is the squared norm of the raw
    preparation and belongs to the use, not the setting.
    """

    alpha: int
    kind: str  # "single" or "pair"
    m: int
    n_idx: int
    gamma_quarters: int
    outcome: int
    weight: complex  # squared norm times the combination coefficient

    @property
    def canonical_key(self) -> tuple:
        if self.kind == "single":
            return (self.alpha, "s", self.m)
        if self.m <= self.n_idx:
            return (self.alpha, "p", self.m, self.n_idx, self.gamma_quarters)
        return (self.alpha, "p", self.n_idx, self.m, (-self.gamma_quarters) % 4)


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
        self._uses: dict[tuple, tuple[tuple[ExperimentSetting, ...], ...]] = {}

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

    def element_uses(self, a: PauliLike, b: PauliLike) -> tuple[tuple[ExperimentSetting, ...], ...]:
        """Per design state, the (deduplicated within the state) uses needed
        for element (a, b); cached per element."""
        pa = as_pauli(a, self.design.n)
        pb = as_pauli(b, self.design.n)
        ia, ib = pauli_to_index(pa).value, pauli_to_index(pb).value
        uses = self._uses.get((ia, ib))
        if uses is None:
            uses = []
            for basis in self.design.bases:
                xa, za, phase_a = basis.image(ia)
                xb, zb, phase_b = basis.image(ib)
                image_a = (xa, za, phase_a + pa.phase_power)
                image_b = (xb, zb, phase_b + pb.phase_power)
                uses.extend(
                    _state_uses(basis.alpha, i, image_a, image_b, pa == pb)
                    for i in range(self.design.dim)
                )
            uses = self._uses[(ia, ib)] = tuple(uses)
        return uses


def _state_uses(alpha, i, image_a, image_b, diagonal) -> tuple[ExperimentSetting, ...]:
    """Experiment uses contributing to f_j for design state (alpha, i).

    ``image_a``/``image_b`` are the basis's translation-table entries for
    E_a and E_b, so E_a|phi_i> = i**power_a |phi_m> and E_b|phi_i> =
    i**power_b |phi_n_idx>.  The returned weights fold the +-1/4 (and -+i/4)
    combination coefficients into the preparation norms, so f_j is just
    sum(weight * probability).  Null preparations are dropped; uses that
    share a physical setting within the state are merged.
    """
    m, power_a = masked_action(*image_a, i)
    if diagonal:
        return (ExperimentSetting(alpha, "single", m, m, 0, i, 1.0 + 0.0j),)
    n_idx, power_b = masked_action(*image_b, i)
    kind = "single" if m == n_idx else "pair"
    merged: dict[tuple, ExperimentSetting] = {}
    for beta_q, coeff in _OFFDIAG_PREPS:
        gamma_q = (beta_q + power_b - power_a) % 4
        squared_norm = superposition_norm(m, n_idx, gamma_q)
        if squared_norm == 0.0:
            continue
        use = ExperimentSetting(alpha, kind, m, n_idx, gamma_q, i, coeff * squared_norm)
        key = use.canonical_key
        if key in merged:
            prev = merged[key]
            merged[key] = ExperimentSetting(
                prev.alpha, prev.kind, prev.m, prev.n_idx, prev.gamma_quarters,
                prev.outcome, prev.weight + use.weight,
            )
        else:
            merged[key] = use
    return tuple(merged.values())


def _population(backend: ExperimentBackend, a: PauliLike, b: PauliLike, sampled: bool) -> np.ndarray:
    """f_j for every design state, in canonical (basis-major) order."""
    uses_per_state = backend.element_uses(a, b)
    values = np.zeros(len(uses_per_state), dtype=complex)
    probs_of = backend.outcome_probabilities if sampled else backend.exact_probabilities
    for j, uses in enumerate(uses_per_state):
        total = 0.0 + 0.0j
        for use in uses:
            total += use.weight * probs_of(use.canonical_key)[use.outcome]
        values[j] = total
    return values


def _shot_variances(backend: ExperimentBackend, a: PauliLike, b: PauliLike) -> np.ndarray:
    """Exact binomial variance of each f_j estimate at the backend's shot
    count (zero for exact probabilities)."""
    uses_per_state = backend.element_uses(a, b)
    variances = np.zeros(len(uses_per_state))
    if backend.exact_shots:
        return variances
    shots = float(backend.shots)
    for j, uses in enumerate(uses_per_state):
        var = 0.0
        for use in uses:
            p = float(backend.exact_probabilities(use.canonical_key)[use.outcome])
            var += abs(use.weight) ** 2 * p * (1.0 - p) / shots
        variances[j] = var
    return variances


def _affine_to_chi(mean_f: complex, diagonal: bool, d: int) -> complex:
    return ((d + 1.0) * mean_f - (1.0 if diagonal else 0.0)) / d


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
    pa = as_pauli(a, design.n)
    pb = as_pauli(b, design.n)
    population = _population(backend, pa, pb, sampled=False)
    return _affine_to_chi(complex(np.mean(population)), pa == pb, design.dim)


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
    k = design.size
    if plan.m > k:
        raise ValueError(f"plan.m = {plan.m} exceeds the design size {k}")
    if backend is None:
        backend = ExperimentBackend(channel, design, plan.shots, plan.seed)
    pa = as_pauli(a, design.n)
    pb = as_pauli(b, design.n)
    diagonal = pa == pb
    d = design.dim

    order = plan.sample_order(k)
    sampled_ids = order[: plan.m]
    measured = _population(backend, pa, pb, sampled=True) if not backend.exact_shots else None
    exact_pop = _population(backend, pa, pb, sampled=False)
    observed = measured if measured is not None else exact_pop

    trace = []
    for t in range(1, plan.m + 1):
        prefix = sorted(sampled_ids[:t])
        mean_f = complex(np.sum(observed[prefix]) / t)
        trace.append((t, _affine_to_chi(mean_f, diagonal, d)))
    value = trace[-1][1]

    scale = (d + 1.0) / d
    pop_var = float(np.mean(np.abs(exact_pop - np.mean(exact_pop)) ** 2))
    variance = scale**2 * pop_var * error_bound(plan.m, k) ** 2
    shot_var = _shot_variances(backend, pa, pb)
    variance += scale**2 * float(np.mean(shot_var)) / plan.m
    return EstimationResult(
        value=value,
        std_error=float(np.sqrt(variance)),
        m_used=plan.m,
        k_total=k,
        trace=tuple(trace),
        seed=plan.seed,
    )


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


def enumerate_settings(
    elements: Sequence[tuple[PauliLike, PauliLike]],
    design: MubDesign,
    backend: Optional[ExperimentBackend] = None,
) -> SettingsReport:
    """Generate, canonicalize and deduplicate every (preparation, measurement
    basis) pair the given elements need."""
    if backend is None:
        backend = ExperimentBackend(
            QuantumChannel(design.n, (np.eye(design.dim, dtype=complex),)), design
        )
    k = design.size
    keys: set[tuple] = set()
    parameters = 0
    for a, b in elements:
        pa = as_pauli(a, design.n)
        pb = as_pauli(b, design.n)
        parameters += 1 if pa == pb else 2
        for uses in backend.element_uses(pa, pb):
            keys.update(use.canonical_key for use in uses)
    return SettingsReport(
        naive_probabilities=2 * k * parameters,
        survival_probabilities_naive=k * parameters,
        num_settings=len(keys),
        num_probabilities=len(keys) * design.dim,
        settings=tuple(sorted(keys)),
    )


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
    per_element = []
    for a, b in elements:
        result = estimate_element(channel, a, b, plan, design, backend=backend)
        if a == b:
            chi[a, a] = result.value.real
        else:
            chi[a, b] = result.value
            chi[b, a] = np.conj(result.value)
        per_element.append(((a, b), result))
    dedup = enumerate_settings(elements, design, backend=backend)
    _, labels = pauli_basis(design.n)
    report = {
        "n": design.n,
        "plan": _plan_dict(plan),
        "dedup": dedup.as_dict(),
        "elements": [
            _element_report(design.n, a, b, result) for (a, b), result in per_element
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

    diag = [(a, value.real) for (a, b), value in target.entries.items() if a == b]
    pairs = [((a, b), value) for (a, b), value in target.entries.items() if a < b]
    elements = [(a, a) for a, _ in diag] + [pair for pair, _ in pairs]

    # Per design state, fold every element contribution into one real
    # coefficient per (setting, outcome), so that w_j = sum c * probability.
    # Shared settings are merged before the variance is accumulated, which
    # keeps the shot-noise bookkeeping exact.
    coeff_maps: list[dict[tuple, float]] = [dict() for _ in range(k)]
    offsets = np.zeros(k)

    def accumulate(element, multiplier_for):
        for j, uses in enumerate(backend.element_uses(*element)):
            cmap = coeff_maps[j]
            for use in uses:
                c = multiplier_for(use.weight)
                key = (use.canonical_key, use.outcome)
                cmap[key] = cmap.get(key, 0.0) + c

    for a, weight in diag:
        # weight * (scale * f_j - 1/d); f_j coefficients are real here.
        accumulate((a, a), lambda w, wt=weight: wt * scale * w.real)
        offsets -= weight / d
    for (a, b), value in pairs:
        # 2 Re(value * scale * f_j) distributes onto the use coefficients.
        accumulate((a, b), lambda w, v=value: 2.0 * scale * (v * w).real)

    def combined(sampled: bool) -> np.ndarray:
        probs_of = backend.outcome_probabilities if sampled else backend.exact_probabilities
        w = offsets.copy()
        for j, cmap in enumerate(coeff_maps):
            w[j] += sum(c * probs_of(key)[outcome] for (key, outcome), c in cmap.items())
        return w

    exact_w = combined(sampled=False)
    shot_var = np.zeros(k)
    if backend.exact_shots:
        observed_w = exact_w
    else:
        observed_w = combined(sampled=True)
        shots = float(backend.shots)
        for j, cmap in enumerate(coeff_maps):
            shot_var[j] = sum(
                c**2
                * float(backend.exact_probabilities(key)[outcome])
                * (1.0 - float(backend.exact_probabilities(key)[outcome]))
                / shots
                for (key, outcome), c in cmap.items()
            )

    order = plan.sample_order(k)
    sampled_ids = order[: plan.m]
    trace = []
    for t in range(1, plan.m + 1):
        prefix = sorted(sampled_ids[:t])
        mean_w = float(np.sum(observed_w[prefix]) / t)
        trace.append((t, complex((d * mean_w + 1.0) / (d + 1.0))))
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
        trace=tuple(trace),
        seed=plan.seed,
    )
    dedup = enumerate_settings(elements, design, backend=backend)
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
