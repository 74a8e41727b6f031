"""Command-line front end.

Tasks: ``full`` (complete chi reconstruction), ``element`` (one chi element),
``fidelity`` (average fidelity to a unitary target), ``convergence``
(fidelity traces for several sampling orders), ``validate`` (design and
channel invariant checks) and ``design-info``.

Options come from an optional JSON config document plus flags; flags win.
The resolved configuration is embedded in every report, and identical
configuration plus seed produces byte-identical output files.  Exit codes:
0 success, 2 configuration error, 3 numerical-integrity failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .channels import (
    QuantumChannel,
    TargetSupport,
    builtin_channel,
    chi_from_kraus,
    kraus_channel,
)
from .errors import NumericalIntegrityError
from .estimator import (
    EXACT_SHOTS,
    SamplingPlan,
    estimate_element,
    enumerate_settings,
    full_tomography,
    fidelity_to_target,
    _element_report,
)
from .mub import build_design, design_report, validate_design
from .paulis import pauli_from_label, pauli_to_index

TASKS = ("full", "element", "fidelity", "convergence", "validate", "design-info")
SEED_ENV_VAR = "SEQPT_SEED"


@dataclass
class RunConfig:
    task: str
    n: int = 2
    channel: dict = field(default_factory=lambda: {"name": "identity"})
    m: Optional[int] = None
    shots: object = EXACT_SHOTS
    seed: int = 0
    orders: int = 10
    target: Optional[str] = None
    element_a: Optional[str] = None
    element_b: Optional[str] = None
    out: str = "."

    def as_dict(self) -> dict:
        # provenance record: every experiment parameter, but not the output path
        return {
            "task": self.task,
            "n": self.n,
            "channel": self.channel,
            "m": self.m,
            "shots": self.shots,
            "seed": self.seed,
            "orders": self.orders,
            "target": self.target,
            "element": [self.element_a, self.element_b],
        }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Config document keys: (accepts value, description for the error message).
_CONFIG_KEYS = {
    "n": (_is_int, "an integer"),
    "channel": (
        lambda v: isinstance(v, dict) and isinstance(v.get("params", {}), dict),
        "an object with optional object 'params'",
    ),
    "m": (lambda v: v is None or _is_int(v), "an integer or null"),
    "shots": (lambda v: v == EXACT_SHOTS or _is_int(v), "an integer or 'exact'"),
    "seed": (_is_int, "an integer"),
    "orders": (_is_int, "an integer"),
    "target": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "element": (
        lambda v: isinstance(v, list) and len(v) == 2 and all(isinstance(s, str) for s in v),
        "a list of two Pauli labels",
    ),
    "element_a": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "element_b": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "out": (lambda v: isinstance(v, str), "a string"),
}


def _kraus_matrices(doc) -> list[np.ndarray]:
    """Explicit Kraus operators from nested ``[re, im]`` number pairs."""
    try:
        pairs = np.array(doc)
    except ValueError:  # ragged nesting
        pairs = None
    if pairs is None or pairs.dtype.kind not in "iuf" or pairs.ndim != 4 or pairs.shape[-1] != 2:
        raise ValueError("channel 'kraus' must be a list of square matrices of [re, im] number pairs")
    return list(np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0])


def _build_channel(spec: dict, n: int) -> QuantumChannel:
    if "kraus" in spec:
        return kraus_channel(n, _kraus_matrices(spec["kraus"]))
    params = dict(spec.get("params", {}))
    name = spec.get("name")
    if name is None:
        raise ValueError("channel spec requires a 'name' or explicit 'kraus'")
    if name in ("identity", "depolarizing"):
        # Checked before building: these channels grow as 4**n.
        requested = params.setdefault("n", n)
        if requested != n:
            raise ValueError(f"channel {name!r} acts on {requested} qubits, config says {n}")
    channel = builtin_channel(name, params)
    if channel.n != n:
        raise ValueError(f"channel {name!r} acts on {channel.n} qubits, config says {n}")
    return channel


def _target_support(name: str, n: int) -> TargetSupport:
    channel = _build_channel({"name": name}, n)
    if len(channel.kraus) != 1:
        raise ValueError(f"target {name!r} is not unitary")
    return TargetSupport.from_unitary(channel.kraus[0])


def _plan(config: RunConfig, k: int, seed: Optional[int] = None) -> SamplingPlan:
    m = config.m if config.m is not None else k
    if m > k:
        raise ValueError(f"m = {m} exceeds the design size {k}")
    return SamplingPlan(m=m, shots=config.shots, seed=config.seed if seed is None else seed)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _run_full(config: RunConfig, out: Path) -> int:
    design = build_design(config.n)
    channel = _build_channel(config.channel, config.n)
    plan = _plan(config, design.size)
    chi, report = full_tomography(channel, plan, design)
    report["config"] = config.as_dict()
    report["chi_re"] = np.real(chi.entries).tolist()
    report["chi_im"] = np.imag(chi.entries).tolist()
    report["chi_comparison_psd_projection"] = True
    _write_json(out / "full_report.json", report)
    labels = report["labels"]
    rows = [
        [labels[a], labels[b], repr(chi.entries[a, b].real), repr(chi.entries[a, b].imag)]
        for a in range(len(labels))
        for b in range(len(labels))
    ]
    _write_csv(out / "chi_matrix.csv", ["a", "b", "re", "im"], rows)
    dedup = report["dedup"]
    print(
        f"full tomography: {dedup['num_settings']} settings, "
        f"{dedup['num_probabilities']} probabilities "
        f"(naive {dedup['naive_probabilities']})"
    )
    return 0


def _run_element(config: RunConfig, out: Path) -> int:
    if not config.element_a or not config.element_b:
        raise ValueError("task 'element' requires -a and -b Pauli labels")
    design = build_design(config.n)
    channel = _build_channel(config.channel, config.n)
    plan = _plan(config, design.size)
    a = pauli_from_label(config.element_a)
    b = pauli_from_label(config.element_b)
    result = estimate_element(channel, a, b, plan, design)
    dedup = enumerate_settings([(a, b)], design)
    report = _element_report(config.n, pauli_to_index(a).value, pauli_to_index(b).value, result)
    report["settings_naive"] = dedup.naive_probabilities
    report["settings_deduped"] = dedup.num_settings
    report["probabilities_measured"] = dedup.num_probabilities
    report["config"] = config.as_dict()
    _write_json(out / "element_report.json", report)
    print(
        f"chi[{config.element_a},{config.element_b}] = "
        f"{result.value.real:+.6f}{result.value.imag:+.6f}i "
        f"(std {result.std_error:.2e}, m={result.m_used}/{result.k_total})"
    )
    return 0


def _run_fidelity(config: RunConfig, out: Path) -> int:
    if not config.target:
        raise ValueError("task 'fidelity' requires --target")
    design = build_design(config.n)
    channel = _build_channel(config.channel, config.n)
    plan = _plan(config, design.size)
    target = _target_support(config.target, config.n)
    result, report = fidelity_to_target(channel, target, plan, design)
    report["config"] = config.as_dict()
    report["value"] = result.value.real
    report["std_error"] = result.std_error
    report["trace"] = [[t, v.real] for t, v in result.trace]
    _write_json(out / "fidelity_report.json", report)
    envelope = {t: (lo, hi) for t, lo, hi in report["envelope"]}
    rows = [
        [t, repr(v.real), repr(envelope[t][0]), repr(envelope[t][1]), plan.seed]
        for t, v in result.trace
    ]
    _write_csv(
        out / "fidelity_trace.csv",
        ["m", "estimate", "lower_envelope", "upper_envelope", "seed"],
        rows,
    )
    print(
        f"fidelity to {config.target}: {result.value.real:.6f} "
        f"(std {result.std_error:.2e}, m={result.m_used}/{result.k_total})"
    )
    return 0


def _run_convergence(config: RunConfig, out: Path) -> int:
    if not config.target:
        raise ValueError("task 'convergence' requires --target")
    if config.orders < 1:
        raise ValueError("--orders must be at least 1")
    design = build_design(config.n)
    channel = _build_channel(config.channel, config.n)
    target = _target_support(config.target, config.n)
    seeds = [config.seed + r for r in range(config.orders)]
    finals = []
    envelope_rows = None
    for run_seed in seeds:
        plan = _plan(config, design.size, seed=run_seed)
        result, report = fidelity_to_target(channel, target, plan, design)
        envelope = {t: (lo, hi) for t, lo, hi in report["envelope"]}
        rows = [
            [t, repr(v.real), repr(envelope[t][0]), repr(envelope[t][1]), run_seed]
            for t, v in result.trace
        ]
        _write_csv(
            out / f"convergence_seed{run_seed}.csv",
            ["m", "estimate", "lower_envelope", "upper_envelope", "seed"],
            rows,
        )
        finals.append([run_seed, result.value.real, result.std_error])
        if envelope_rows is None:
            envelope_rows = [[t, repr(lo), repr(hi)] for t, lo, hi in report["envelope"]]
            exact_value = report["exact_value"]
    _write_csv(out / "envelope.csv", ["m", "lower_envelope", "upper_envelope"], envelope_rows)
    summary = {
        "config": config.as_dict(),
        "exact_value": exact_value,
        "finals": finals,
        "seeds": seeds,
    }
    _write_json(out / "convergence_report.json", summary)
    print(
        f"convergence to {config.target}: {len(seeds)} orders, "
        f"exact value {exact_value:.6f}"
    )
    return 0


def _run_validate(config: RunConfig, out: Path) -> int:
    design = build_design(config.n)
    design_checks = validate_design(design)
    channel = _build_channel(config.channel, config.n)
    chi = chi_from_kraus(channel)  # raises on invariant violations
    checks = list(design_checks["checks"])
    checks.append({"name": "channel_chi_invariants", "max_error": 0.0, "passed": True})
    report = {
        "config": config.as_dict(),
        "passed": design_checks["passed"],
        "checks": checks,
        "chi_trace": float(np.trace(chi.entries).real),
    }
    _write_json(out / "validate_report.json", report)
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']} (max error {check['max_error']:.2e})")
    if not design_checks["passed"]:
        raise NumericalIntegrityError("design invariants failed")
    return 0


def _run_design_info(config: RunConfig, out: Path) -> int:
    design = build_design(config.n)
    report = design_report(design)
    report["config"] = config.as_dict()
    _write_json(out / "design_info.json", report)
    print(f"design for n={config.n}: {len(report['bases'])} bases, {report['num_states']} states")
    return 0


_RUNNERS = {
    "full": _run_full,
    "element": _run_element,
    "fidelity": _run_fidelity,
    "convergence": _run_convergence,
    "validate": _run_validate,
    "design-info": _run_design_info,
}


def execute(config: RunConfig) -> int:
    """Run one task, writing reports under ``config.out``."""
    if config.task not in _RUNNERS:
        raise ValueError(f"unknown task {config.task!r}")
    if config.shots != EXACT_SHOTS:
        config.shots = int(config.shots)
        if config.shots < 1:
            raise ValueError("shots must be positive or 'exact'")
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[config.task](config, out)


def _parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="seqpt",
        description="Selective quantum process tomography simulator",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--n", type=int, help="qubit count (default 2)")
    parser.add_argument("--channel", help="built-in channel name")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="channel parameter, repeatable (e.g. --param p=0.3)",
    )
    parser.add_argument("-a", dest="element_a", help="row Pauli label for 'element'")
    parser.add_argument("-b", dest="element_b", help="column Pauli label for 'element'")
    parser.add_argument("--target", help="unitary target channel name for fidelity tasks")
    parser.add_argument("--m", type=int, help="design states sampled per element (default: all)")
    parser.add_argument("--shots", help="counts per setting, or 'exact' (default)")
    parser.add_argument("--seed", type=int, help=f"master seed (default ${SEED_ENV_VAR} or 0)")
    parser.add_argument("--orders", type=int, help="number of sampling orders for 'convergence'")
    parser.add_argument("--out", help="output directory (default '.')")
    args = parser.parse_args(argv)

    settings: dict = {}
    if args.config:
        settings = json.loads(Path(args.config).read_text())
        if not isinstance(settings, dict):
            raise ValueError("config document must be a JSON object")
    task = settings.pop("task", args.task)
    if task != args.task:
        raise ValueError(f"config task {task!r} conflicts with argument {args.task!r}")
    for key, value in settings.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        accepts, expected = _CONFIG_KEYS[key]
        if not accepts(value):
            raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
    if "element" in settings:
        settings["element_a"], settings["element_b"] = settings.pop("element")

    config = RunConfig(task=args.task, **settings)

    if args.n is not None:
        config.n = args.n
    if args.channel is not None:
        config.channel = {"name": args.channel, "params": {}}
    for item in args.param:
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--param expects KEY=VALUE, got {item!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        config.channel.setdefault("params", {})[key] = parsed
    for attr in ("element_a", "element_b", "target", "m", "orders", "out"):
        value = getattr(args, attr)
        if value is not None:
            setattr(config, attr, value)
    if args.shots is not None:
        config.shots = args.shots if args.shots == EXACT_SHOTS else int(args.shots)
    if args.seed is not None:
        config.seed = args.seed
    elif "seed" not in settings and SEED_ENV_VAR in os.environ:
        config.seed = int(os.environ[SEED_ENV_VAR])
    return config


def main(argv=None) -> int:
    try:
        config = _parse_args(argv)
        return execute(config)
    except NumericalIntegrityError as exc:
        print(f"numerical integrity failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
