"""The three benchmark workloads: input generation, CLI argument lists and
per-op output checks against the dense oracle.

Every op gets its own inputs, drawn from ``SeedSequence([seed, index])``, so
no two ops of a run see the same channel and no cross-call cache can hit on
repeated inputs.  The benchmark generates channels itself (Ginibre Kraus
operators whitened to trace preservation) and hands the program only the
resulting config JSON, Pauli labels and sampling seeds.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from seqpt.channels import (
    TargetSupport,
    average_fidelity,
    builtin_channel,
    chi_from_kraus,
    controlled_uc_unitary,
    kraus_channel,
    pauli_basis,
)

# An element-n3 estimate passes when it lies within this many reported
# standard errors of the oracle element (plus 1e-12 for rounding).  The
# without-replacement mean of 12 of 72 values cannot stray further than about
# 8.4 sigma, and random channels give populations far from that extreme.
ELEMENT_SIGMA_MULTIPLE = 6.0
ORACLE_ATOL = 1e-12


@dataclass(frozen=True)
class OpInput:
    """Everything one op needs: the config document written for ``--config``,
    the remaining CLI flags, and what the output check compares against."""

    config: dict
    flags: tuple[str, ...]
    expect: dict


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _random_kraus(rng: np.random.Generator, n: int, num_kraus: int) -> list[np.ndarray]:
    d = 2**n
    shape = (num_kraus, d, d)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    total = np.einsum("kji,kjl->il", raw.conj(), raw)
    values, vectors = np.linalg.eigh(total)
    inv_sqrt = vectors @ np.diag(values**-0.5) @ vectors.conj().T
    return [mat @ inv_sqrt for mat in raw]


def _kraus_json(kraus: list[np.ndarray]) -> list:
    return [
        [[[float(z.real), float(z.imag)] for z in row] for row in mat] for mat in kraus
    ]


def _kraus_from_json(doc: list) -> list[np.ndarray]:
    return [np.array([[complex(re, im) for re, im in row] for row in mat]) for mat in doc]


def _op_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text())


class Workload:
    """One CLI task at fixed parameters; subclasses make inputs and check
    outputs.  ``check`` returns None on success, else the reason it failed."""

    name: str
    task: str
    n: int

    def make_input(self, seed: int, index: int) -> OpInput:
        raise NotImplementedError

    def argv(self, op: OpInput, config_path: Path, out_dir: Path) -> list[str]:
        return [self.task, "--config", str(config_path), *op.flags, "--out", str(out_dir)]

    def check(self, op: OpInput, out_dir: Path) -> Optional[str]:
        raise NotImplementedError


class FullN2(Workload):
    name = "full-n2"
    task = "full"
    n = 2

    def make_input(self, seed: int, index: int) -> OpInput:
        rng = _rng(seed, index)
        kraus = _random_kraus(rng, self.n, 2)
        flags = ("--n", "2", "--m", "20", "--shots", "exact", "--seed", str(_op_seed(rng)))
        return OpInput({"channel": {"kraus": _kraus_json(kraus)}}, flags, {})

    def check(self, op: OpInput, out_dir: Path) -> Optional[str]:
        report = _load_json(out_dir / "full_report.json")
        dedup = report["dedup"]
        if (dedup["num_settings"], dedup["num_probabilities"]) != (140, 560):
            return f"dedup {dedup['num_settings']}/{dedup['num_probabilities']}, expected 140/560"
        if not (out_dir / "chi_matrix.csv").is_file():
            return "chi_matrix.csv missing"
        chi = np.array(report["chi_re"]) + 1j * np.array(report["chi_im"])
        kraus = _kraus_from_json(op.config["channel"]["kraus"])
        truth = chi_from_kraus(kraus_channel(self.n, kraus)).entries
        err = float(np.max(np.abs(chi - truth)))
        if not err <= ORACLE_ATOL:
            return f"chi differs from the oracle by {err:.3e}"
        return None


class ElementN3(Workload):
    name = "element-n3"
    task = "element"
    n = 3

    def make_input(self, seed: int, index: int) -> OpInput:
        rng = _rng(seed, index)
        kraus = _random_kraus(rng, self.n, 2)
        labels = ["".join(p) for p in itertools.product("IXYZ", repeat=self.n)]
        a, b = (labels[int(v)] for v in rng.choice(len(labels), size=2, replace=False))
        flags = (
            "--n", "3", "-a", a, "-b", b,
            "--m", "12", "--shots", "10000", "--seed", str(_op_seed(rng)),
        )
        return OpInput({"channel": {"kraus": _kraus_json(kraus)}}, flags, {"element": [a, b]})

    def check(self, op: OpInput, out_dir: Path) -> Optional[str]:
        report = _load_json(out_dir / "element_report.json")
        if (report["m"], report["k"]) != (12, 72):
            return f"m/k {report['m']}/{report['k']}, expected 12/72"
        if report["element"] != op.expect["element"]:
            return f"element {report['element']}, expected {op.expect['element']}"
        kraus = _kraus_from_json(op.config["channel"]["kraus"])
        labels = pauli_basis(self.n)[1]
        a, b = (labels.index(label) for label in op.expect["element"])
        truth = chi_from_kraus(kraus_channel(self.n, kraus)).entries[a, b]
        value = complex(report["value_re"], report["value_im"])
        allowed = ELEMENT_SIGMA_MULTIPLE * report["std_error"] + ORACLE_ATOL
        if not abs(value - truth) <= allowed:
            return f"estimate {value} is {abs(value - truth):.3e} from the oracle, allowed {allowed:.3e}"
        return None


class ConvergenceN2(Workload):
    name = "convergence-n2"
    task = "convergence"
    n = 2
    orders = 10

    def make_input(self, seed: int, index: int) -> OpInput:
        rng = _rng(seed, index)
        p = float(rng.uniform(0.05, 0.45))
        flags = (
            "--n", "2", "--target", "controlled_uc", "--orders", str(self.orders),
            "--shots", "exact", "--seed", str(_op_seed(rng)),
        )
        return OpInput({"channel": {"name": "noisy_uc", "params": {"p": p}}}, flags, {})

    def check(self, op: OpInput, out_dir: Path) -> Optional[str]:
        report = _load_json(out_dir / "convergence_report.json")
        files = sorted(p.name for p in out_dir.iterdir())
        if len(files) != self.orders + 2 or len(report["finals"]) != self.orders:
            return f"{len(files)} report files and {len(report['finals'])} finals for {self.orders} orders"
        channel = builtin_channel("noisy_uc", op.config["channel"]["params"])
        target = TargetSupport.from_unitary(controlled_uc_unitary())
        truth = average_fidelity(chi_from_kraus(channel), target)
        err = abs(report["exact_value"] - truth)
        if not err <= ORACLE_ATOL:
            return f"exact_value differs from the oracle fidelity by {err:.3e}"
        return None


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (FullN2(), ElementN3(), ConvergenceN2())
}
