"""Self-test of the benchmark harness; makes no wall-clock assertion.

    python3 perfbench/selftest.py

1. For each workload, one traced op through ``run.Harness``: the traced
   counters must agree with the CLI's own dedup report (140 settings / 560
   probabilities on full-n2).
2. For each workload and trace mode, a short ``run.py`` run: its last output
   line must follow the result contract, with exactly the metric names and
   units that ``BENCHMARK.json`` lists.
3. ``run.py`` in a directory holding only ``BENCHMARK.json`` and the
   benchmark's own files must exit nonzero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
import tracing

SEED = 3


class Checks:
    """Prints each check as it runs and keeps the messages of those that fail."""

    def __init__(self):
        self.failures: list[str] = []

    def __call__(self, condition: bool, message: str) -> None:
        print(("ok    " if condition else "FAIL  ") + message)
        if not condition:
            self.failures.append(message)


def traced_op(expect: Checks, wl, work, cli_main) -> None:
    harness = run.Harness(wl, SEED, work)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, reason, summary = harness.run_op(1, tracer=tracer)
    finally:
        tracer.uninstall()
    expect(reason is None, f"{wl.name}: traced op passes its output check ({reason})")
    if reason is not None:
        return
    counters = summary["counters"]
    settings = counters["estimator.settings"]
    expect(
        settings == summary["calls"]["dense.basis_probabilities"],
        f"{wl.name}: settings counter equals basis_probabilities calls",
    )
    expect(0.0 <= counters["estimator.cache_hit_ratio"] < 1.0, f"{wl.name}: cache hit ratio in [0, 1)")
    out = work / "out"
    if wl.name == "full-n2":
        dedup = json.loads((out / "full_report.json").read_text())["dedup"]
        expect(settings == dedup["num_settings"] == 140, f"full-n2: {settings} traced settings, 140 in the report")
        expect(
            settings * 4 == dedup["num_probabilities"] == 560,
            "full-n2: traced settings x D = 560 reported probabilities",
        )
    elif wl.name == "element-n3":
        report = json.loads((out / "element_report.json").read_text())
        expect(settings == report["settings_deduped"], f"element-n3: {settings} traced settings match the report")
        expect(
            settings * 8 == report["probabilities_measured"],
            "element-n3: traced settings x D = reported probabilities",
        )
        expect(
            counters["estimator.shots_drawn"] == settings * 10000,
            "element-n3: 10000 shots drawn per simulated setting",
        )
    else:
        # convergence reports no dedup; the fidelity task on the same input does.
        fidelity_out = work / "fidelity"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(
                ["fidelity", "--config", str(work / "input.json"), "--n", "2",
                 "--target", "controlled_uc", "--out", str(fidelity_out)]
            )
        expect(code == 0, "convergence-n2: fidelity task on the same input succeeds")
        dedup = json.loads((fidelity_out / "fidelity_report.json").read_text())["dedup"]
        expect(
            settings == wl.orders * dedup["num_settings"],
            f"convergence-n2: {settings} traced settings = {wl.orders} orders x {dedup['num_settings']}",
        )


def contract_run(expect: Checks, name: str, trace: int, spec: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    label = f"{name} --trace {trace}"
    expect(proc.returncode == 0, f"{label}: exit code 0 ({proc.stderr.strip()[-200:]})")
    if proc.returncode != 0:
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{label}: correct, no failed op")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 3, f"{label}: attempted counts ops")
    listed = spec["per_layer" if trace else "end_to_end"]
    expect(
        {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed},
        f"{label}: metric names and units match BENCHMARK.json",
    )


def bare_checkout(expect: Checks) -> None:
    bare = run.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "full-n2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(
            proc.returncode != 0 and '"metrics"' not in proc.stdout,
            "without the program's sources run.py exits nonzero and prints no result",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import seqpt.cli
    from workloads import WORKLOADS

    expect = Checks()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.STATE / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for wl in WORKLOADS.values():
            traced_op(expect, wl, work, seqpt.cli.main)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expect(sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"]), "workloads match BENCHMARK.json")
    for name in WORKLOADS:
        for trace in (0, 1):
            contract_run(expect, name, trace, spec)
    bare_checkout(expect)
    print(f"selftest: {len(expect.failures)} failure(s)")
    return 1 if expect.failures else 0


if __name__ == "__main__":
    sys.exit(main())
