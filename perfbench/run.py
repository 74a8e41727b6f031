"""seqpt benchmark: drives ``seqpt.cli.main(argv)`` in-process on one workload.

    python3 perfbench/run.py --workload full-n2 --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop with one client: the next op (one CLI
task invocation) starts when the previous one returns.  Inputs for op i come
from ``--seed`` and i only.  Every op's reports are checked against the
dense oracle, and one op is run twice to check that its reports are
byte-identical.  The measured phase stops once the ops' own wall time adds
up to ``--seconds``; input generation, checks, garbage collection and host
speed calibration run between ops, outside the timed calls.

Op times are reported scaled to a reference host speed: each op's wall time
is multiplied by CAL_REF_S over the mean of two timings of a fixed kernel
taken just before and just after the op.  On a shared host whose speed drifts
by up to 1.8x over seconds, this keeps run-to-run spread within a few per
cent; raw wall times are kept in the provenance and results records.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced ops with ops whose layer entry points are wrapped in spans
(``tracing.py``) and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is the result object; the line before it
holds provenance.  Both also go to ``.perfbench/results/``, and the spans of
the first traced op to ``.perfbench/spans/``.

``setup_s`` is the median of several fresh processes (``--setup-probe``),
each timing import, input generation and ``build_design`` +
``validate_design`` for the workload's n, then calibrating; each set-up time
is scaled to the reference host speed like an op's.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10
KEEP_SPAN_OPS = 1
# The measured loop stops by this many seconds after start even if --seconds
# of op time has not been reached, so that a run always ends within 180 s.
LOOP_DEADLINE_S = 150.0
# Reported op times are wall times scaled to the host speed at which
# _calibrate() returns this; about its median on the 2-core host measured.
CAL_REF_S = 0.007
MAX_FAILURES_BEFORE_SUCCESS = 10


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="time one set-up in this process, print it as JSON and exit",
    )
    return parser.parse_args(argv)


def _setup_probe(workload: str, seed: int) -> dict:
    start = time.perf_counter()
    import seqpt.cli  # noqa: F401  (the program's entry point, as ops use it)
    from seqpt.mub import build_design, validate_design

    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    json.dumps(wl.make_input(seed, 0).config)
    validate_design(build_design(wl.n))
    setup = time.perf_counter() - start
    return {"setup_s": setup, "calibration_s": _calibrate()}


def _measure_setup(workload: str, seed: int) -> list[dict]:
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _tail(samples: list[float]) -> tuple[float, int, int]:
    """Nearest-rank value at the highest whole percentile that leaves at least
    TAIL_BEYOND samples above it; with too few samples, the maximum."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100, 0
    pct = (100 * (count - TAIL_BEYOND)) // count
    rank = -(-pct * count // 100)
    return ordered[rank - 1], pct, count - rank


def _iqr_share(samples: list[float]) -> float | None:
    if len(samples) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2


def _calibrate() -> float:
    """Host speed probe: the median of three timings of a fixed kernel of
    small-array numpy calls driven from Python, the instruction mix of an op."""
    import numpy as np

    a = np.arange(16, dtype=complex).reshape(4, 4) / 16.0
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0.0
        for _ in range(800):
            total += float(np.real(np.trace(a @ a.conj().T)))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _adjust(wall: float, calibration: float) -> float:
    """Wall time scaled to the reference host speed (CAL_REF_S)."""
    return wall * CAL_REF_S / calibration


class Harness:
    """Runs ops of one workload and keeps their counts, failures and calibrations."""

    def __init__(self, workload, seed: int, work: Path):
        import seqpt.cli

        self.main = seqpt.cli.main
        self.wl = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.calibration: list[float] = []

    def run_op(self, index: int, out_name: str = "out", tracer=None):
        """One op: returns (wall seconds, failure reason or None, trace summary)."""
        op = self.wl.make_input(self.seed, index)
        config_path = self.work / "input.json"
        config_path.write_text(json.dumps(op.config))
        out_dir = self.work / out_name
        if out_dir.exists():
            shutil.rmtree(out_dir)
        argv = self.wl.argv(op, config_path, out_dir)
        self.attempted += 1
        summary = None
        reason = None
        gc.collect()
        self.calibration.append(_calibrate())
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is not None:
                    tracer.begin_op(index)
                cpu0 = time.process_time()
                start = time.perf_counter()
                code = self.main(argv)
                elapsed = time.perf_counter() - start
                self.cpu_s += time.process_time() - cpu0
                self.wall_s += elapsed
                if tracer is not None:
                    summary = tracer.end_op()
        except Exception as exc:  # an op that crashes fails; the run goes on
            traceback.print_exc()
            elapsed = 0.0
            reason = f"op {index} raised {exc!r}"
        if reason is None and code != 0:
            reason = f"op {index} exited with code {code}"
        if reason is None:
            try:
                check = self.wl.check(op, out_dir)
            except Exception as exc:  # a malformed report fails the op's check
                check = f"check raised {exc!r}"
            if check is not None:
                reason = f"op {index}: {check}"
        if reason is not None:
            self.failures.append(reason)
            print(f"failed: {reason}", file=sys.stderr)
        return elapsed, reason, summary

    def determinism(self) -> None:
        """Run op 0 twice and compare every report file byte for byte."""
        _, first, _ = self.run_op(0, "det-a")
        _, second, _ = self.run_op(0, "det-b")
        if first is not None or second is not None:
            return
        a, b = self.work / "det-a", self.work / "det-b"
        names = sorted(p.name for p in a.iterdir())
        same = names == sorted(p.name for p in b.iterdir()) and all(
            (a / name).read_bytes() == (b / name).read_bytes() for name in names
        )
        if not same:
            reason = "op 0 reports differ between two identical runs"
            self.failures.append(reason)
            print(f"failed: {reason}", file=sys.stderr)


def _run(args, started: float) -> tuple[dict, dict]:
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    setup = [] if args.trace else _measure_setup(args.workload, args.seed)
    load_start = os.getloadavg()

    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    timed: list[tuple[float, int, bool]] = []  # (wall s, calibration index, traced)
    summaries: list[dict] = []
    kept_spans: list[dict] = []
    try:
        harness = Harness(wl, args.seed, work)
        harness.determinism()
        index = 1
        measured = 0.0
        while True:
            use_tracer = tracer is not None and index % 2 == 0
            if use_tracer:
                tracer.install()
            try:
                elapsed, reason, summary = harness.run_op(index, tracer=tracer if use_tracer else None)
            finally:
                if use_tracer:
                    tracer.uninstall()
            measured += elapsed
            index += 1
            if reason is None:
                timed.append((elapsed, len(harness.calibration) - 1, use_tracer))
                if summary is not None:
                    summaries.append(summary)
                    if len(summaries) <= KEEP_SPAN_OPS:
                        kept_spans.extend(tracer.spans())
            kinds = {traced for _, _, traced in timed}
            enough = kinds == ({False, True} if tracer else {False})
            if (measured >= args.seconds and enough) or time.monotonic() - started > LOOP_DEADLINE_S:
                break
            if not enough and len(harness.failures) >= MAX_FAILURES_BEFORE_SUCCESS:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not enough:
        raise SystemExit(f"no op of {wl.name} succeeded: {harness.failures[-1]}")

    # Each op's wall time is scaled to the reference host speed by the mean
    # of the calibrations taken just before and just after it.
    cal = harness.calibration + [_calibrate()]
    adjusted = [(_adjust(wall, (cal[pos] + cal[pos + 1]) / 2.0), traced) for wall, pos, traced in timed]
    plain = [t for t, traced in adjusted if not traced]
    traced = [t for t, traced in adjusted if traced]
    plain_wall = [wall for wall, _, traced in timed if not traced]
    tail, tail_pct, tail_beyond = _tail(plain)
    provenance = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "ops_timed": len(timed),
        "ops_untraced": len(plain),
        "ops_traced": len(traced),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": tail_beyond,
        "failed_ratio": len(harness.failures) / harness.attempted,
        "failures": harness.failures,
        "host_noise": {
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "op_cpu_over_wall": harness.cpu_s / harness.wall_s if harness.wall_s else None,
            "op_wall_p50_s": statistics.median(plain_wall),
            "op_wall_iqr_over_p50": _iqr_share(plain_wall),
            "op_adjusted_iqr_over_p50": _iqr_share(plain),
            "calibration_reference_s": CAL_REF_S,
            "calibration_p50_s": statistics.median(cal),
        },
        "samples": {
            "setup": setup,
            "calibration_s": cal,
            "op_wall_s": [[wall, traced] for wall, _, traced in timed],
        },
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(_adjust(p["setup_s"], p["calibration_s"]) for p in setup), "s"),
            "op_p50_s": (statistics.median(plain), "s"),
            "op_tail_s": (tail, "s"),
            "ops_per_s": (len(plain) / sum(plain), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = _layer_metrics(summaries, plain, traced)
        spans_dir = STATE / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_file = spans_dir / f"{wl.name}-seed{args.seed}.jsonl"
        spans_file.write_text("".join(json.dumps(s) + "\n" for s in kept_spans))
        provenance["spans_file"] = str(spans_file.relative_to(ROOT))
    result = {
        "correct": not harness.failures,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return provenance, result


def _layer_metrics(summaries: list[dict], plain: list[float], traced: list[float]) -> dict:
    def median_of(section: str, name: str) -> float:
        return statistics.median(s[section][name] for s in summaries)

    metrics: dict[str, tuple[float, str]] = {}
    for name, _, _ in tracing.ENTRY_POINTS:
        metrics[f"{name}.calls"] = (median_of("calls", name), "count")
        metrics[f"{name}.self_s"] = (median_of("self_s", name), "s")
    metrics[f"{tracing.ROOT_SPAN}.self_s"] = (median_of("self_s", tracing.ROOT_SPAN), "s")
    for layer in tracing.LAYERS:
        per_op = [
            sum(v for name, v in s["self_s"].items() if name.startswith(layer + "."))
            for s in summaries
        ]
        metrics[f"{layer}.self_s"] = (statistics.median(per_op), "s")
    for name in tracing.COUNTERS:
        unit = "ratio" if name.endswith("ratio") else "count"
        metrics[name] = (median_of("counters", name), unit)
    for name in ("circuits.compile_prep", "dense.basis_probabilities"):
        calls = sum(s["calls"][name] for s in summaries)
        total = sum(s["total_s"][name] for s in summaries)
        metrics[f"{name}.us_per_call"] = (1e6 * total / calls if calls else 0.0, "us")
    traced_p50 = statistics.median(traced)
    plain_p50 = statistics.median(plain)
    metrics["trace.op_p50_s"] = (traced_p50, "s")
    metrics["trace.untraced_op_p50_s"] = (plain_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
    return metrics


def main(argv=None) -> int:
    started = time.monotonic()
    args = _parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported, here and in probes
        os.environ[var] = "1"
    if not (SRC / "seqpt" / "cli.py").is_file():
        print(f"seqpt sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps(_setup_probe(args.workload, args.seed)))
        return 0
    provenance, result = _run(args, started)
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance, "result": result}, indent=2) + "\n")
    brief = {k: v for k, v in provenance.items() if k != "samples"}
    print(json.dumps({"provenance": brief}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
