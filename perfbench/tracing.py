"""Span tracing around seqpt's layer entry points, from outside the program.

``Tracer.install`` replaces each entry point listed in ``ENTRY_POINTS`` with a
wrapper that records a span (name, start, end, parent span) into flat
in-memory lists; ``uninstall`` puts the originals back, so untraced ops run
the program's own functions with no wrapper in the call path.  Module-level
functions are replaced in every loaded ``seqpt`` module that holds a
reference to them (``from .x import f`` copies the name), methods on their
class.

Per op, ``end_op`` derives from the spans each entry point's call count, self
time (its span minus the time its child spans cover) and inclusive time, plus
the estimator counters the benchmark reports.
"""
from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Optional

# (span name, module, attribute path).  The span name is "<layer>.<entry>",
# with the layer named after the module.
ENTRY_POINTS = (
    ("mub.build_design", "seqpt.mub", "build_design"),
    ("mub.validate_design", "seqpt.mub", "validate_design"),
    ("mub.translate", "seqpt.mub", "translate"),
    ("circuits.compile_prep", "seqpt.circuits", "compile_prep"),
    ("circuits.apply_circuit", "seqpt.circuits", "apply_circuit"),
    ("circuits.CliffordCircuit.unitary", "seqpt.circuits", "CliffordCircuit.unitary"),
    ("channels.apply_channel", "seqpt.channels", "apply_channel"),
    ("dense.basis_probabilities", "seqpt.dense", "basis_probabilities"),
    ("estimator.element_uses", "seqpt.estimator", "ExperimentBackend.element_uses"),
    ("estimator.exact_probabilities", "seqpt.estimator", "ExperimentBackend.exact_probabilities"),
    ("estimator.outcome_probabilities", "seqpt.estimator", "ExperimentBackend.outcome_probabilities"),
    ("estimator.estimate_element", "seqpt.estimator", "estimate_element"),
    ("estimator.fidelity_to_target", "seqpt.estimator", "fidelity_to_target"),
    ("estimator.full_tomography", "seqpt.estimator", "full_tomography"),
    ("estimator.enumerate_settings", "seqpt.estimator", "enumerate_settings"),
    ("cli.execute", "seqpt.cli", "execute"),
)
ROOT_SPAN = "cli.main"
SPAN_NAMES = (ROOT_SPAN,) + tuple(name for name, _, _ in ENTRY_POINTS)
LAYERS = ("mub", "circuits", "channels", "dense", "estimator", "cli")
COUNTERS = ("estimator.uses", "estimator.settings", "estimator.cache_hit_ratio", "estimator.shots_drawn")


class Tracer:
    """Records spans for one op at a time; see the module docstring."""

    def __init__(self):
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack: list[int] = [-1]
        self._uses = 0
        self._shots = 0
        self._sampled: dict[int, tuple[object, set]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._op_id = -1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks: dict[str, Callable] = {
            "estimator.element_uses": self._count_uses,
            "estimator.outcome_probabilities": self._count_shots,
        }
        for name_id, (name, module_name, path) in enumerate(ENTRY_POINTS, start=1):
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, original, hooks.get(name))
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if (mod_name == "seqpt" or mod_name.startswith("seqpt.")) and getattr(
                    module, attr, None
                ) is original:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name_id: int, fn: Callable, after: Optional[Callable]) -> Callable:
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters -----------------------------------------------------------

    def _count_uses(self, args, result) -> None:
        self._uses += sum(len(uses) for uses in result)

    def _count_shots(self, args, result) -> None:
        backend, key = args[0], args[1]
        if backend.exact_shots:
            return
        # Backends live only within an op; holding a reference keeps id() unique.
        _, seen = self._sampled.setdefault(id(backend), (backend, set()))
        if key not in seen:
            seen.add(key)
            self._shots += int(backend.shots)

    # -- per-op recording -----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        for buf in (self._name, self._parent, self._start, self._end):
            buf.clear()
        del self._stack[1:]
        self._uses = self._shots = 0
        self._sampled.clear()
        self._op_id = op_id
        self._name.append(0)
        self._parent.append(-1)
        self._end.append(0.0)
        self._stack.append(0)
        self._start.append(time.perf_counter())

    def end_op(self) -> dict:
        """Close the op's root span; return its per-entry and counter figures."""
        self._end[0] = time.perf_counter()
        self._stack.pop()
        self._sampled.clear()
        count = len(self._start)
        child = [0.0] * count
        for idx in range(1, count):
            child[self._parent[idx]] += self._end[idx] - self._start[idx]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        total_s = [0.0] * len(SPAN_NAMES)
        for idx in range(count):
            name_id = self._name[idx]
            duration = self._end[idx] - self._start[idx]
            calls[name_id] += 1
            self_s[name_id] += duration - child[idx]
            total_s[name_id] += duration
        summary = {
            "op_s": self._end[0] - self._start[0],
            "calls": dict(zip(SPAN_NAMES, calls)),
            "self_s": dict(zip(SPAN_NAMES, self_s)),
            "total_s": dict(zip(SPAN_NAMES, total_s)),
        }
        settings = summary["calls"]["dense.basis_probabilities"]
        lookups = summary["calls"]["estimator.exact_probabilities"]
        summary["counters"] = {
            "estimator.uses": self._uses,
            "estimator.settings": settings,
            "estimator.cache_hit_ratio": 1.0 - settings / lookups if lookups else 0.0,
            "estimator.shots_drawn": self._shots,
        }
        return summary

    def spans(self) -> list[dict]:
        """The current op's spans as records, for writing out."""
        return [
            {
                "op": self._op_id,
                "span": idx,
                "name": SPAN_NAMES[self._name[idx]],
                "parent": self._parent[idx],
                "start": self._start[idx],
                "end": self._end[idx],
            }
            for idx in range(len(self._start))
        ]
