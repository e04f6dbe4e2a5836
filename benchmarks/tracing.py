"""Spans recorded from outside the program.

The tracer replaces public functions of the `digrate` modules with thin
wrappers that record one span per call: name, start, end, parent and an
optional extra value (a snapshot hash, a byte count, an iteration count).
Spans stay in memory and are written out after the pass. Nothing in `src/`
knows about it; `Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import time
from pathlib import Path

# (owner inside the digrate package, attribute, span name). An owner with a
# dot is a class inside a module. A module that imports a name with
# `from .x import f` holds its own binding, so the importing module is
# patched as well as the defining one.
WRAPPED = (
    ("algorithms", "run", "algorithms.run"),
    ("algorithms", "diging_step", "algorithms.step"),
    ("algorithms", "diging_atc_step", "algorithms.step"),
    ("algorithms", "push_diging_step", "algorithms.step"),
    ("algorithms", "dgd_step", "algorithms.step"),
    ("algorithms", "subgradient_push_step", "algorithms.step"),
    ("algorithms", "block_gradient", "objectives.grad"),
    ("algorithms", "solve_reference", "objectives.reference"),
    ("objectives", "solve_reference", "objectives.reference"),
    ("graphs.GraphSequence", "snapshot", "graphs.snapshot"),
    ("graphs", "is_jointly_connected", "graphs.connectivity"),
    ("mixing", "metropolis", "mixing.build"),
    ("mixing", "lazy_metropolis", "mixing.build"),
    ("mixing", "out_degree_column", "mixing.build"),
    ("mixing", "estimate_delta", "mixing.estimate_delta"),
    ("mixing", "spectral_deviation", "mixing.spectral"),
    ("harness", "section6_problem", "harness.problem"),
    ("harness", "geometric_segment", "harness.rate_fit"),
    ("harness", "rate_fit", "harness.rate_fit"),
    ("harness", "diging_rate", "rates.certificate"),
    ("harness", "diging_step_size_window", "rates.certificate"),
    ("rates", "diging_rate", "rates.certificate"),
    ("rates", "diging_step_size_window", "rates.certificate"),
    ("rates", "diging_rate_constant", "rates.certificate"),
    ("rates", "network_scalability_rate", "rates.certificate"),
    ("rates", "lazy_metropolis_rate", "rates.certificate"),
    ("rates", "audit_small_gain", "rates.audit"),
    ("traces.RunTrace", "write", "traces.write"),
    ("traces.RunTrace", "read", "traces.read"),
)


def _snapshot_key(args, kwargs, result):
    # distinct (rule, snapshot) pairs measure how many builds were useful
    return hash((result.rule, args[0]))


def _bytes_written(args, kwargs, result):
    path = Path(args[1])
    sidecar = path.with_name(path.name + ".audit.json")
    return path.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0)


def _reference_iters(args, kwargs, result):
    return result.iterations


EXTRA = {
    "mixing.build": _snapshot_key,
    "traces.write": _bytes_written,
    "objectives.reference": _reference_iters,
}

ROOT = -1


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []            # (name, start, end, parent, extra)
        self._stack = [ROOT]
        self._saved: list = []           # (owner, attribute, original)
        self.unpatched: list[str] = []   # wrapped names the package lacks

    # -- spans -------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, extra=None):
        """Span around a call the benchmark itself makes (a pass, a case,
        one CLI command)."""
        sid = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1], extra))
        self._stack.append(sid)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            name, start, _, parent, extra = self.spans[sid]
            self.spans[sid] = (name, start, end, parent, extra)

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra_of = EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            # a wrapped call nested in a span of the same name (a rate
            # formula calling another) is part of the outer span
            if parent != ROOT and spans[parent][0] == name:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append((name, None, None, parent, None))  # open
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, None)
            if extra_of is not None:
                spans[sid] = (name, start, end, parent, extra_of(args, kwargs, result))
            return result

        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        for owner_path, attr, name in WRAPPED:
            owner = self._resolve(owner_path)
            if owner is None or attr not in vars(owner):
                self.unpatched.append(f"{owner_path}.{attr}")
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _resolve(self, owner_path: str):
        obj = self.package
        for part in owner_path.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj

    # -- output ------------------------------------------------------------
    def write(self, path: Path) -> None:
        """One CSV row per span; times in seconds from the first span."""
        if not self.spans:
            return
        t0 = self.spans[0][1]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,extra\n")
            for sid, (name, start, end, parent, extra) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start - t0:.9f},{end - t0:.9f},{parent},"
                         f"{'' if extra is None else extra}\n")


class LayerStats:
    """Per-name call counts, inclusive and self times over the spans with ids
    in [lo, hi); a span's self time is its duration minus its children's."""

    def __init__(self, spans: list, lo: int = 0, hi: int | None = None):
        hi = len(spans) if hi is None else hi
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.extras: dict[str, list] = {}
        child = [0.0] * (hi - lo)
        for name, start, end, parent, _ in spans[lo:hi]:
            if parent >= lo:
                child[parent - lo] += end - start
        for sid in range(lo, hi):
            name, start, end, parent, extra = spans[sid]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + (end - start) - child[sid - lo])
            if extra is not None:
                self.extras.setdefault(name, []).append(extra)

    def module_self(self, module: str) -> float:
        prefix = module + "."
        return sum(t for name, t in self.self_time.items() if name.startswith(prefix))
