"""Span tracing of wfsim's public functions, installed from outside the package.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the wrapper
in every ``wfsim`` module namespace that holds the original, so calls made
between wfsim modules are seen too.  ``ProjectiveMeasurement.computational``
and the ``DensityOperator`` constructor are wrapped on their classes.  Each
span records name, start, end, parent span and operation id; spans stay in
memory until ``dump`` writes them out.  The workloads run single-threaded
(``--threads`` unset), so one span stack is enough.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  An attribute "Class.method" is wrapped on
# the class; "Class.__init__" is the constructor, validation included.
TRACED = (
    ("wfsim.cli", "main", "cli.main"),
    ("wfsim.report", "run", "report.run"),
    ("wfsim.report", "render_json", "report.render_json"),
    ("wfsim.report", "render_csv", "report.render_csv"),
    ("wfsim.report", "emit", "report.emit"),
    ("wfsim.scenarios", "proietti_scenario", "scenarios.proietti_scenario"),
    ("wfsim.scenarios", "ProiettiScenario.exact_state_under", "scenarios.exact_state_under"),
    ("wfsim.scenarios", "claimed_branch_collapse", "scenarios.claimed_branch_collapse"),
    ("wfsim.scenarios", "friend_interaction", "scenarios.friend_interaction"),
    ("wfsim.chsh", "hypothesis_comparison", "chsh.hypothesis_comparison"),
    ("wfsim.chsh", "optimize_settings", "chsh.optimize_settings"),
    ("wfsim.chsh", "chsh_value", "chsh.chsh_value"),
    ("wfsim.chsh", "correlator", "chsh.correlator"),
    ("wfsim.chsh", "sample_inequality", "chsh.sample_inequality"),
    ("wfsim.measurement", "projective_collapse", "measurement.projective_collapse"),
    ("wfsim.measurement", "born_probabilities", "measurement.born_probabilities"),
    ("wfsim.measurement", "ProjectiveMeasurement.computational", "measurement.computational"),
    ("wfsim.measurement", "dephase", "measurement.dephase"),
    ("wfsim.hilbert", "embed", "hilbert.embed"),
    ("wfsim.hilbert", "expectation", "hilbert.expectation"),
    ("wfsim.hilbert", "partial_trace", "hilbert.partial_trace"),
    ("wfsim.hilbert", "DensityOperator.__init__", "hilbert.DensityOperator"),
)

SPAN_NAMES = tuple(name for _, _, name in TRACED)

# Counts and ratios taken at the span boundaries, with their units.
COUNTS = (
    ("report.rows", "count"),
    ("report.bytes", "bytes"),
    ("chsh.grid_pairs", "count"),
    ("chsh.scan_useful_ratio", "ratio"),
    ("measurement.computational.reuse_ratio", "ratio"),
    ("hilbert.embed.bytes", "bytes"),
)


def grid_points(step: float) -> int:
    """Bob's grid size for a ``grid_step``, by the rule in ``chsh._sphere_grid``."""
    n_theta = int(math.floor(math.pi / step + 1e-9)) + 1
    n_phi = int(math.floor(2.0 * math.pi / step - 1e-9)) + 1
    return n_theta * n_phi


def _state_digest(state) -> str:
    """Digest of a state's numbers; adding 0.0 maps -0.0 to 0.0, so states
    that compare equal entry by entry share a digest."""
    data = state.matrix if hasattr(state, "matrix") else state.amplitudes
    return type(state).__name__ + hashlib.sha1((data + 0.0).tobytes()).hexdigest()


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans and per-operation counts for the functions in ``TRACED``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, op, self_s)
        self.counts: dict = defaultdict(Counter)  # op -> count name -> value
        self.distinct: dict = defaultdict(lambda: defaultdict(set))  # op -> kind -> keys
        self.op = None  # id of the running operation, set by the caller
        self._stack: list[list] = []  # [span index, child time]
        self._undo: list[tuple] = []

    def _count(self, name: str, args, kwargs) -> None:
        counts = self.counts[self.op]
        if name == "chsh.optimize_settings":
            step = _arg(args, kwargs, 1, "grid_step", math.pi / 64)
            counts["chsh.grid_pairs"] += grid_points(step) ** 2
            counts["scans"] += 1
            self.distinct[self.op]["states"].add(_state_digest(args[0]))
        elif name == "measurement.computational":
            counts["computational"] += 1
            # Wrapped as a classmethod: args[0] is the class.
            self.distinct[self.op]["subspaces"].add(_arg(args, kwargs, 1, "space").factors)
        elif name == "hilbert.embed":
            counts["hilbert.embed.bytes"] += 16 * _arg(args, kwargs, 2, "space").dim ** 2

    def _count_result(self, name: str, result) -> None:
        counts = self.counts[self.op]
        if name == "report.run":
            counts["report.rows"] += len(result.rows)
        elif name in ("report.render_json", "report.render_csv"):
            counts["report.bytes"] += len(result.encode("utf-8"))

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            tracer._count(name, args, kwargs)
            frame = [len(tracer.spans), 0.0]
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[frame[0]] = (
                    name, start, end, parent, tracer.op, duration - frame[1]
                )
            tracer._count_result(name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function; ``uninstall`` restores the originals."""
        for module_name, _, _ in TRACED:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "wfsim" or n.startswith("wfsim.")]
        for module_name, attr, name in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(cls, method, wrapped)
                self._undo.append((cls, method, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def export(self) -> dict:
        """Spans and counts as JSON-ready data, for a child to hand back."""
        return {
            "spans": [list(s) for s in self.spans],
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
            "distinct": {
                str(op): {kind: len(keys) for kind, keys in kinds.items()}
                for op, kinds in self.distinct.items()
            },
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.export(), fh)


def per_op_metrics(exported: list[dict], n_ops: int) -> dict[str, float]:
    """Per-operation means over ``n_ops`` traced operations.

    ``exported`` holds ``Tracer.export()`` results: one for an in-process
    run, one per child for traced CLI operations.  Ratios are taken per
    operation, then averaged over the operations where they are defined;
    a ratio that no operation defines reads 0.
    """
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    ratios: dict = defaultdict(list)
    for data in exported:
        for name, _start, _end, _parent, _op, own in data["spans"]:
            calls[name] += 1
            self_s[name] += own
        for op_key, op_counts in data["counts"].items():
            counts.update(op_counts)
            distinct = data["distinct"].get(op_key, {})
            if op_counts.get("scans"):
                ratios["chsh.scan_useful_ratio"].append(
                    distinct.get("states", 0) / op_counts["scans"]
                )
            if op_counts.get("computational"):
                ratios["measurement.computational.reuse_ratio"].append(
                    distinct.get("subspaces", 0) / op_counts["computational"]
                )
    n = max(1, n_ops)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.self_s"] = self_s[name] / n
    for name, unit in COUNTS:
        if unit == "ratio":
            values = ratios[name]
            out[name] = sum(values) / len(values) if values else 0.0
        else:
            out[name] = counts[name] / n
    return out
