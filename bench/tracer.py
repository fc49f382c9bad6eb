"""Span tracing installed from outside the package, and the per-layer metrics.

`Tracer.install` replaces selected public functions and methods of the
package modules with wrappers that record a span per call: name, start, end
and the span that was open when the call began. Calls made tens of thousands
of times per run (`AGGREGATED`) only add to a count and a summed time, which
keeps the traced run close to the untraced one. Spans stay in memory; the
caller writes them out after the run.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import numpy as np

ENGINES = ("DadmmEngine", "DadmmMatrixEngine", "FullAdmmEngine", "ExactMMEngine",
           "ApproxMMEngine", "PextraEngine", "GeneralUVEngine")

# span name -> [(module, attribute path)]; a dotted path names a method
TARGETS = {
    "cli.main": [("cli", "main")],
    "cli.emit_trace": [("cli", "emit_trace")],
    "netgraph.build_graph": [("netgraph", "build_graph")],
    "netgraph.consensuality_residual": [("netgraph", "consensuality_residual")],
    "denselin.sym_eigen": [("denselin", "sym_eigen")],
    "denselin.spd_factor": [("denselin", "spd_factor")],
    "denselin.spd_inverse": [("denselin", "spd_inverse")],
    "denselin.minnorm_setup": [("denselin", "MinNormTransposeSolver.__init__")],
    "denselin.minnorm_solve": [("denselin", "MinNormTransposeSolver.__call__")],
    "objective.local_subproblem_ex": [("objective", "local_subproblem_ex")],
    "objective.sum_value": [("objective", "sum_value")],
    "analysis.reference_solution": [("analysis", "reference_solution")],
    "analysis.rate_certificate": [("analysis", "rate_certificate")],
    "analysis.verify_contraction": [("analysis", "verify_contraction")],
    "harness.agents_setup": [
        ("harness", name) for name in ("dadmm_agents", "pextra_agents", "general_uv_agents")
    ],
    "harness.run_rounds": [("harness", "run_rounds")],
    "solvers.engine_setup": [("solvers", f"{cls}.__init__") for cls in ENGINES],
    "solvers.step": [("solvers", f"{cls}.step") for cls in ENGINES],
}

# about n * rounds calls per run on the harness workload
AGGREGATED = frozenset({"objective.local_subproblem_ex", "denselin.spd_factor"})

PACKAGE_MODULES = ("analysis", "cli", "denselin", "harness", "netgraph",
                   "objective", "solvers")


def array_bytes(obj) -> int:
    """Summed nbytes of the ndarray attributes of an object."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self.totals = defaultdict(float)
        self.eigen_max_order = 0
        self.round_stamps = []     # perf_counter at each observer call
        self.messages = 0
        self.payload_scalars = 0
        self.graph = None
        self.certificate = None
        self._open = []            # indices of the spans still open

    def wrap(self, name, fn):
        aggregated = name in AGGREGATED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if aggregated:
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.counts[name] += 1
                    self.totals[name] += time.perf_counter() - start
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._open.append(index)
            try:
                return self._call(name, fn, args, kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    def _call(self, name, fn, args, kwargs):
        if name == "denselin.sym_eigen":
            a = args[0]
            order = a.order if hasattr(a, "order") else np.shape(a)[0]
            self.eigen_max_order = max(self.eigen_max_order, int(order))
        if name == "harness.run_rounds":
            kwargs = dict(kwargs)
            kwargs["observer"] = self._observer(kwargs.get("observer"))
        result = fn(*args, **kwargs)
        if name == "netgraph.build_graph":
            self.graph = result
        elif name == "analysis.rate_certificate":
            self.certificate = result
        return result

    def _observer(self, inner):
        def observe(k, x, phi, log):
            self.round_stamps.append(time.perf_counter())
            self.messages += log.messages
            self.payload_scalars += log.payload_scalars
            if inner is not None:
                inner(k, x, phi, log)
        return observe

    def install(self, package) -> None:
        """Wrap every target, in every package module that holds a reference
        to it. A missing target raises AttributeError."""
        modules = [getattr(package, m) for m in PACKAGE_MODULES]
        for name, targets in TARGETS.items():
            for module_name, path in targets:
                owner = getattr(package, module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original)
                setattr(owner, attr, wrapped)
                if not outer:
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapped)

    def record(self, package) -> dict:
        """Everything the per-layer metrics need, as plain JSON data."""
        operator_bytes = 0
        if self.graph is not None:
            for fn_name in ("arc_matrices", "incidence_operators"):
                fn = getattr(package.netgraph, fn_name, None)
                if fn is not None:
                    operator_bytes += sum(array_bytes(op) for op in fn(self.graph))
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "totals": dict(self.totals),
            "eigen_max_order": self.eigen_max_order,
            "round_stamps": self.round_stamps,
            "messages": self.messages,
            "payload_scalars": self.payload_scalars,
            "operator_bytes": operator_bytes,
            "cert_array_bytes": (0 if self.certificate is None
                                 else array_bytes(self.certificate)),
        }


# -- per-layer metrics from a recorded trace -------------------------------------

def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when fewer than 1000 samples exist for a
    tail percentile (q > 0.5), or when there are no samples at all."""
    if not values or (q > 0.5 and len(values) < 1000):
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def call_counts(rec: dict) -> dict:
    """Calls per span name, aggregated names included."""
    counts = defaultdict(int, rec["counts"])
    for name, *_ in rec["spans"]:
        counts[name] += 1
    return counts


def layer_metrics(rec: dict) -> dict:
    """Per-layer metric name -> (value, unit)."""
    spans = rec["spans"]
    durations = defaultdict(list)
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        durations[name].append(end - start)
        if parent is not None:
            child_time[parent] += end - start
    calls = call_counts(rec)

    def total(name):
        return sum(durations[name]) + rec["totals"].get(name, 0.0)

    root = next(i for i, span in enumerate(spans) if span[0] == "cli.main")
    root_s = spans[root][2] - spans[root][1]
    steps_us = [d * 1e6 for d in durations["solvers.step"]]
    stamps = rec["round_stamps"]
    rounds_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]

    return {
        "netgraph.build_graph_s": (total("netgraph.build_graph"), "s"),
        "netgraph.residual_calls": (calls["netgraph.consensuality_residual"], "count"),
        "netgraph.residual_s": (total("netgraph.consensuality_residual"), "s"),
        "netgraph.operator_bytes": (rec["operator_bytes"], "bytes"),
        "denselin.eigen_calls": (calls["denselin.sym_eigen"], "count"),
        "denselin.eigen_s": (total("denselin.sym_eigen"), "s"),
        "denselin.eigen_max_order": (rec["eigen_max_order"], "count"),
        "denselin.factor_calls": (calls["denselin.spd_factor"], "count"),
        "denselin.factor_s": (total("denselin.spd_factor"), "s"),
        "denselin.inverse_calls": (calls["denselin.spd_inverse"], "count"),
        "denselin.inverse_s": (total("denselin.spd_inverse"), "s"),
        "denselin.minnorm_setups": (calls["denselin.minnorm_setup"], "count"),
        "denselin.minnorm_setup_s": (total("denselin.minnorm_setup"), "s"),
        "denselin.minnorm_solves": (calls["denselin.minnorm_solve"], "count"),
        "denselin.minnorm_solve_s": (total("denselin.minnorm_solve"), "s"),
        "objective.local_solves": (calls["objective.local_subproblem_ex"], "count"),
        "objective.local_solve_s": (total("objective.local_subproblem_ex"), "s"),
        "objective.sum_value_calls": (calls["objective.sum_value"], "count"),
        "objective.sum_value_s": (total("objective.sum_value"), "s"),
        "solvers.engine_setups": (calls["solvers.engine_setup"], "count"),
        "solvers.engine_setup_s": (total("solvers.engine_setup"), "s"),
        "solvers.steps": (calls["solvers.step"], "count"),
        "solvers.step_s": (total("solvers.step"), "s"),
        "solvers.step_us_p50": (_percentile(steps_us, 0.5), "us"),
        "solvers.step_us_p99": (_percentile(steps_us, 0.99), "us"),
        "analysis.reference_s": (total("analysis.reference_solution"), "s"),
        "analysis.certificate_s": (total("analysis.rate_certificate"), "s"),
        "analysis.verify_s": (total("analysis.verify_contraction"), "s"),
        "analysis.cert_array_bytes": (rec["cert_array_bytes"], "bytes"),
        "harness.agents_setup_s": (total("harness.agents_setup"), "s"),
        "harness.rounds_s": (total("harness.run_rounds"), "s"),
        "harness.round_ms_p50": (_percentile(rounds_ms, 0.5), "ms"),
        "harness.round_ms_p99": (_percentile(rounds_ms, 0.99), "ms"),
        "harness.messages": (rec["messages"], "count"),
        "harness.payload_scalars": (rec["payload_scalars"], "count"),
        "cli.self_s": (root_s - child_time[root], "s"),
        "cli.emit_trace_s": (total("cli.emit_trace"), "s"),
    }
