"""Spans around qsim's public names, for the traced run.

The tracer replaces each name in ``TARGETS`` with a wrapper that records a
span: its name, start and end, the span it ran inside, and the operation it
belongs to. Spans stay in memory until the run ends. A layer's own time is
its span time minus the time of the spans directly inside it.
"""

import contextlib
import importlib
import statistics
import time
import tracemalloc

import numpy as np

# (module, attribute, span name). Wrapping the attribute where it is looked
# up decides which calls a span sees: ``measure.apply`` is the apply inside
# ``sample``, ``circuit.StateVector`` is the validation at the end of apply.
TARGETS = (
    ("circuit", "apply", "circuit.apply"),
    ("circuit", "StateVector", "qstate.statevector"),
    ("measure", "probabilities", "measure.probabilities"),
    ("cli", "main", "cli.run"),
    ("qcf", "parse", "qcf.parse"),
    ("measure", "sample", "measure.sample"),
    ("measure", "apply", "measure.state"),
    ("cli", "apply_density", "circuit.apply_density"),
    ("cli", "to_density", "qstate.to_density"),
    ("measure", "probabilities_density", "measure.probabilities_density"),
    ("entangle", "entanglement_entropy", "entangle.entropy"),
    ("entangle", "partial_trace", "entangle.partial_trace"),
    ("entangle", "is_entangled", "entangle.is_entangled"),
    ("numerics", "eig_hermitian", "numerics.eig_hermitian"),
    ("evolve", "evolve", "evolve.evolve"),
    ("algorithms", "grover_success_trajectory", "algorithms.grover"),
)

# Per-layer metrics that are a span's total time per operation: every
# wrapped name, and ``qstate.psd_check``, which the workload adds itself
# around its DensityMatrix call.
SPAN_MS = tuple(name for _, _, name in TARGETS) + ("qstate.psd_check",)

TRIAD_ELEMENTS = 1 << 21  # 16 MiB of float64 per array, the size of a 20-qubit state
TRIAD_REPEATS = 10


class TraceTargetMissing(Exception):
    """A name the traced run wraps no longer exists in qsim."""


class Tracer:
    def __init__(self):
        self.spans = []  # [op, name, start_ns, end_ns, parent index or -1]
        self.op = None
        self._stack = []

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"qsim.{module_name}")
            if not hasattr(module, attr):
                raise TraceTargetMissing(f"qsim.{module_name}.{attr} no longer exists")
            setattr(module, attr, self.wrap(getattr(module, attr), name))

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        record = [self.op, name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = time.perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op):
        """Attribute the spans recorded inside to operation ``op``."""
        self.op = op
        try:
            yield op
        finally:
            self.op = None

    def table(self):
        """{op: {span name: [total ns, own ns, count]}} over every recorded span."""
        ops = {}
        for op, name, start, end, parent in self.spans:
            if op is None:
                continue
            entry = ops.setdefault(op, {}).setdefault(name, [0, 0, 0])
            entry[0] += end - start
            entry[1] += end - start
            entry[2] += 1
            if parent >= 0:
                ops[op][self.spans[parent][1]][1] -= end - start
        return ops

    def own_ms(self, op, name):
        return self.table()[op][name][1] / 1e6

    @staticmethod
    def peak_mb(fn):
        """``tracemalloc`` peak of one call, in MiB."""
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def dump(self):
        return [
            {"op": op, "name": name, "start_ns": start, "end_ns": end, "parent": parent}
            for op, name, start, end, parent in self.spans
        ]


def per_layer(workload, tracer, loop_ops, shots=None):
    """Every per-layer metric from the spans of ``loop_ops`` and the workload's probes.

    A metric whose layer is not on this workload's path reads 0.
    """
    table = tracer.table()

    def per_op(name, field):
        return [table.get(op, {}).get(name, [0, 0, 0])[field] for op in loop_ops]

    def per_op_ms(name, own=False):
        return statistics.median(per_op(name, 1 if own else 0)) / 1e6

    metrics = {f"{name}_ms": per_op_ms(name) for name in SPAN_MS}
    metrics["cli.format_ms"] = per_op_ms("cli.run", own=True)
    metrics["numerics.eig_hermitian_calls"] = statistics.median(per_op("numerics.eig_hermitian", 2))
    sampling = [s - a for s, a in zip(per_op("measure.sample", 0), per_op("measure.state", 0))]
    metrics["measure.shot_us"] = statistics.median(sampling) / 1e3 / shots if shots else 0.0
    metrics.update(workload.per_op_rates(per_op_ms))
    metrics.update(workload.probe(tracer))
    return metrics


def triad_gbps():
    """numpy a = b + s*c over 16 MiB arrays, counted as 24 bytes per element."""
    b = np.ones(TRIAD_ELEMENTS)
    c = np.full(TRIAD_ELEMENTS, 2.0)
    a = np.empty(TRIAD_ELEMENTS)
    times = []
    for _ in range(TRIAD_REPEATS):
        start = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        times.append(time.perf_counter() - start)
    return 24 * TRIAD_ELEMENTS / statistics.median(times) / 1e9
