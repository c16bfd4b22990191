"""Span recording around the package's public functions, from outside.

:class:`Tracer` replaces each wrapped function with ``setattr`` on its
module (or class) object.  That catches calls made through the module,
``linalg.solve_exact(...)``, and calls inside a module, which look the name
up in the module's globals.  A function imported by name into another
module escapes the wrapper; :func:`layer_metrics` then reports it as
missing on the workload meant to exercise it rather than as zero.

Spans live in flat arrays while the run lasts and are written out once at
the end.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "report", "phases", "orbifold", "cones", "generate", "linalg")

# "<module>.<attribute path>" -> the workload meant to exercise it
WRAPPED = {
    "cli.main": "scan",
    "report.parse_charge_matrix": "scan",
    "report.build_phase_report": "scan",
    "report.render_phase_table": "scan",
    "phases.make_charge_matrix": "scan",
    "phases.candidate_columns": "scan",
    "phases.enumerate_phases": "scan",
    "phases.check_witness": "scan",
    "orbifold.orbifold_group": "symmetric",
    "orbifold.canonical_torus_action": "symmetric",
    "orbifold.actions_equivalent": "scan",
    "cones.phase_cone": "scan",
    "cones.is_in_phase_cone": "lattice",
    "cones.verify_simplicial_cone": "lattice",
    "cones.moment_polyhedron": "lattice",
    "cones.lift_level": "lattice",
    "generate.random_lg_model": "generate",
    "generate.witness_of_construction": "generate",
    "generate.SplitMix64.int_between": "generate",
    "linalg.row_space_reduce": "lattice",
    "linalg.integer_kernel": "lattice",
    "linalg.hermite_normal_form": "symmetric",
    "linalg.smith_normal_form": "symmetric",
    "linalg.determinant": "lattice",
    "linalg.invert_rational": "lattice",
    "linalg.solve_exact": "lattice",
}

# derived counter -> (unit, better, workload meant to exercise it)
DERIVED = {
    "phases.witness_yield": ("ratio", "higher", "scan"),
    "orbifold.hnf_per_action": ("calls/action", "lower", "symmetric"),
    "linalg.kernels_per_op": ("calls/op", "lower", "lattice"),
    "linalg.max_output_bits": ("bits", "lower", "lattice"),
    "generate.draw_yield": ("ratio", "higher", "generate"),
}

PER_FUNCTION = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))


def _max_bits(rows):
    return max((abs(e).bit_length() for row in rows for e in row), default=0)


def _smith_bits(snf):
    return max(_max_bits(snf.u.rows), _max_bits(snf.d.rows), _max_bits(snf.v.rows))


def _matrix_bits(m):
    return _max_bits(m.rows)


def _entries(m):
    return m.nrows * m.ncols


# the value a span records about its function's result
OBSERVE = {
    "linalg.smith_normal_form": _smith_bits,
    "linalg.hermite_normal_form": _matrix_bits,
    "linalg.integer_kernel": _matrix_bits,
    "generate.random_lg_model": _entries,
}


def layer_metric_names():
    """Every per-layer metric as ``(name, unit, better)``."""
    out = []
    for fn in WRAPPED:
        out.extend((f"{fn}.{suffix}", unit, "lower") for suffix, unit in PER_FUNCTION)
    out.extend((name, unit, better) for name, (unit, better, _) in DERIVED.items())
    return out


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, op, ok, value."""

    def __init__(self):
        self.names = list(WRAPPED)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.ok = array("b")
        self.value = array("q")
        self.op_id = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name_id, fn, observe):
        names, starts, ends = self.name, self.start, self.end
        parents, ops, oks, values, stack = self.parent, self.op, self.ok, self.value, self._stack

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            oks.append(0)
            values.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            oks[sid] = 1
            if observe is not None:
                values[sid] = observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name_id, name in enumerate(self.names):
            module, *path = name.split(".")
            owner = sys.modules[f"lgphase.{module}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            fn = getattr(owner, path[-1])
            self._saved.append((owner, path[-1], fn))
            setattr(owner, path[-1], self._wrap(name_id, fn, OBSERVE.get(name)))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        """All spans as JSON lines: name, start, end, parent, op, ok, value."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([
                    self.names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.op[i], self.ok[i], self.value[i],
                ]) + "\n")


def layer_metrics(tracer, ops, workload):
    """Per-layer metrics from the spans of ``ops`` traced ops.

    Returns ``(metrics, missing)``: ``metrics`` maps each metric name to a
    number; ``missing`` lists the functions and counters that saw no call
    on the workload meant to exercise them, which are left out of
    ``metrics``.  A derived ratio whose base is zero on another workload
    reads 0.
    """
    k = len(tracer.names)
    calls = [0] * k
    total = [0.0] * k
    child = [0.0] * len(tracer.start)
    for i in range(len(tracer.start)):
        dur = tracer.end[i] - tracer.start[i]
        calls[tracer.name[i]] += 1
        total[tracer.name[i]] += dur
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur
    self_time = [0.0] * k
    for i in range(len(tracer.start)):
        self_time[tracer.name[i]] += tracer.end[i] - tracer.start[i] - child[i]

    idx = {name: i for i, name in enumerate(tracer.names)}
    metrics, missing = {}, []
    for name, i in idx.items():
        if calls[i] == 0 and WRAPPED[name] == workload:
            missing.append(name)
            continue
        metrics[f"{name}.calls"] = calls[i]
        metrics[f"{name}.total_s"] = total[i]
        metrics[f"{name}.self_s"] = self_time[i]

    def under(child_name, parent_name, ok_only=False):
        c, p = idx[child_name], idx[parent_name]
        return sum(
            1 for i in range(len(tracer.start))
            if tracer.name[i] == c and tracer.parent[i] >= 0
            and tracer.name[tracer.parent[i]] == p and (tracer.ok[i] or not ok_only)
        )

    def values_of(name):
        i = idx[name]
        return [tracer.value[s] for s in range(len(tracer.start)) if tracer.name[s] == i]

    tried = under("phases.check_witness", "phases.enumerate_phases")
    hnf = under("linalg.hermite_normal_form", "orbifold.canonical_torus_action")
    actions = calls[idx["orbifold.canonical_torus_action"]]
    draws = calls[idx["generate.SplitMix64.int_between"]]
    bits = (values_of("linalg.smith_normal_form") + values_of("linalg.hermite_normal_form")
            + values_of("linalg.integer_kernel"))
    derived = {
        "phases.witness_yield": (
            under("phases.check_witness", "phases.enumerate_phases", ok_only=True), tried),
        "orbifold.hnf_per_action": (hnf, actions),
        "linalg.kernels_per_op": (calls[idx["linalg.integer_kernel"]], ops),
        "linalg.max_output_bits": (max(bits, default=0), 1 if bits else 0),
        "generate.draw_yield": (sum(values_of("generate.random_lg_model")), draws),
    }
    for name, (num, base) in derived.items():
        if base == 0 and DERIVED[name][2] == workload:
            missing.append(name)
        else:
            metrics[name] = num / base if base else 0.0
    return metrics, missing


def self_time_by_layer(metrics):
    """Self seconds summed per module, from :func:`layer_metrics` output."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            out[name.split(".", 1)[0]] += value
    return out
