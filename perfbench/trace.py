"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` replaces every binding of each wrapped function in
every loaded ``gpvis`` module (module globals, dicts held in module
globals such as the spec parser's operator table, and class attributes),
because modules import these functions by name.  ``install`` then scans
the package again and returns any original binding that survived.

A span is ``[name, start, end, parent, op, extra]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the index of the
benchmark operation that caused it, and ``extra`` a per-layer value taken
from the result (search nodes, greedy set size).  Spans stay in memory
until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time


def _nodes(result):
    return (result[0], result[2])


def _size(mask):
    return mask.bit_count()


# kernel entry points: layer name, index of the ``kind`` argument, and
# the extra value recorded from the result
KERNEL_FUNCTIONS = {
    "solve_max": ("kernel.solve_max", 3, _nodes),
    "greedy_set": ("kernel.greedy_set", 3, _size),
    "set_ok": ("kernel.set_ok", 4, None),
    "extend_ok": ("kernel.extend_ok", 5, None),
    "enumerate_exact": ("kernel.enumerate_exact", 3, None),
}

# (module, attribute, layer); a dotted attribute names a class method
PACKAGE_FUNCTIONS = [
    ("gpvis.families", "parse_graph_spec", "families.parse_graph_spec"),
    ("gpvis.families", "double_graph", "families.build"),
    ("gpvis.families", "mycielskian", "families.build"),
    ("gpvis.graphs", "all_pairs_distances", "graphs.all_pairs_distances"),
    ("gpvis._kernel", "get_kernel", "kernel.get_kernel"),
    ("gpvis.solver", "max_property_set", "solver.max_property_set"),
    ("gpvis.solver", "enumerate_maximum_sets", "solver.enumerate_maximum_sets"),
    ("gpvis.visibility", "is_property_set", "visibility.is_property_set"),
    ("gpvis.visibility", "is_general_position_set_via_characterization",
     "visibility.gp_characterization"),
    ("gpvis.witnesses", "witness_double_from_total", "witnesses"),
    ("gpvis.witnesses", "witness_myc_path", "witnesses"),
    ("gpvis.witnesses", "witness_myc_cycle", "witnesses"),
    ("gpvis.witnesses", "witness_universal", "witnesses"),
    ("gpvis.witnesses", "witness_diam3", "witnesses"),
    ("gpvis.witnesses", "fixed_witness", "witnesses"),
    ("gpvis.witnesses", "balloon_double_witness", "witnesses"),
    ("gpvis.report", "run_verification_suite", "report.run_verification_suite"),
    ("gpvis.report", "corpus_graphs", "report.corpus"),
    ("gpvis.report", "_Suite.run_double", "report.scope.double"),
    ("gpvis.report", "_Suite.run_myc", "report.scope.mycielskian"),
    ("gpvis.report", "_Suite.run_bounds", "report.scope.bounds"),
]

PROBE_LIMIT = 200


class Tracer:
    """Wraps the package's functions and keeps the spans of their calls."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.kernel_inputs = {}
        self.distance_graphs = set()
        self._stack = []
        self._wrapped = {}  # id(original) -> (original, wrapper)
        self._bindings = []  # (namespace, key, original, namespace is a dict)

    def _wrap(self, layer, fn, kind_at=None, extra=None):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(result)
            if kind_at is not None:
                key = (tuple(args[1]), args[kind_at])
                if key not in tracer.kernel_inputs:
                    tracer.kernel_inputs[key] = (args[0], args[1], args[2], args[kind_at])
            elif layer == "graphs.all_pairs_distances":
                tracer.distance_graphs.add(args[0].adj)
            return result

        return traced

    def _package_modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "gpvis" or name.startswith("gpvis."))]

    def _namespaces(self):
        """Every namespace of the package that can hold a function binding,
        with its dotted name."""
        for module in self._package_modules():
            yield module.__name__, module.__dict__
            for key, value in list(module.__dict__.items()):
                if isinstance(value, dict) or (
                        isinstance(value, type) and value.__module__ == module.__name__):
                    yield f"{module.__name__}.{key}", value

    def install(self, kernels):
        """Wrap the package functions and those of each kernel module;
        returns the bindings that still hold an original (should be none)."""
        importlib.import_module("gpvis.cli")  # binds the wrapped functions by name too
        targets = []
        for modname, attr, layer in PACKAGE_FUNCTIONS:
            owner = sys.modules[modname]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            targets.append((getattr(owner, attr), layer, None, None))
        for kernel in kernels:
            for attr, (layer, kind_at, extra) in KERNEL_FUNCTIONS.items():
                fn = getattr(kernel, attr, None)
                if fn is not None:
                    targets.append((fn, layer, kind_at, extra))
        for fn, layer, kind_at, extra in targets:
            self._wrapped[id(fn)] = (fn, self._wrap(layer, fn, kind_at, extra))
        for _, space in self._namespaces():
            self._rebind(space, setitem=isinstance(space, dict))
        return self.unpatched()

    def _rebind(self, space, setitem):
        items = space.items() if setitem else vars(space).items()
        for key, value in list(items):
            hit = self._wrapped.get(id(value))
            if hit is None or hit[0] is not value:
                continue
            if setitem:
                space[key] = hit[1]
            else:
                setattr(space, key, hit[1])
            self._bindings.append((space, key, value, setitem))

    def unpatched(self):
        """Names in the package that still refer to an unwrapped original."""
        missed = []
        for name, space in self._namespaces():
            items = space.items() if isinstance(space, dict) else vars(space).items()
            for key, value in items:
                hit = self._wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    missed.append(f"{name}[{key!r}]")
        return missed

    def uninstall(self):
        for space, key, original, setitem in reversed(self._bindings):
            if setitem:
                space[key] = original
            else:
                setattr(space, key, original)
        self._bindings.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "extra"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_table(spans):
    """Per layer name: calls, busy seconds, self seconds."""
    table = {}
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    for i, span in enumerate(spans):
        row = table.setdefault(span[0], [0, 0.0, 0.0])
        dur = span[2] - span[1]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
    return table


def layer_metrics(tracer, traced_wall, op_groups, groups):
    """The per-layer metrics of one traced phase.

    ``traced_wall`` is the summed wall time of the traced operations; the
    self times of all spans plus ``trace.remainder_s`` add up to it.
    ``op_groups`` maps an operation index to its group label (or None),
    for search nodes split by the instance groups named in ``groups``.
    """
    spans = tracer.spans
    table = layer_table(spans)

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    nodes = 0
    group_nodes = dict.fromkeys(groups, 0)
    for span in spans:
        if span[0] == "kernel.solve_max":
            nodes += span[5][1]
            group = op_groups[span[4]]
            if group is not None:
                group_nodes[group] += span[5][1]
    greedy_gap = sum(
        spans[s[3]][5][0] - s[5]
        for s in spans
        if s[0] == "kernel.greedy_set" and s[3] >= 0 and spans[s[3]][0] == "kernel.solve_max"
    )
    verify_s = sum(
        s[2] - s[1]
        for s in spans
        if s[0] == "visibility.is_property_set" and s[3] >= 0
        and spans[s[3]][0].startswith("solver.")
    )
    layer_self = sum(row[2] for row in table.values())
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for layer in ("graphs.all_pairs_distances", "kernel.get_kernel", "kernel.greedy_set",
                  "kernel.set_ok", "kernel.enumerate_exact", "visibility.gp_characterization",
                  "witnesses"):
        put(f"{layer}.calls", calls(layer), "count")
        put(f"{layer}.busy_s", busy(layer), "s")
    for layer in ("kernel.solve_max", "solver.max_property_set", "visibility.is_property_set",
                  "families.parse_graph_spec", "report.run_verification_suite"):
        put(f"{layer}.calls", calls(layer), "count")
        put(f"{layer}.self_s", self_s(layer), "s")
    distinct = len(tracer.distance_graphs)
    put("graphs.all_pairs_distances.repeat_ratio",
        calls("graphs.all_pairs_distances") / distinct if distinct else 0.0, "ratio")
    put("kernel.search.nodes", nodes, "count")
    solve_self = self_s("kernel.solve_max")
    put("kernel.search.nodes_per_s", nodes / solve_self if solve_self else 0.0, "1/s")
    for group in groups:
        put(f"kernel.search.nodes.{group}", group_nodes[group], "count")
    put("kernel.greedy_gap", greedy_gap, "count")
    put("kernel.tables.builds", sum(calls(f"kernel.{f}") for f in
                                    ("solve_max", "greedy_set", "extend_ok", "enumerate_exact")),
        "count")
    put("solver.verify_s", verify_s, "s")
    put("families.build_s", busy("families.build"), "s")
    put("report.scope.double_s", busy("report.scope.double"), "s")
    put("report.scope.mycielskian_s", busy("report.scope.mycielskian"), "s")
    put("report.scope.bounds_s", busy("report.scope.bounds"), "s")
    put("report.corpus_s", busy("report.corpus"), "s")
    put("report.self_s", self_s("report.run_verification_suite") + sum(
        self_s(f"report.scope.{s}") for s in ("double", "mycielskian", "bounds")), "s")
    put("trace.wall_s", traced_wall, "s")
    put("trace.layer_self_s", layer_self, "s")
    put("trace.remainder_s", traced_wall - layer_self, "s")
    put("trace.spans", len(spans), "count")
    return m


def probe_tables(tracer, kernel):
    """Median time of a one-shot ``extend_ok`` on the empty set, per
    distinct graph and kind seen by the kernel; almost all of it is the
    kernel's table build.  Call after ``uninstall``.  Returns milliseconds
    and the probe count."""
    times = []
    for n, adj, dist, kind in list(tracer.kernel_inputs.values())[:PROBE_LIMIT]:
        t0 = time.perf_counter()
        kernel.extend_ok(n, adj, dist, 0, 0, kind)
        times.append(time.perf_counter() - t0)
    return (statistics.median(times) * 1000 if times else 0.0), len(times)
