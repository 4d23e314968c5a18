"""In-memory span recorder for the traced benchmark run.

The recorder wraps public tileforge functions from outside: every module
attribute bound to a listed function is replaced by a wrapper that opens a
span (name, start, end, parent, op id) around the call.  Private callees
are not wrapped, so their time is charged to the nearest public caller's
self time.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: The public functions timed per layer, by module.
LAYERS = {
    "lattice": ("validate_digits", "is_expanding"),
    "attractor": ("approximate", "bounding_box", "unit_cell_cover", "touched_cells",
                  "measure_upper", "contact_matrix", "tile_check_exact",
                  "shift_cover_layers", "rasterize"),
    "boxtile": ("build_cyclic_matrix", "box_digits", "suggested_depth",
                "is_parallelepiped", "tensor_product"),
    "haar": ("build_wavelets", "raster_gram", "exact_gram"),
    "oned": ("classify", "tiling_oracle", "enumerate_simple"),
    "cli": ("main",),
}


#: Work counts read from return values: span name -> (counter, count of result).
COUNTERS = {
    "attractor.approximate": ("attractor.cells", lambda approx: len(approx.cells)),
    "attractor.tile_check_exact": ("attractor.contact_states",
                                   lambda report: len(report.contact)),
}


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            names[f"{module}.{fn}.calls"] = "count"
            names[f"{module}.{fn}.total_s"] = "s"
            names[f"{module}.{fn}.self_s"] = "s"
        names[f"{module}.self_s"] = "s"
    names["attractor.cells"] = "count"
    names["attractor.contact_states"] = "count"
    names["attractor.tile_check_exact.calls_per_cold_tile_check"] = "count"
    names["outside_spans_s"] = "s"
    names["trace_overhead_frac"] = "fraction"
    return names


class Recorder:
    """Spans as [name, start, end, parent index, op id], plus work counters."""

    def __init__(self):
        self.spans = []
        self.counts = {key: 0 for key, _ in COUNTERS.values()}
        self.op_id = -1
        self._stack = []

    def install(self):
        """Wrap every binding of each listed function in the loaded tileforge modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "tileforge" or name.startswith("tileforge."))]
        for module, functions in LAYERS.items():
            owner = sys.modules[f"tileforge.{module}"]
            for fn in functions:
                original = getattr(owner, fn)
                wrapped = self._wrap(f"{module}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.op_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                key, count = counter
                self.counts[key] += count(result)
            return result

        return traced

    def metrics(self, timed_s):
        """Per-function calls, total and self time; per-module self time.

        Self time is a span's duration minus the durations of its direct
        children; `outside_spans_s` is the timed region minus all top-level
        spans, i.e. time spent in the benchmark's own op code.
        """
        stats = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        top = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls, total, own = stats.get(name, (0, 0.0, 0.0))
            stats[name] = (calls + 1, total + end - start, own + end - start - child_time[i])
            if parent < 0:
                top += end - start
        out = {}
        for module, functions in LAYERS.items():
            module_self = 0.0
            for fn in functions:
                calls, total, own = stats.get(f"{module}.{fn}", (0, 0.0, 0.0))
                out[f"{module}.{fn}.calls"] = calls
                out[f"{module}.{fn}.total_s"] = total
                out[f"{module}.{fn}.self_s"] = own
                module_self += own
            out[f"{module}.self_s"] = module_self
        out.update(self.counts)
        out["outside_spans_s"] = timed_s - top
        return out

    def calls(self, name, op_ids):
        """Number of `name` spans recorded during the given ops."""
        ops = set(op_ids)
        return sum(1 for span in self.spans if span[0] == name and span[4] in ops)

    def write(self, path):
        """Spans as JSON lines: name, start, end (seconds), parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
