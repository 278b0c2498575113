"""Spans around the calls into each tricross layer, from outside the program.

``Tracer.install`` replaces each traced function in every ``tricross``
module namespace that binds it, and each traced ``TripleDiagram``
method on the class, with a wrapper that records a span (layer, start,
end, parent span, run id).  ``uninstall`` puts the originals back; the
two may alternate any number of times.  Spans stay in flat arrays until
``write`` saves them once at the end.

A layer may name several functions (``apply_22`` covers the public move
and the private full rebuild behind it); a span whose parent belongs to
the same layer is not counted as a call, so each application counts
once.  A layer's self time is the sum over its spans of duration minus
the time covered by their child spans.

Counts and times are reported for one set-up plus one pass over the
inputs (set-up spans, run id -1, plus the timed spans divided by the
number of passes), so they compare across versions of the program no
matter how many passes fit in the run.
"""

import gzip
import inspect
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter

import tricross

# layer -> functions, as (module, attribute); a ``TripleDiagram.`` prefix
# names a method.  Names a later version of the library drops are skipped.
LAYERS = {
    "faces": [("diagram", "TripleDiagram.faces")],
    "canonical_form": [("diagram", "TripleDiagram.canonical_form")],
    "validate": [("diagram", "TripleDiagram.validate")],
    "strands": [("diagram", "TripleDiagram.strands")],
    "apply_22": [("moves", "apply_22"), ("moves", "_apply_22_full")],
    "apply_10": [("moves", "apply_10"), ("moves", "_apply_10_full")],
    "apply_01": [("moves", "apply_01"), ("moves", "_apply_01_full")],
    "find_22_sites": [("moves", "find_22_sites")],
    "find_badgons": [("moves", "find_badgons")],
    "to_standard": [("reduce", "to_standard")],
    "straighten": [("reduce", "straighten")],
    "walk_fillings": [("movegraph", "walk_fillings")],
    "enumerate_connected_diagrams": [
        ("movegraph", "enumerate_connected_diagrams")],
    "enumerate_component": [("movegraph", "enumerate_component")],
    "reduce_to_minimal": [("reduce", "reduce_to_minimal")],
    "init_cluster": [("cluster", "init_cluster")],
    "random_walk": [("cluster", "random_walk")],
    "exchange_22": [("cluster", "exchange_22")],
    "lv_mul": [("cluster", "lv_mul")],
    "lv_div_exact": [("cluster", "lv_div_exact")],
    "laurent_audit": [("cluster", "laurent_audit")],
    "write_movelog": [("textio", "write_movelog")],
    "write_movegraph": [("textio", "write_movegraph")],
    "standard_diagram": [("standard", "standard_diagram")],
    "tiling_to_diagram": [("domino", "tiling_to_diagram")],
    "enumerate_tilings": [("domino", "enumerate_tilings")],
}

# per_layer metrics of BENCHMARK.json, in its order
CALLS_SELF = ("apply_22", "apply_10", "apply_01", "find_22_sites",
              "find_badgons", "exchange_22", "lv_div_exact",
              "standard_diagram", "tiling_to_diagram", "enumerate_tilings")
SELF_ONLY = ("walk_fillings", "lv_mul", "laurent_audit", "write_movelog",
             "write_movegraph")


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.start = array('d')
        self.end = array('d')
        self.parent = array('l')
        self.layer = array('h')
        self.run = array('l')
        self.stack = []
        self.run_id = -1
        self.tallies = (Counter(), Counter())  # set-up, timed passes
        self.peaks = {"straighten.max_depth": 0, "max_terms": 0}
        self.plan = self._plan()

    # ------------------------------------------------------------------

    def _span(self, layer_id, fn, before=None, after=None):
        start, end, parent = self.start, self.end, self.parent
        layer, run, stack = self.layer, self.run, self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            layer.append(layer_id)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            result, failed = None, True
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if after is not None:
                    after(result, failed)
        return wrapper

    def _first_call(self, counter):
        """A hook counting the first call on each instance."""
        seen = {}

        def before(args, kwargs):
            key = id(args[0])
            if key not in seen:
                self.count(counter)
                seen[key] = weakref.ref(args[0],
                                        lambda _, k=key: seen.pop(k, None))
            return args, kwargs
        return before

    def count(self, name, k=1):
        self.tallies[self.run_id >= 0][name] += k

    def peak(self, name, value):
        if value > self.peaks[name]:
            self.peaks[name] = value

    def _hooks(self, name, fn):
        count, peak = self.count, self.peak
        if name in ("faces", "canonical_form", "strands"):
            return self._first_call(name + ".computed"), None
        if name == "to_standard":
            def after(result, failed):
                count("to_standard.failed", failed)
            return None, after
        if name == "straighten":
            params = list(inspect.signature(fn).parameters)
            at = params.index("depth")

            def before(args, kwargs):
                peak("straighten.max_depth",
                     kwargs.get("depth", args[at] if len(args) > at else 0))
                return args, kwargs
            return before, None
        if name == "walk_fillings":
            def before(args, kwargs):
                args = list(args)
                inner = args[2]

                def emit(*a):
                    count("fillings")
                    return inner(*a)
                args[2] = emit
                return args, kwargs
            return before, None
        if name == "enumerate_connected_diagrams":
            def after(result, failed):
                if not failed:
                    count("kept", len(result))
            return None, after
        if name == "laurent_audit":
            def after(result, failed):
                if not failed:
                    peak("max_terms", result["max_terms"])
            return None, after
        return None, None

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        plan = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "tricross" or key.startswith("tricross."))
                   and m is not None]
        for layer_id, (name, targets) in enumerate(LAYERS.items()):
            for mod_name, attr in targets:
                method = attr.startswith("TripleDiagram.")
                if method:
                    attr = attr.split(".")[1]
                    owner = tricross.TripleDiagram
                else:
                    owner = sys.modules["tricross." + mod_name]
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                wrapper = self._span(layer_id, fn, *self._hooks(name, fn))
                if method:
                    plan.append((owner, attr, fn, wrapper))
                    continue
                for m in modules:
                    for key, value in vars(m).items():
                        if value is fn:
                            plan.append((m, key, fn, wrapper))
        cls = tricross.TripleDiagram
        init = cls.__init__
        count = self.count

        def counted_init(obj, *args, **kwargs):
            count("built")
            init(obj, *args, **kwargs)
        plan.append((cls, "__init__", init, counted_init))
        return plan

    def install(self):
        for owner, attr, _, wrapper in self.plan:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.plan:
            setattr(owner, attr, original)

    # ------------------------------------------------------------------

    def layer_totals(self, passes):
        """{layer: (calls, self seconds)} for one set-up plus one pass."""
        n = len(self.start)
        start, end, parent, layer, run = self.start, self.end, self.parent, \
            self.layer, self.run
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0.0] * len(self.names)
        busy = [0.0] * len(self.names)
        for i in range(n):
            k = layer[i]
            share = 1.0 if run[i] < 0 else 1.0 / passes
            busy[k] += share * (end[i] - start[i] - child[i])
            p = parent[i]
            if p < 0 or layer[p] != k:
                calls[k] += share
        return {name: (calls[k], busy[k]) for k, name in enumerate(self.names)}

    def metrics(self, passes, overhead_share):
        """The per-layer metrics, named and ordered as in BENCHMARK.json."""
        totals = self.layer_totals(passes)
        setup, timed = self.tallies
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def tally(name):
            return setup[name] + timed[name] / passes

        def calls_self(layer):
            put(layer + ".calls", totals[layer][0], "count")
            put(layer + ".self_ms", 1000 * totals[layer][1], "ms")

        put("built", tally("built"), "count")
        for layer in ("faces", "canonical_form"):
            put(layer + ".calls", totals[layer][0], "count")
            put(layer + ".computed", tally(layer + ".computed"), "count")
            put(layer + ".self_ms", 1000 * totals[layer][1], "ms")
        calls_self("validate")
        put("strands.computed", tally("strands.computed"), "count")
        put("strands.self_ms", 1000 * totals["strands"][1], "ms")
        calls_self("to_standard")
        put("to_standard.failed", tally("to_standard.failed"), "count")
        calls_self("straighten")
        put("straighten.max_depth", self.peaks["straighten.max_depth"],
            "count")
        for layer in CALLS_SELF:
            calls_self(layer)
        for layer in SELF_ONLY:
            put(layer + ".self_ms", 1000 * totals[layer][1], "ms")
        fillings = tally("fillings")
        put("fillings", fillings, "count")
        put("kept_ratio", tally("kept") / fillings if fillings else 0.0,
            "ratio")
        put("max_terms", self.peaks["max_terms"], "count")
        put("trace.overhead_share", overhead_share, "ratio")
        return out

    def write(self, path):
        """All spans as tab-separated text: layer, start, end, parent, run."""
        with gzip.open(path, "wt") as fh:
            fh.write("layer\tstart_s\tend_s\tparent\trun\n")
            for i in range(len(self.start)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    self.names[self.layer[i]], self.start[i], self.end[i],
                    self.parent[i], self.run[i]))
