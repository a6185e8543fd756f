"""Layer spans around the package's public functions.

``Tracer.install`` replaces each traced function in every module that
holds a reference to it (``from x import f`` binds ``f`` in the
importing module, so each binding is patched on its own) and
``Tracer.remove`` puts the originals back.  Spans are aggregated in
memory by (layer, parent layer): call count, total time and self time,
where self time is a span's duration minus the time its child spans
cover.  A call to a layer from inside the same layer (for example
``lattice_from_json`` calling ``poset_from_json``) is counted as part of
the outer span.  A generator layer (``corpus_stream``) gets one span per
item drawn from it.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# layer -> (function name, modules whose binding of it is patched)
LAYERS = {
    "harness.run_suite": [("run_suite", ("subnorm.harness",))],
    "harness.corpus_stream": [("corpus_stream", ("subnorm.harness.run",))],
    "harness.verify_check": [("verify_check", ("subnorm.harness.run",))],
    "harness.verify_prop41": [("verify_prop41", ("subnorm.harness.catalog",))],
    "completion.dm_completion": [("dm_completion", (
        "subnorm.completion", "subnorm.harness.run", "subnorm.harness.maximality",
        "subnorm.slanted", "subnorm.cli"))],
    "slanted.build_slanted": [("build_slanted", (
        "subnorm.slanted", "subnorm.harness.run", "subnorm.harness.maximality",
        "subnorm.duality"))],
    "slanted.extensions": [
        ("sigma_extension", ("subnorm.slanted", "subnorm.harness.run", "subnorm.duality")),
        ("pi_extension", ("subnorm.slanted", "subnorm.harness.run"))],
    "slanted.valid": [("valid", ("subnorm.slanted",))],
    "subordination.property_holds": [("property_holds", (
        "subnorm.subordination", "subnorm.harness.run", "subnorm.harness.maximality",
        "subnorm.harness.generate"))],
    "subordination.check_property": [("check_property", (
        "subnorm.subordination", "subnorm.cli"))],
    "subordination.close": [("close", (
        "subnorm.subordination", "subnorm.harness.generate", "subnorm.cli"))],
    "duality.build_space": [
        ("build_space_jirr", ("subnorm.duality", "subnorm.cli")),
        ("build_space_primefilters", ("subnorm.duality", "subnorm.cli"))],
    "duality.check_relational": [("check_relational", ("subnorm.duality", "subnorm.cli"))],
    "duality.spaces_isomorphic": [("spaces_isomorphic", ("subnorm.duality",))],
    "iologic.query": [("derive", ("subnorm.iologic",)), ("out", ("subnorm.iologic",)),
                      ("modal_output", ("subnorm.iologic",))],
    # a closure computed by iologic is a miss of its closure cache
    "iologic.close_i": [("close_i", ("subnorm.iologic",))],
    "cli.main": [("main", ("subnorm.cli",))],
    "order.from_json": [
        ("poset_from_json", ("subnorm.order", "subnorm.subordination", "subnorm.cli")),
        ("lattice_from_json", ("subnorm.order", "subnorm.subordination"))],
}

_END = object()


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [layer, time covered by children]
        self.spans = {}  # (layer, parent) -> [calls, total_s, self_s]
        self.missing = []  # patch points absent from the package
        self._undo = []

    def span(self, layer, fn):
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                key = (layer, parent[0] if parent is not None else None)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

        traced.__wrapped__ = fn
        return traced

    def generator_span(self, layer, fn):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            step = self.span(layer, lambda: next(it, _END))
            while True:
                item = step()
                if item is _END:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = {}
        for layer, points in LAYERS.items():
            for attr, modules in points:
                for modname in modules:
                    mod = importlib.import_module(modname)
                    orig = getattr(mod, attr, None)
                    if orig is None:
                        self.missing.append(f"{modname}.{attr}")
                        continue
                    if orig not in wrappers:
                        make = (self.generator_span if layer == "harness.corpus_stream"
                                else self.span)
                        wrappers[orig] = make(layer, orig)
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrappers[orig])
        self._patch_catalog_closures(wrappers)

    def _patch_catalog_closures(self, wrappers):
        """Catalog entries built by a factory hold the function they call
        in a closure cell bound when the catalog is created."""
        catalog = sys.modules.get("subnorm.harness.catalog")
        for spec in getattr(catalog, "CATALOG", ()):
            for fn in (spec.precondition, spec.lhs, spec.rhs, spec.law):
                for cell in getattr(fn, "__closure__", None) or ():
                    try:
                        target = cell.cell_contents
                    except ValueError:
                        continue
                    if callable(target) and target in wrappers:
                        self._undo.append((cell, "cell_contents", target))
                        cell.cell_contents = wrappers[target]

    def remove(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def table(self):
        """Per layer: calls, self time and total time (time in the layer
        when not nested in itself), summed over parents."""
        out = {}
        for (layer, _parent), (calls, total, self_s) in self.spans.items():
            rec = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            rec["calls"] += calls
            rec["self_s"] += self_s
            rec["total_s"] += total
        return out

    def edges(self):
        return [{"layer": layer, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (layer, parent), (calls, total, self_s) in sorted(
                    self.spans.items(), key=lambda kv: -kv[1][2])]
