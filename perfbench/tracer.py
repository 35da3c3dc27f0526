"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the library and records
one span per call: name, start, end and the span that caused it.  Counts,
total time and self time (a span's duration minus the time its child
spans cover) are aggregated for every call; raw spans are kept in memory
up to a cap and written out once, when the run ends.

Modules import each other's functions by name (``from .natural_ext
import ito_step``), so a module-level function is replaced in every
``cfrow`` module that holds it, not only where it is defined.  Methods
are replaced on the class that defines them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

SPAN_CAP = 50_000


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.calls = Counter()        # span name -> calls
        self.total_s = Counter()      # span name -> summed duration
        self.self_s = Counter()       # span name -> summed self time
        self.edges = Counter()        # (parent name, child name) -> calls
        self.errors = Counter()       # (span name, exception class) -> raised
        self.tally = Counter()        # named tallies fed by result hooks
        self.spans = []               # (id, parent id, name, start, end)
        self.dropped = 0
        self.span_cap = span_cap
        self.missing = []             # span names whose target no longer exists
        self._stack = []              # open frames: [child time, id, name]
        self._next_id = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        """`fn` with a span named `name` around every call.

        `on_result(tracer, result)` may return a replacement result; it
        runs after the span closes, so its own work is not attributed to
        `name`.
        """
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [0.0, span_id, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                    self.edges[(parent[2], name)] += 1
                if len(self.spans) < self.span_cap:
                    self.spans.append(
                        (span_id, None if parent is None else parent[1], name, t0, t1)
                    )
                else:
                    self.dropped += 1
            if on_result is not None:
                replaced = on_result(self, result)
                if replaced is not None:
                    return replaced
            return result

        return traced

    # -- installation ------------------------------------------------------

    def patch_function(self, module, attr, name, on_result=None):
        """Replace module.attr in every cfrow module that imported it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapped = self.wrap(name, original, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cfrow" or mod_name.startswith("cfrow.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def patch_method(self, module, cls_name, attr, name, on_result=None):
        """Replace a method on the class that defines it."""
        cls = getattr(module, cls_name, None)
        if cls is None or attr not in vars(cls):
            self.missing.append(name)
            return
        original = vars(cls)[attr]
        setattr(cls, attr, self.wrap(name, original, on_result))
        self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """Write the retained spans as JSON lines."""
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": t0, "end": t1}
                    )
                    + "\n"
                )


def install_cfrow_spans(tracer: Tracer):
    """Wrap the layer boundaries the benchmark reports on.

    Must run after every cfrow module is imported, so that each module's
    imported names can be found and replaced.
    """
    from cfrow import (
        cfe,
        cli,
        contraction,
        digits,
        exact,
        farey_maps,
        gcf,
        induced,
        measure,
        natural_ext,
        reals,
        regions,
        shift_space,
    )

    def count_hits(tr, hit):
        if hit:
            tr.tally["measure.hits"] += 1

    def count_slow_steps(tr, rec):
        tr.tally["induced.slow_steps"] += rec.N

    def count_samples(tr, est):
        if est.samples is not None:
            tr.tally["measure.samples"] += est.samples

    def lazy_contraction(tr, contracted):
        # contract() returns a lazy Gcf: its digits are produced when a
        # caller reads them, so each production step gets its own
        # contraction span, reached through the public has_pair/pair.
        produce = tr.wrap("contraction.contract", contracted.has_pair)

        def pairs():
            k = 0
            while produce(k):
                tr.tally["contraction.digits"] += 1
                yield contracted.pair(k)
                k += 1

        return gcf.Gcf(pairs)

    # A target the library no longer has is listed in tracer.missing;
    # the traced run then fails rather than report its metrics as 0.
    tracer.patch_method(reals, "Surd", "__init__", "reals.Surd")
    tracer.patch_method(digits, "DigitStream", "enclosure", "digits.enclosure")
    tracer.patch_method(exact, "Mat2Z", "__matmul__", "exact.Mat2Z.matmul")
    tracer.patch_method(regions, "AlphaRegion", "contains", "regions.AlphaRegion.contains")
    tracer.patch_method(regions, "AlphaRegion", "contains_rational",
                        "regions.AlphaRegion.contains_rational", count_hits)
    tracer.patch_method(regions, "CellRegion", "contains", "regions.CellRegion.contains")
    tracer.patch_method(regions, "RectRegion", "contains", "regions.RectRegion.contains")
    tracer.patch_method(regions, "SExpansionRegion", "contains",
                        "regions.SExpansionRegion.contains")

    tracer.patch_function(natural_ext, "ito_step", "natural_ext.ito_step")
    tracer.patch_function(natural_ext, "ito_backstep", "natural_ext.ito_backstep")
    tracer.patch_function(induced, "induced_step", "induced.induced_step", count_slow_steps)
    tracer.patch_function(induced, "backward_induced_step", "induced.backward_induced_step")
    tracer.patch_function(shift_space, "tau_step", "shift_space.tau_step")
    tracer.patch_function(farey_maps, "farey_expansion", "farey_maps.farey_expansion")
    tracer.patch_function(contraction, "contract", "contraction.contract", lazy_contraction)
    tracer.patch_function(gcf, "convergents", "gcf.convergents")
    tracer.patch_function(cfe, "cfe_direct", "cfe.cfe_direct")
    tracer.patch_function(cfe, "cfe_by_contraction", "cfe.cfe_by_contraction")
    tracer.patch_function(cfe, "cfe_convergents_report", "cfe.cfe_convergents_report")
    tracer.patch_function(measure, "measure_of", "measure.measure_of", count_samples)
    # the quadrature path has no public entry point of its own
    tracer.patch_function(measure, "_quadrature", "measure.quadrature")
    tracer.patch_function(cli, "main", "cli.main")
