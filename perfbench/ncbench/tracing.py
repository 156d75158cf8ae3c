"""In-memory span tracing of the nctorus layers, installed from outside the library.

A traced run replaces selected public functions of ``nctorus`` by wrappers
that record one span per call (name, start, end, parent span, op id) and a
few exact counts.  ``algebra.mul`` is additionally re-bound in every
``nctorus`` module that imported it by name, so the products computed inside
other layers are seen too.  Every other function is wrapped on its own module
only, which is where the benchmark calls it from.  Nothing in ``src/`` is
modified; ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("algebra", "gns", "symbols", "heat", "spectral")


class Tracer:
    """Spans and counts of one traced stretch of work, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, hook=None):
        """Wrapper of fn recording a span; name may be a callable of the args."""
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if hook is not None:
                hook(tracer.counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self, nct):
        """Wrap the public layer functions of the imported nctorus package."""
        for module, attr, name, hook in _targets(nct):
            original = getattr(module, attr)
            self._replace(module, attr, self.wrap(original, name, hook))
        # ConformalData.build is a classmethod: wrap the underlying function
        cls = nct.algebra.ConformalData
        build = cls.__dict__["build"]
        self._saved.append((cls, "build", build))
        setattr(cls, "build", classmethod(self.wrap(build.__func__, "algebra.build")))
        # algebra.mul everywhere it was imported by name
        original = nct.algebra.mul
        wrapped = self.wrap(original, "algebra.mul", _count_mul)
        for modname, module in sorted(sys.modules.items()):
            if modname.split(".")[0] == "nctorus" and getattr(module, "mul", None) is original:
                self._replace(module, "mul", wrapped)

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def layer_times(self) -> dict:
        """Busy and self time per span name and per layer, in seconds.

        Busy time of a name (or layer) sums its spans that are not nested in
        another span of the same name (or layer); self time is a span's
        duration minus the durations of its direct child spans.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            dur = end - start
            if not _nested_in(self.spans, parent, lambda n: n == name):
                out[name + "_s"] = out.get(name + "_s", 0.0) + dur
            if layer not in LAYERS:
                continue
            if not _nested_in(self.spans, parent, lambda n: n.split(".")[0] == layer):
                out[layer + ".busy_s"] = out.get(layer + ".busy_s", 0.0) + dur
            out[layer + ".self_s"] = out.get(layer + ".self_s", 0.0) + dur - children[i]
        return out

    def dump(self, path):
        """Write spans as JSON lines, then one line with the counts."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _nested_in(spans, parent, same) -> bool:
    while parent >= 0:
        if same(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


# -- counts recorded at the layer boundaries --------------------------------

def _count_mul(counts, args, kwargs, out):
    counts["algebra.mul.calls"] += 1
    counts["algebra.mul.pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _count_section(counts, args, kwargs, out):
    for op in out if isinstance(out, tuple) else (out,):
        counts["gns.section.entries"] += op.entries.size
        counts["gns.section.nonzeros"] += int(np.count_nonzero(op.entries))
        counts["gns.section.bytes"] += op.entries.nbytes


def _count_symbol_section(counts, args, kwargs, out):
    counts["symbols.section.calls"] += 1


def _count_heat(counts, args, kwargs, out):
    if "window" in out.params:
        counts["heat.window"] += int(out.params["window"])
    if args[0] == 2:
        counts["heat.b2.words"] += int(out.params.get("terms", 0))


def _count_mu(counts, args, kwargs, out):
    counts["spectral.mu.count"] += int(np.size(out))


def _heat_name(args, kwargs):
    return "heat.b0" if args[0] == 0 else "heat.b2"


def _targets(nct):
    gns, sym, heat, spec = nct.gns, nct.symbols, nct.heat, nct.spectral
    out = [
        (gns, "perturbed_laplacian_matrix", "gns.assemble", _count_section),
        (gns, "gram_laplacian_matrix", "gns.assemble", _count_section),
        (gns, "hermitian_spectrum", "gns.solve", None),
        (gns, "generalized_spectrum", "gns.solve", None),
        (gns, "trace_kinv2_matrix_route", "spectral.closed_form", None),
        (sym, "finite_section_of_op", "symbols.section", _count_symbol_section),
        (heat, "heat_coefficient", _heat_name, _count_heat),
        (heat, "parametrix_residual", "heat.parametrix", None),
        (heat, "heat_trace_fit", "heat.fit", None),
        (spec, "singular_values_descending", "spectral.svd", _count_mu),
        (spec, "weyl_slope", "spectral.fit", None),
        (spec, "adaptive_counting_ceiling", "spectral.fit", None),
        (spec, "dixmier_estimate", "spectral.fit", None),
        (spec, "weyl_constant_closed_form", "spectral.closed_form", None),
        (spec, "lattice_counting_data", "spectral.lattice", None),
        (spec, "resolvent_mu_disk", "spectral.lattice", None),
    ]
    for name in ("compose", "compose_poly", "adjoint_poly", "adjoint_symbol",
                 "apply_op", "classicalize_resolvent", "residue"):
        out.append((sym, name, "symbols.calculus", None))
    return out
