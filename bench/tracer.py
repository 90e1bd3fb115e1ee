"""Outside-in tracer: per-layer time and counts without editing the library.

:class:`Tracer` replaces public functions and methods of the ``hardycorners``
modules with wrappers that record one span per call (name, start, end,
parent) in flat in-memory arrays, and puts every original back when it is
uninstalled.  Module-level functions are wrapped in the namespace of the
module that *calls* them (``hardycorners.measures.corner_kernel``, not
``hardycorners.kernels.corner_kernel``), because the library imports them by
name.  A span's self time is its duration minus the time its child spans
cover.

Counts are of wrapped calls only: a later change that routes work around a
wrapped function changes what the tracer sees, so gains are claimed on wall
time, not on these counts.

Only the traced run imports this module.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from hardycorners import domain, hermpoly, measures, normalforms, projective

CATALOG_CHARTS = (domain.TorusChart, domain.SpherePolarChart, domain.GraphPatchChart)


def _terms(args, result):
    return len(args[0].terms)


def _nodes(args, result):
    return len(result)


def _targets():
    """(owner, attribute, span name, size function) of every wrapped callable."""
    out = []
    out.append((hermpoly.Poly, "__call__", "hermpoly.Poly.__call__", _terms))
    out.append((hermpoly.Poly, "diff", "hermpoly.Poly.diff", None))
    for attr in ("__call__", "grad", "grad_real", "hessian_complex"):
        out.append((hermpoly.HermitianPoly, attr, f"hermpoly.HermitianPoly.{attr}", None))
    out.append((domain, "gradient_hyperplane", "hermpoly.gradient_hyperplane", None))
    for cls in CATALOG_CHARTS + (domain.TransformedChart,):
        for attr in ("point", "tangents"):
            out.append((cls, attr, f"domain.{cls.__name__}.{attr}", None))
    # TransformedChart.quad_nodes only delegates to its base chart's.
    for cls in CATALOG_CHARTS:
        out.append((cls, "quad_nodes", f"quadrature.{cls.__name__}.quad_nodes", _nodes))
    out.append((domain.PwsDomain, "edge_at", "domain.PwsDomain.edge_at", None))
    out.append((measures, "strong_tangents", "domain.strong_tangents", None))
    for name in (
        "smooth_leray_density",
        "corner_kernel",
        "orientation_sign_face",
        "orientation_sign_edge",
    ):
        out.append((measures, name, f"kernels.{name}", None))
    out.append((measures, "eta", "normalforms.eta", None))
    for name in ("edge_frame", "extract_normal_form", "normalize_coeffs", "kappa"):
        out.append((normalforms, name, f"normalforms.{name}", None))
    for attr in ("apply", "den", "affine", "jacobian", "inverse"):
        out.append((projective.ProjMap, attr, f"projective.ProjMap.{attr}", None))
    out.append((normalforms, "normalize_map", "projective.normalize_map", None))
    out.append((projective, "pull_back_section", "projective.pull_back_section", None))
    for name in (
        "reproduce",
        "hardy_norm",
        "build_measure",
        "fefferman_density",
        "edge_measure_density",
    ):
        out.append((measures, name, f"measures.{name}", None))
    out.append((measures.BoundaryMeasure, "integrate", "measures.BoundaryMeasure.integrate", None))
    return out


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self._targets = _targets()
        self.names = [name for _, _, name, _ in self._targets]
        self._saved = []
        self.reset()

    def reset(self):
        """Forget every recorded span (wrappers stay installed)."""
        self._start = array("d")
        self._end = array("d")
        self._name = array("q")
        self._parent = array("q")
        self._stack = [-1]
        self._size = [0] * len(self.names)

    def wrap(self, fn, name, size=None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        if name not in self.names:
            self.names.append(name)
            self._size.append(0)
        ident = self.names.index(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            starts, ends, stack = tracer._start, tracer._end, tracer._stack
            index = len(starts)
            tracer._name.append(ident)
            tracer._parent.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if size is not None:
                tracer._size[ident] += size(args, result)
            return result

        return traced

    def install(self):
        for owner, attr, name, size in self._targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, size))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per span name: calls, summed size, inclusive and self seconds."""
        n = len(self.names)
        start = np.frombuffer(self._start, dtype=float)
        duration = np.frombuffer(self._end, dtype=float) - start
        name = np.frombuffer(self._name, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(start))
        self_time = duration - covered
        calls = np.bincount(name, minlength=n)
        inclusive = np.bincount(name, weights=duration, minlength=n)
        self_s = np.bincount(name, weights=self_time, minlength=n)
        return {
            self.names[i]: {
                "calls": int(calls[i]),
                "size": self._size[i],
                "inclusive_s": float(inclusive[i]),
                "self_s": float(self_s[i]),
            }
            for i in range(n)
        }


def layer_metrics(summary):
    """The per-layer metrics of one traced operation, as name -> (value, unit)."""

    def calls(*names):
        return sum(summary[name]["calls"] for name in names)

    def self_s(layer):
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(layer + "."))

    charts = [c.__name__ for c in CATALOG_CHARTS]
    nodes = sum(summary[f"quadrature.{c}.quad_nodes"]["size"] for c in charts)
    solves = sum(calls(f"domain.{c}.point", f"domain.{c}.tangents") for c in charts)
    chart_calls = solves + calls("domain.TransformedChart.point", "domain.TransformedChart.tangents")
    projective_calls = sum(v["calls"] for k, v in summary.items() if k.startswith("projective."))
    return {
        "hermpoly.self_s": (self_s("hermpoly"), "s"),
        "hermpoly.evals": (calls("hermpoly.Poly.__call__"), "count"),
        "hermpoly.diff_calls": (calls("hermpoly.Poly.diff"), "count"),
        "hermpoly.terms_evaluated": (summary["hermpoly.Poly.__call__"]["size"], "count"),
        "domain.self_s": (self_s("domain"), "s"),
        "domain.chart_calls": (chart_calls, "count"),
        "domain.solves_per_node": (solves / nodes if nodes else 0.0, "1/node"),
        "quadrature.nodes": (nodes, "count"),
        "kernels.self_s": (self_s("kernels"), "s"),
        "kernels.density_calls": (
            calls("kernels.smooth_leray_density", "kernels.corner_kernel"),
            "count",
        ),
        "kernels.sign_calls": (
            calls("kernels.orientation_sign_face", "kernels.orientation_sign_edge"),
            "count",
        ),
        "normalforms.self_s": (self_s("normalforms"), "s"),
        "normalforms.eta_calls": (calls("normalforms.eta"), "count"),
        "normalforms.extract_s": (summary["normalforms.extract_normal_form"]["inclusive_s"], "s"),
        "normalforms.kappa_s": (summary["normalforms.kappa"]["inclusive_s"], "s"),
        "projective.self_s": (self_s("projective"), "s"),
        "projective.map_calls": (projective_calls, "count"),
        "measures.self_s": (self_s("measures"), "s"),
        "measures.density_calls": (
            calls("measures.fefferman_density", "measures.edge_measure_density"),
            "count",
        ),
    }
