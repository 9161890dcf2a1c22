"""Spans and counters around qfourier's layer boundaries, installed from outside.

Nothing in the package is edited. `install` rebinds each traced function in
the module namespace its caller looks it up in (for example `adaptive_quad`
inside `qfourier.transform`, where `qft_complex` finds it), and `uninstall`
puts the originals back. Spans are aggregated as they close, so a pass with
a few hundred thousand integrand calls costs a few counters, not a list of
spans: per name the tracer keeps calls, inclusive time and self time (the
span's duration minus the time its direct child spans cover).
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np


class Tracer:
    """Per-pass span aggregates; `reset` starts a new pass."""

    def __init__(self):
        self._stack = []
        self._restore = []
        self.reset()

    def reset(self):
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.counts = {}
        self.samples = {}

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def wrap(self, fn, name, on_call=None, label=None):
        """fn timed as span `name`.

        on_call(args, kwargs) runs before the call, for counters; label(args,
        kwargs) names a bucket of inclusive durations kept in `samples`.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.total_s[name] = tracer.total_s.get(name, 0.0) + dt
                tracer.self_s[name] = (tracer.self_s.get(name, 0.0)
                                       + dt - frame[1])
                if label is not None:
                    key = f"{name}.{label(args, kwargs)}"
                    tracer.samples.setdefault(key, []).append(dt)

        return traced

    def patch(self, module, attr, replacement):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        """Rebind every traced layer function where its callers find it."""
        from qfourier import (cli, closedform, inversion, quadrature, special,
                              transform, ultra)

        def direct_panel(args, kwargs):
            if self.parent() == "quadrature.adaptive_quad":
                self.count("quadrature.gk15_panel.direct")

        def seeded(args, kwargs):
            self.count("quadrature.seed_panels.panels", len(args[1]) - 1)

        self.patch(quadrature, "gk15_panel",
                   self.wrap(quadrature.gk15_panel, "quadrature.gk15_panel",
                             on_call=direct_panel))
        self.patch(quadrature, "_seed_panels",
                   self.wrap(quadrature._seed_panels,
                             "quadrature.seed_panels", on_call=seeded))
        self.patch(transform, "adaptive_quad",
                   self.wrap(transform.adaptive_quad,
                             "quadrature.adaptive_quad"))

        def nodes(args, kwargs):
            self.count("transform.kernel_integrand.nodes", int(np.size(args[0])))

        factory = transform._kernel_integrand

        def traced_factory(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs),
                             "transform.kernel_integrand", on_call=nodes)

        self.patch(transform, "_kernel_integrand", traced_factory)

        qft = self.wrap(transform.qft_complex, "transform.qft_complex",
                        label=lambda args, kwargs: tail_path(args[0], args[2]))
        self.patch(transform, "qft_complex", qft)
        self.patch(cli, "qft_complex", qft)
        self.patch(inversion, "roundtrip",
                   self.wrap(inversion.roundtrip, "inversion.roundtrip"))
        self.patch(inversion, "inverse_ft",
                   self.wrap(inversion.inverse_ft, "inversion.inverse_ft"))
        self.patch(cli, "main", self.wrap(cli.main, "cli.main"))
        self.patch(closedform, "hyp2f1",
                   self.wrap(closedform.hyp2f1, "special.hyp2f1"))
        self.patch(special, "log_gamma",
                   self.wrap(special.log_gamma, "special.log_gamma"))
        self.patch(closedform, "powerlaw_qft_closed",
                   self.wrap(closedform.powerlaw_qft_closed,
                             "closedform.powerlaw_qft_closed"))
        self.patch(ultra, "contour_apply",
                   self.wrap(ultra.contour_apply, "ultra.contour_apply"))

    def wrap_rep(self, rep, name):
        """An AnalyticRep whose evaluator is traced as span `name`.

        contour_apply reads the evaluator off the representation it is given,
        so the representation is where that name is looked up.
        """
        from qfourier.ultra import AnalyticRep

        def points(args, kwargs):
            self.count("ultra.evaluator.points", int(np.size(args[0])))

        return AnalyticRep(evaluator=self.wrap(rep.evaluator, name,
                                               on_call=points),
                           growth_order=rep.growth_order)

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def tail_path(f, point):
    """Tail path qft_complex takes for f at this point, read off the inputs.

    empty: the half-line misses the support; compact: finite interval; cut:
    super-algebraic tail cut at a bound; map: algebraic tail mapped to (0, 1].
    """
    from qfourier.transform import PlaneTag

    lo, hi = f.support()
    if point.plane in (PlaneTag.UPPER, PlaneTag.REAL_LIMIT_UPPER):
        a, b = max(lo, 0.0), hi
    else:
        a, b = lo, min(hi, 0.0)
    if b <= a:
        return "empty"
    if math.isfinite(a) and math.isfinite(b):
        return "compact"
    return "cut" if f.tail_exponent() == math.inf else "map"


def layer_metrics(tracer):
    """Per-layer figures of one pass, from the tracer's aggregates."""
    c, s, n = tracer.calls, tracer.self_s, tracer.counts
    seeded = n.get("quadrature.seed_panels.panels", 0)
    direct = n.get("quadrature.gk15_panel.direct", 0)
    evaluated = seeded + direct
    kernel_s = s.get("transform.kernel_integrand", 0.0)
    nodes = n.get("transform.kernel_integrand.nodes", 0)
    out = {
        "quadrature.adaptive_quad.calls": c.get("quadrature.adaptive_quad", 0),
        "quadrature.adaptive_quad.self_s": s.get("quadrature.adaptive_quad", 0.0),
        "quadrature.gk15_panel.calls": c.get("quadrature.gk15_panel", 0),
        "quadrature.gk15_panel.self_s": s.get("quadrature.gk15_panel", 0.0),
        "quadrature.seed_panels.panels": seeded,
        "quadrature.seed_panels.self_s": s.get("quadrature.seed_panels", 0.0),
        # each bisection evaluates two panels and adds one leaf
        "quadrature.leaf_ratio": ((seeded + direct / 2) / evaluated
                                  if evaluated else 0.0),
        "transform.kernel_integrand.calls": c.get("transform.kernel_integrand", 0),
        "transform.kernel_integrand.nodes": nodes,
        "transform.kernel_integrand.self_s": kernel_s,
        "transform.kernel_integrand.nodes_per_s": (nodes / kernel_s
                                                   if kernel_s else 0.0),
        "transform.qft_complex.calls": c.get("transform.qft_complex", 0),
        "transform.qft_complex.self_s": s.get("transform.qft_complex", 0.0),
        "inversion.roundtrip.self_s": s.get("inversion.roundtrip", 0.0),
        "inversion.inverse_ft.self_s": s.get("inversion.inverse_ft", 0.0),
        "cli.main.self_s": s.get("cli.main", 0.0),
        "special.hyp2f1.calls": c.get("special.hyp2f1", 0),
        "special.hyp2f1.self_s": s.get("special.hyp2f1", 0.0),
        "special.log_gamma.calls": c.get("special.log_gamma", 0),
        "special.log_gamma.self_s": s.get("special.log_gamma", 0.0),
        "closedform.powerlaw_qft_closed.calls":
            c.get("closedform.powerlaw_qft_closed", 0),
        "closedform.powerlaw_qft_closed.self_s":
            s.get("closedform.powerlaw_qft_closed", 0.0),
        "ultra.contour_apply.calls": c.get("ultra.contour_apply", 0),
        "ultra.contour_apply.self_s": s.get("ultra.contour_apply", 0.0),
        "ultra.evaluator.points": n.get("ultra.evaluator.points", 0),
        "ultra.dirac_rep.evaluator_s": tracer.total_s.get(
            "ultra.dirac_rep.evaluator", 0.0),
    }
    for path in ("compact", "cut", "map"):
        d = tracer.samples.get(f"transform.qft_complex.{path}", [])
        out[f"transform.qft_complex.{path}_p50_ms"] = (
            1e3 * float(np.median(d)) if d else 0.0)
    return out
