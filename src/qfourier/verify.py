"""Self-check suites behind the command-line ``verify`` subcommand.

Each suite re-runs a handful of anchor computations and compares them
against independent oracles: closed forms against adaptive quadrature,
contour values against residue calculus, gamma ratios against their
rational collapse, round trips against the input function. A check never
raises on numerical disagreement; it reports (name, ok, detail) so front
ends can serialize the outcome. Only an unknown suite name raises.
"""

import cmath
import math

import numpy as np

from .closedform import (constant_qft_delta_weight, hilhorst_lambda,
                         hilhorst_qft, powerlaw_qft_closed)
from .inversion import EpsilonSchedule, roundtrip
from .special import Hyp2F1Params, gamma_ratio_collapse, hyp2f1, log_gamma
from .transform import (Gaussian, HalfPlanePoint, PlaneTag, PowerLaw,
                        QuadratureConfig, qft_complex, qft_real_line)
from .ultra import (AnalyticRep, ContourSpec, contour_apply, dirac_rep,
                    pseudo_poly_invariance_check)

SUITE_NAMES = ("closedforms", "special", "ultra", "inversion", "all")

_CFG = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)


def _run(name, fn):
    try:
        ok, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        return (name, False, f"raised {type(exc).__name__}: {exc}")
    return (name, bool(ok), detail)


def _up(k):
    if complex(k).imag > 0:
        return HalfPlanePoint(complex(k), PlaneTag.UPPER)
    return HalfPlanePoint(complex(k), PlaneTag.REAL_LIMIT_UPPER)


def _rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _pole_rep(q):
    return AnalyticRep(evaluator=lambda z: 1j / ((2.0 - q) * z),
                       growth_order=0, conjugate_odd=True)


def _gauss_phi(z):
    return np.exp(-z ** 2)


def level_set_members(pairs, q0):
    """PowerLaw windows (lam/x)^(1/(q0-1)) on each (a, b), lam taken from
    the window at q0; members on one 1/a - 1/b level set collide at q0."""
    lams = [hilhorst_lambda(a, b, q0) for a, b in pairs]
    return [PowerLaw(lam, 1.0 / (q0 - 1.0), a, b)
            for (a, b), lam in zip(pairs, lams)]


def member_rows(members, q, k_grid):
    """Each member's real-line transform at every real k of k_grid, one
    batched call and one row per member, at the tight verify tolerances.
    A window on x > 0 has an empty lower piece, so each row is bitwise the
    member's upper-side real limit."""
    return [qft_real_line(m, q, k_grid, _CFG)[0] for m in members]


def max_pairwise_dev(rows):
    """Largest |u[k] - v[k]| over every pair of rows u, v and every k."""
    worst = 0.0
    for i, u in enumerate(rows):
        for v in rows[i + 1:]:
            for a, b in zip(u, v):
                worst = max(worst, abs(a - b))
    return worst


# ---------------------------------------------------------------- suites

def suite_closedforms():
    checks = []

    def box_vs_quadrature():
        # f = 1 on [a, b] against powerlaw_qft_closed's beta = 0 primitive,
        # the kernel primitive that a step's closed-form piece rests on
        worst = max(_rel(qft_complex(f, q, _up(k), _CFG)[0],
                         powerlaw_qft_closed(f, q, _up(k)))
                    for f in (PowerLaw(1.0, 0.0, 0.5, 2.0),
                              PowerLaw(1.0, 0.0, 1.0, 3.0))
                    for q in (1.2, 1.5, 1.8) for k in (0.5, 2.0, 1j))
        return worst < 1e-10, f"max rel dev {worst:.3e} (tol 1e-10)"
    checks.append(_run("box_vs_quadrature", box_vs_quadrature))

    def powerlaw_vs_quadrature(f, q, k, tol):
        got, _ = qft_complex(f, q, _up(k), _CFG)
        r = _rel(got, powerlaw_qft_closed(f, q, _up(k)))
        return r < tol, f"rel dev {r:.3e} (tol {tol:.0e})"

    for name, *args in (
            ("powerlaw_low_regime", PowerLaw(1.0, 3.0, 1.0, 2.0), 1.2, 1.5,
             1e-7),
            ("powerlaw_high_regime", PowerLaw(0.7, 2.5, 1.3, 3.0), 1.6, 2.0,
             1e-6),
            # s = 1 - 2(q-1) = 0 at q = 1.5
            ("boundary_collapse", PowerLaw(1.3, 2.0, 1.0, 2.0), 1.5, 1.0,
             1e-8)):
        checks.append(_run(name, lambda a=args: powerlaw_vs_quadrature(*a)))

    q0 = 1.5
    windows = [(1.0, 2.0), (4.0 / 3.0, 4.0), (1.2, 3.0)]
    probe_k = (0.5, 1.0, 2.0)

    def collision_level_set():
        members = level_set_members(windows, q0)
        lams = [m.lam for m in members]
        spread = max(lams) - min(lams)
        # the shared closed form joins the rows, so every member is
        # checked against it as well as against the others
        shared = [hilhorst_qft(lams[0], q0, _up(k)) for k in probe_k]
        worst = max_pairwise_dev(member_rows(members, q0, probe_k)
                                 + [shared])
        ok = worst < 1e-6 and spread < 1e-12
        return ok, (f"lambda spread {spread:.3e}, max deviation {worst:.3e}"
                    " (tol 1e-06)")
    checks.append(_run("collision_level_set", collision_level_set))

    def separation_off_level():
        members = level_set_members(windows, q0)
        sep = min(max_pairwise_dev(member_rows(members, qp, probe_k))
                  for qp in (1.3, 1.7))
        return sep > 1e-3, f"min pairwise separation {sep:.3e} (floor 1e-03)"
    checks.append(_run("separation_off_level", separation_off_level))

    def delta_weights():
        worst = max(_rel(constant_qft_delta_weight(1.5), 4.0 * math.pi),
                    _rel(constant_qft_delta_weight(1.0), 2.0 * math.pi),
                    _rel(constant_qft_delta_weight(1.9), 20.0 * math.pi))
        return worst < 1e-12, f"max rel dev {worst:.3e} (tol 1e-12)"
    checks.append(_run("delta_weights", delta_weights))

    return checks


def suite_special():
    checks = []

    def binomial_collapse_draws():
        rng = np.random.default_rng(20260816)
        worst = 0.0
        for _ in range(100):
            alpha = rng.uniform(0.05, 3.0)
            b = rng.uniform(0.5, 4.0)
            w = rng.uniform(0.01, 0.99)
            got = hyp2f1(Hyp2F1Params(-alpha, b, b, -w))
            worst = max(worst, abs(got - (1.0 + w) ** alpha))
        return worst < 1e-10, f"max abs dev {worst:.3e} over 100 draws"
    checks.append(_run("binomial_collapse_draws", binomial_collapse_draws))

    def gamma_ratio_rational():
        worst = 0.0
        for q in np.arange(1.1, 1.95, 0.1):
            worst = max(worst, _rel(gamma_ratio_collapse(q),
                                    (q - 1.0) / (2.0 - q)))
        return worst < 1e-12, f"max rel dev {worst:.3e} over 9 q values"
    checks.append(_run("gamma_ratio_rational", gamma_ratio_rational))

    def hyp2f1_terminating_anchor():
        got = hyp2f1(Hyp2F1Params(-2.0, 1.7, 1.7, -0.5))
        r = _rel(got, 2.25)
        return r < 1e-12, f"rel dev {r:.3e} against (1+z)^2 at z=0.5"
    checks.append(_run("hyp2f1_terminating_anchor", hyp2f1_terminating_anchor))

    def hyp2f1_log_anchor():
        z = 0.3 + 0.4j
        got = hyp2f1(Hyp2F1Params(1.0, 1.0, 2.0, z))
        want = -cmath.log(1.0 - z) / z
        r = _rel(got, want)
        return r < 1e-10, f"rel dev {r:.3e} against -log(1-z)/z"
    checks.append(_run("hyp2f1_log_anchor", hyp2f1_log_anchor))

    def log_gamma_reflection():
        worst = 0.0
        for z in (0.3 + 0.7j, -1.4 + 2.2j, 2.5 - 0.6j):
            lhs = cmath.exp(log_gamma(z) + log_gamma(1.0 - z))
            want = math.pi / cmath.sin(math.pi * z)
            worst = max(worst, _rel(lhs, want))
        return worst < 1e-12, f"max rel dev {worst:.3e} (tol 1e-12)"
    checks.append(_run("log_gamma_reflection", log_gamma_reflection))

    return checks


def suite_ultra():
    checks = []

    def delta_weight_contour():
        worst = 0.0
        for q in (1.2, 1.5, 1.8):
            got = contour_apply(_pole_rep(q), _gauss_phi)
            worst = max(worst, _rel(got, 2.0 * math.pi / (2.0 - q)))
        return worst < 1e-6, f"max rel dev {worst:.3e} (tol 1e-06)"
    checks.append(_run("delta_weight_contour", delta_weight_contour))

    def offset_invariance():
        worst = 0.0
        for zeta in (0.5, 1.0, 2.0):
            got = contour_apply(_pole_rep(1.5), _gauss_phi,
                                ContourSpec(zeta=zeta))
            worst = max(worst, _rel(got, 4.0 * math.pi))
        return worst < 1e-6, f"max rel dev {worst:.3e} across offsets"
    checks.append(_run("offset_invariance", offset_invariance))

    def dirac_pairing():
        # N(0,1) paired with exp(-t^2) integrates to 1/sqrt(3) exactly
        grid = np.linspace(-10.0, 10.0, 4001)
        dens = lambda t: np.exp(-t ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
        got = contour_apply(dirac_rep(dens, grid), _gauss_phi)
        r = _rel(got, 1.0 / math.sqrt(3.0))
        return r < 1e-6, f"rel dev {r:.3e} (tol 1e-06)"
    checks.append(_run("dirac_pairing", dirac_pairing))

    def pseudo_poly_invariance():
        worst = 0.0
        for deg in range(6):
            worst = max(worst, pseudo_poly_invariance_check(
                _pole_rep(1.5), deg, _gauss_phi, seed=deg))
        return worst < 1e-8, f"max shift {worst:.3e} over degrees 0..5"
    checks.append(_run("pseudo_poly_invariance", pseudo_poly_invariance))

    return checks


def suite_inversion():
    checks = []

    def classical_reduction():
        ks = (-5.0, -2.5, 0.0, 1.5, 3.0, 5.0)
        got, _ = qft_real_line(Gaussian(1.0), 1.0 + 1e-4, np.array(ks))
        worst = 0.0
        for k, g in zip(ks, got):
            want = math.sqrt(2.0 * math.pi) * math.exp(-k * k / 2.0)
            worst = max(worst, abs(g - want))
        return worst < 1e-3, f"max abs dev {worst:.3e} (tol 1e-03)"
    checks.append(_run("classical_reduction", classical_reduction))

    def gaussian_roundtrip():
        res = roundtrip(Gaussian(1.0))
        return res.residual < 1e-3, f"residual {res.residual:.3e} (tol 1e-03)"
    checks.append(_run("gaussian_roundtrip", gaussian_roundtrip))

    def powerlaw_roundtrip():
        # single-slice schedule: richardson weights re-amplify the wider
        # jump mollification of the coarse slice
        sched = EpsilonSchedule(eps_list=(1e-4,), extrapolation="none")
        res = roundtrip(PowerLaw(1.0, 2.0, 1.0, 2.0), sched=sched)
        return res.residual < 1e-2, (f"residual {res.residual:.3e} outside"
                                     " jump windows (tol 1e-02)")
    checks.append(_run("powerlaw_roundtrip", powerlaw_roundtrip))

    return checks


_SUITES = {
    "closedforms": suite_closedforms,
    "special": suite_special,
    "ultra": suite_ultra,
    "inversion": suite_inversion,
}


def run_suite(name):
    """All checks for one suite name, or every suite for ``all``.

    Returns a list of (check_name, passed, detail) tuples; raises
    ValueError for names outside SUITE_NAMES.
    """
    if name == "all":
        return [check for suite in _SUITES.values() for check in suite()]
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name]()
