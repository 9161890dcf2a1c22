"""Command-line front end: sweeps, collision reports, self-checks.

Subcommands: transform (tabulate the transform over a k-grid, CSV or
JSON), invert (round-trip report through the classical limit), collide
(level-set collision verdicts for power-law windows), verify (run a
self-check suite), delta (measured vs expected delta weight).

Conventions shared by every subcommand:
  - ``--config file.json`` supplies any flag by its long name with
    dashes as underscores; explicit command-line flags win.
  - exit 0 on success, 1 for usage or domain errors, 2 when a run
    completed with flagged numerical failures.
  - data goes to --out (or stdout); human diagnostics go to stderr.
  - CSV is UTF-8 with LF endings and shortest round-trip float text, so
    parsing a file and re-emitting it is byte-identical.
  - JSON payloads are one object with keys config, results, diagnostics
    in that order; non-finite floats are encoded as null.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .closedform import constant_qft_delta_weight
from .inversion import EpsilonSchedule, roundtrip
from .transform import (Constant, Gaussian, HalfPlanePoint, Heaviside,
                        PlaneTag, PowerLaw, QGaussian, QuadratureConfig,
                        membership_check, qft_surface)
# unused here, but perfbench/tracer.py rebinds cli.qft_complex by name
from .transform import qft_complex  # noqa: F401
from .ultra import AnalyticRep, ContourSpec, contour_apply
from .verify import (SUITE_NAMES, level_set_members, max_pairwise_dev,
                     member_rows, run_suite)

_CSV_HEADER = "k_re,k_im,plane,q,F_re,F_im,err"

_PLANES = {
    "real-upper": PlaneTag.REAL_LIMIT_UPPER,
    "real-lower": PlaneTag.REAL_LIMIT_LOWER,
    "upper": PlaneTag.UPPER,
    "lower": PlaneTag.LOWER,
    "real-line": None,
}

_FUNCTIONS = ("heaviside+", "heaviside-", "powerlaw", "gaussian",
              "qgaussian", "constant")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Usage(Exception):
    """Raised for config/domain problems after argument parsing."""


def _note(msg):
    print(f"qfourier: {msg}", file=sys.stderr)


# ------------------------------------------------------------ plumbing

def _apply_config(args, parser):
    if args.config is None:
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise _Usage(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _Usage(f"config file is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise _Usage("config file must hold a JSON object")
    known = vars(args)
    for key, val in cfg.items():
        if key in ("config", "command"):
            continue
        if key not in known:
            raise _Usage(f"unknown config key {key!r} for this command")
        if known[key] is None:
            setattr(args, key, val)


def _float(val, name):
    try:
        out = float(val)
    except (TypeError, ValueError):
        raise _Usage(f"{name} must be a number, got {val!r}") from None
    if not math.isfinite(out):
        raise _Usage(f"{name} must be finite, got {val!r}")
    return out


def _int(val, name):
    f = _float(val, name)
    if f != int(f):
        raise _Usage(f"{name} must be an integer, got {val!r}")
    return int(f)


def _require(args, names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--lambda" if n == "lam"
                          else "--" + n.replace("_", "-") for n in missing)
        raise _Usage(f"missing required option(s): {flags}")


def _float_list(val, name):
    if isinstance(val, (list, tuple)):
        items = list(val)
    elif isinstance(val, str):
        items = [s for s in val.split(",") if s.strip()]
    else:
        items = [val]
    if not items:
        raise _Usage(f"{name} list is empty")
    return [_float(v, name) for v in items]


def _build_function(args):
    name = args.f
    if name not in _FUNCTIONS:
        raise _Usage(f"unknown function {name!r}; choose from "
                     + ", ".join(_FUNCTIONS))
    if name == "heaviside+":
        return Heaviside(1), {}
    if name == "heaviside-":
        return Heaviside(-1), {}
    if name == "powerlaw":
        _require(args, ("lam", "beta", "a", "b"))
        params = {"lam": _float(args.lam, "lambda"),
                  "beta": _float(args.beta, "beta"),
                  "a": _float(args.a, "a"), "b": _float(args.b, "b")}
        return PowerLaw(**params), params
    if name == "gaussian":
        sigma = 1.0 if args.sigma is None else _float(args.sigma, "sigma")
        return Gaussian(sigma), {"sigma": sigma}
    if name == "qgaussian":
        _require(args, ("q_g", "beta_g"))
        params = {"q_g": _float(args.q_g, "q-g"),
                  "beta_g": _float(args.beta_g, "beta-g")}
        return QGaussian(**params), params
    c = 1.0 if args.c is None else _float(args.c, "c")
    return Constant(c), {"c": c}


def _json_safe(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(config, results, diagnostics, out_path):
    payload = {"config": config, "results": results,
               "diagnostics": diagnostics}
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", out_path)


def _csv_text(rows):
    lines = [_CSV_HEADER]
    for r in rows:
        lines.append(",".join((repr(float(r["k_re"])),
                               repr(float(r["k_im"])), r["plane"],
                               repr(float(r["q"])), repr(float(r["F_re"])),
                               repr(float(r["F_im"])),
                               repr(float(r["err"])))))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------- commands

def _cmd_transform(args):
    _require(args, ("f", "q", "kmin", "kmax", "nk"))
    f, fparams = _build_function(args)
    q_list = _float_list(args.q, "q")
    kmin = _float(args.kmin, "kmin")
    kmax = _float(args.kmax, "kmax")
    nk = _int(args.nk, "nk")
    if nk < 1:
        raise _Usage(f"nk must be >= 1, got {nk}")
    if kmin > kmax:
        raise _Usage(f"kmin must be <= kmax, got {kmin} > {kmax}")
    if not math.isfinite(kmax - kmin):
        raise _Usage(f"kmax - kmin overflows float, got kmin={kmin}, "
                     f"kmax={kmax}")
    plane = args.plane if args.plane is not None else "real-upper"
    if plane not in _PLANES:
        raise _Usage(f"unknown plane {plane!r}; choose from "
                     + ", ".join(_PLANES))
    kim = 0.0 if args.kim is None else _float(args.kim, "kim")
    tag = _PLANES[plane]
    if tag is PlaneTag.UPPER and kim <= 0:
        raise _Usage("plane upper needs --kim > 0")
    if tag is PlaneTag.LOWER and kim >= 0:
        raise _Usage("plane lower needs --kim < 0")
    if tag not in (PlaneTag.UPPER, PlaneTag.LOWER) and kim != 0.0:
        raise _Usage(f"plane {plane} needs kim = 0")
    rel_tol = (QuadratureConfig.rel_tol if args.rel_tol is None
               else _float(args.rel_tol, "rel-tol"))
    abs_tol = (QuadratureConfig.abs_tol if args.abs_tol is None
               else _float(args.abs_tol, "abs-tol"))
    fmt = args.format if args.format is not None else "csv"
    if fmt not in ("csv", "json"):
        raise _Usage(f"unknown format {fmt!r}; choose csv or json")
    cfg = QuadratureConfig(rel_tol=rel_tol, abs_tol=abs_tol)

    for q in q_list:
        report = membership_check(f, q)
        if not report.member:
            raise _Usage(f"{f.kind} is not transformable at q={q:g}: "
                         f"{report.detail}")

    k_grid = [float(k) for k in np.linspace(kmin, kmax, nk)]
    points = (k_grid if tag is None
              else [HalfPlanePoint(complex(k, kim), tag) for k in k_grid])
    surf = qft_surface(f, q_list, points, cfg)
    plane_label = "real_line" if tag is None else tag.value
    rows = [{"k_re": k, "k_im": kim, "plane": plane_label, "q": q,
             "F_re": val.real, "F_im": val.imag, "err": float(err)}
            for q, vals, errs in zip(q_list, surf.values, surf.err)
            for k, val, err in zip(k_grid, vals, errs)]
    diagnostics = [f"q={q:g} k={k:g}: {why}"
                   for q, whys in zip(q_list, surf.why)
                   for k, why in zip(k_grid, whys) if why is not None]

    config = {"command": "transform", "f": args.f, **fparams,
              "q": q_list, "kmin": kmin, "kmax": kmax, "nk": nk,
              "plane": plane, "kim": kim, "rel_tol": rel_tol,
              "abs_tol": abs_tol, "format": fmt, "out": args.out}
    if fmt == "csv":
        _emit(_csv_text(rows), args.out)
        for line in diagnostics:
            _note(line)
    else:
        json_rows = [{**r, **{key: _json_safe(r[key])
                              for key in ("F_re", "F_im", "err")}}
                     for r in rows]
        _emit_json(config, json_rows, diagnostics, args.out)
    if args.out:
        _note(f"wrote {len(rows)} rows to {args.out}")
    return 2 if diagnostics else 0


def _cmd_invert(args):
    _require(args, ("f",))
    f, fparams = _build_function(args)
    sched = None
    eps = args.eps
    extrap = args.extrapolation
    if eps is not None or extrap is not None:
        eps_t = (_float_list(eps, "eps") if eps is not None
                 else EpsilonSchedule().eps_list)
        if extrap is None:
            extrap = "richardson" if len(eps_t) > 1 else "none"
        sched = EpsilonSchedule(eps_list=eps_t, extrapolation=extrap)
    res = roundtrip(f, sched=sched)
    used = sched if sched is not None else EpsilonSchedule()
    config = {"command": "invert", "f": args.f, **fparams,
              "eps": list(used.eps_list), "extrapolation": used.extrapolation,
              "out": args.out}
    results = [{"residual": _json_safe(res.residual),
                "n_x": int(res.x_grid.size),
                "x_min": float(res.x_grid[0]),
                "x_max": float(res.x_grid[-1]),
                "probe_k": [float(k) for k in res.probe_k]}]
    _emit_json(config, results, [], args.out)
    if args.out:
        _note(f"residual {res.residual:.6e}; report written to {args.out}")
    return 0


def _parse_pairs(text):
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise _Usage(f"malformed pair {chunk!r}; expected \"a,b\"")
        a, b = (_float(p, "pair endpoint") for p in parts)
        if not 0 < a < b:
            raise _Usage(f"pair ({a:g},{b:g}) needs 0 < a < b")
        pairs.append((a, b))
    return pairs


def _cmd_collide(args):
    _require(args, ("pairs", "q"))
    pairs = _parse_pairs(args.pairs)
    if len(pairs) < 2:
        raise _Usage(f"need >= 2 pairs, got {len(pairs)}")
    q = _float(args.q, "q")
    kmin = 0.5 if args.kmin is None else _float(args.kmin, "kmin")
    kmax = 2.0 if args.kmax is None else _float(args.kmax, "kmax")
    nk = 4 if args.nk is None else _int(args.nk, "nk")
    if nk < 1 or kmin > kmax:
        raise _Usage("collide k-grid needs nk >= 1 and kmin <= kmax")
    members = level_set_members(pairs, q)
    k_grid = [float(k) for k in np.linspace(kmin, kmax, nk)]
    diagnostics = []

    def sweep(q_at):
        return max_pairwise_dev(member_rows(members, q_at, k_grid))

    distinct = len(set(pairs)) >= 2
    if distinct:
        dev_at_q = sweep(q)
    else:
        dev_at_q = 0.0
        diagnostics.append("identical pairs: transforms agree exactly; "
                           "separation check skipped")
    collide_at_q = bool(dev_at_q < 1e-6)

    qprime_devs = {}
    separate = None
    if distinct:
        for qp in (q - 0.2, q + 0.2):
            if not 1.0 < qp < 2.0:
                diagnostics.append(
                    f"q'={qp:g} outside (1, 2); side skipped")
                continue
            qprime_devs[f"{qp:g}"] = sweep(qp)
        if qprime_devs:
            separate = bool(all(d > 1e-3 for d in qprime_devs.values()))
        else:
            diagnostics.append("no valid q' probes; separation undecided")

    config = {"command": "collide", "pairs": [list(p) for p in pairs],
              "q": q, "kmin": kmin, "kmax": kmax, "nk": nk,
              "out": args.out}
    results = [{"lambdas": [_json_safe(m.lam) for m in members],
                "k_grid": k_grid,
                "max_pairwise_dev_at_q": _json_safe(dev_at_q),
                "qprime_devs": {key: _json_safe(v)
                                for key, v in qprime_devs.items()},
                "collide_at_q": collide_at_q,
                "separate_at_qprime": separate}]
    _emit_json(config, results, diagnostics, args.out)
    if args.out:
        _note(f"collision report written to {args.out}")
    return 0


def _cmd_verify(args):
    _require(args, ("suite",))
    if args.suite not in SUITE_NAMES:
        raise _Usage(f"unknown suite {args.suite!r}; choose from "
                     + ", ".join(SUITE_NAMES))
    checks = run_suite(args.suite)
    config = {"command": "verify", "suite": args.suite, "out": args.out}
    results = [{"name": name, "ok": ok, "detail": detail}
               for name, ok, detail in checks]
    n_fail = sum(1 for r in results if not r["ok"])
    diagnostics = [f"{len(results)} checks, {n_fail} failed"]
    _emit_json(config, results, diagnostics, args.out)
    if args.out:
        _note(f"{len(results)} checks, {n_fail} failed; report written "
              f"to {args.out}")
    return 0 if n_fail == 0 else 2


def _cmd_delta(args):
    _require(args, ("q",))
    q = _float(args.q, "q")
    zeta = 1.0 if args.zeta is None else _float(args.zeta, "zeta")
    expected = constant_qft_delta_weight(q)
    rep = AnalyticRep(evaluator=lambda z: 1j / ((2.0 - q) * z),
                      growth_order=0, conjugate_odd=True)
    measured = contour_apply(rep, lambda z: np.exp(-z ** 2),
                             ContourSpec(zeta=zeta))
    rel = abs(measured - expected) / abs(expected)
    config = {"command": "delta", "q": q, "zeta": zeta, "out": args.out}
    results = [{"measured_re": _json_safe(measured.real),
                "measured_im": _json_safe(measured.imag),
                "expected": _json_safe(expected),
                "rel_err": _json_safe(rel)}]
    _emit_json(config, results, [], args.out)
    if args.out:
        _note(f"measured {measured.real:.12g}, expected {expected:.12g}; "
              f"report written to {args.out}")
    return 0


# -------------------------------------------------------------- parser

@functools.cache
def _build_parser():
    """The one parser of this process: parse_args and _apply_config leave
    it as built, so every main() call shares it."""
    parser = _Parser(prog="qfourier",
                     description="q-deformed Fourier transform toolkit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    def common(p):
        p.add_argument("--config", help="JSON file supplying defaults "
                       "for any flag of this subcommand")
        p.add_argument("--out", help="output file (default stdout)")

    def function_flags(p):
        p.add_argument("--f", help="function name: " + ", ".join(_FUNCTIONS))
        p.add_argument("--lambda", dest="lam", help="power-law scale")
        p.add_argument("--beta", help="power-law exponent")
        p.add_argument("--a", help="power-law window start")
        p.add_argument("--b", help="power-law window end")
        p.add_argument("--sigma", help="gaussian width")
        p.add_argument("--q-g", dest="q_g", help="q-gaussian shape")
        p.add_argument("--beta-g", dest="beta_g", help="q-gaussian rate")
        p.add_argument("--c", help="constant level")

    p = sub.add_parser("transform", help="tabulate the transform on a "
                       "k-grid")
    common(p)
    function_flags(p)
    p.add_argument("--q", help="entropic index, or comma-separated list")
    p.add_argument("--kmin", help="first k value")
    p.add_argument("--kmax", help="last k value")
    p.add_argument("--nk", help="number of k samples")
    p.add_argument("--plane", help="one of " + ", ".join(_PLANES)
                   + " (default real-upper)")
    p.add_argument("--kim", help="imaginary part added to every k "
                   "(required nonzero for upper/lower planes)")
    p.add_argument("--rel-tol", dest="rel_tol", help="quadrature rel tol")
    p.add_argument("--abs-tol", dest="abs_tol", help="quadrature abs tol")
    p.add_argument("--format", help="csv (default) or json")
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("invert", help="round-trip report through the "
                       "classical limit")
    common(p)
    function_flags(p)
    p.add_argument("--eps", help="comma-separated epsilon schedule")
    p.add_argument("--extrapolation", help="none or richardson")
    p.set_defaults(run=_cmd_invert)

    p = sub.add_parser("collide", help="level-set collision verdicts for "
                       "power-law windows")
    common(p)
    p.add_argument("--pairs", help="window list \"a1,b1;a2,b2;...\"")
    p.add_argument("--q", help="entropic index for the collision")
    p.add_argument("--kmin", help="first probe k (default 0.5)")
    p.add_argument("--kmax", help="last probe k (default 2)")
    p.add_argument("--nk", help="number of probe k values (default 4)")
    p.set_defaults(run=_cmd_collide)

    p = sub.add_parser("verify", help="run a self-check suite")
    common(p)
    p.add_argument("--suite", help="one of " + ", ".join(SUITE_NAMES))
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("delta", help="measured vs expected delta weight")
    common(p)
    p.add_argument("--q", help="entropic index")
    p.add_argument("--zeta", help="contour offset (default 1)")
    p.set_defaults(run=_cmd_delta)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(args, parser)
        return args.run(args)
    except (_Usage, ValueError) as exc:
        _note(f"error: {exc}")
        return 1
    except RuntimeError as exc:
        _note(f"numerical failure: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
