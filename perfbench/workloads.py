"""The three workloads: inputs from a seed, one pass of operations, checks.

An operation is one public qfourier call. A pass runs every operation once,
in a fixed order, and returns one output per operation: the call's return
value, or a `Raised` record when it raised. `check` compares the outputs of
one pass with references computed apart from the package (see reference.py)
and with properties the method must have; it never compares with stored
outputs. Seeded inputs move inside their family; the inputs that reach
the program faults named by `known_fault`, and the anchors behind the
residual metrics, do not depend on the seed.

Every qfourier function is called through its module attribute at call time
(`inversion.roundtrip`, not a name bound at import), so the tracer's
rebinding reaches the calls the benchmark makes itself.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference


@dataclass(frozen=True)
class Raised:
    kind: str
    message: str


@dataclass
class Verdict:
    """Per-operation failures, problems that make the run incorrect, and the
    workload's two accuracy figures."""
    failed: list
    problems: list = field(default_factory=list)
    residual_jump: float = math.nan
    residual_smooth: float = math.nan


def _rms(values):
    return math.sqrt(sum(v * v for v in values) / len(values))


class Workload:
    name = ""

    def run_pass(self):
        """Yields (operation index, callable); the runner times each call."""
        raise NotImplementedError

    def fingerprint(self, output):
        """Bytes that two runs of the same operation must share."""
        return repr(output).encode()

    def trace(self, tracer):
        """Wrap what the benchmark itself hands to the package."""

    def references(self, outputs):
        return {}

    def check(self, outputs, refs) -> Verdict:
        raise NotImplementedError


# --------------------------------------------------------------- inversion

JUMP_WINDOW = 0.05
# 1.53e-3 and 1.27e-7 at the seed commit; a reconstruction shifted by 1e-2
# must fail the first, a Richardson slip of one order the second
JUMP_TOL = 5e-3
SMOOTH_TOL = 1e-5


class InversionJump(Workload):
    """Two roundtrips: a power-law window with jumps at x = 1 and 2 on one
    fine slice, and a Gaussian on the default Richardson schedule."""
    name = "inversion-jump"

    def __init__(self, seed):
        from qfourier import EpsilonSchedule, Gaussian, PowerLaw
        rng = np.random.default_rng(seed)
        # the amplitude moves the residual by ~2% and leaves the k grid and
        # the oscillation breakpoints alone; sigma rescales x and k together
        self.lam = 1.0 + float(rng.uniform(-0.005, 0.005))
        self.sigma = 1.0 + float(rng.uniform(-0.03, 0.03))
        self.window = PowerLaw(self.lam, 2.0, 1.0, 2.0)
        self.schedule = EpsilonSchedule((1e-4,), "none")
        self.gaussian = Gaussian(self.sigma)

    def run_pass(self):
        from qfourier import inversion
        yield 0, lambda: inversion.roundtrip(self.window, self.schedule)
        yield 1, lambda: inversion.roundtrip(self.gaussian)

    def fingerprint(self, output):
        if isinstance(output, Raised):
            return repr(output).encode()
        return (output.x_grid.tobytes() + output.f_rec.tobytes()
                + repr(output.residual).encode())

    def density(self, index, x):
        if index == 0:
            inside = (x >= 1.0) & (x <= 2.0)
            return np.where(inside, (self.lam / np.where(inside, x, 1.0)) ** 2,
                            0.0)
        return np.exp(-x * x / (2.0 * self.sigma ** 2))

    def check(self, outputs, refs):
        v = Verdict(failed=[False] * 2)
        jumps = ((1.0, 2.0), ())
        tols = (JUMP_TOL, SMOOTH_TOL)
        residuals = [math.nan, math.nan]
        for i, out in enumerate(outputs):
            if isinstance(out, Raised):
                v.failed[i] = True
                v.problems.append(f"roundtrip {i} raised {out.kind}: "
                                  f"{out.message}")
                continue
            x, rec = out.x_grid, out.f_rec
            mask = np.ones(x.size, dtype=bool)
            for xj in jumps[i]:
                mask &= np.abs(x - xj) > JUMP_WINDOW
            if x.size < 100 or mask.sum() < 0.8 * x.size \
                    or not np.all(np.isfinite(rec)):
                v.failed[i] = True
                v.problems.append(f"roundtrip {i}: grid or values unusable")
                continue
            r = float(np.max(np.abs(rec - self.density(i, x))[mask]))
            residuals[i] = r
            if not r <= tols[i]:
                v.failed[i] = True
                v.problems.append(f"roundtrip {i}: residual {r:.3e} above "
                                  f"{tols[i]:g}")
            if not abs(r - out.residual) <= 1e-12:
                v.failed[i] = True
                v.problems.append(f"roundtrip {i}: reported residual "
                                  f"{out.residual:.6e}, recomputed {r:.6e}")
        v.residual_jump, v.residual_smooth = residuals
        return v


# ----------------------------------------------------------- transform sweep

@dataclass(frozen=True)
class SweepRun:
    """One `qfourier transform` invocation and how to check its rows.

    params holds the density's parameters for the references; oracle_rows
    are row indices checked against mpmath; anchor runs have fixed inputs
    and feed residual_smooth.
    """
    family: str
    args: tuple
    q: tuple
    kmin: float
    kmax: float
    nk: int
    plane: str
    kim: float = 0.0
    params: tuple = ()
    oracle_rows: tuple = ()
    anchor: bool = False

    def argv(self, out):
        flags = ["transform", "--f", self.args[0], *self.args[1:],
                 "--q", ",".join(repr(q) for q in self.q),
                 "--kmin", repr(self.kmin), "--kmax", repr(self.kmax),
                 "--nk", str(self.nk), "--plane", self.plane]
        if self.kim:
            flags += ["--kim", repr(self.kim)]
        return flags + ["--out", out]


_CSV_HEADER = "k_re,k_im,plane,q,F_re,F_im,err"
# grid half-width 6 on 97 points; the seed scales it by (64 + j)/64 for
# |j| <= 4, so the step stays dyadic and the grid exactly symmetric
_BULK_NK = 97


def _line_run(family, args, q, params, half, oracle_rows=(), anchor=False,
              nk=_BULK_NK):
    return SweepRun(family, args, q, -half, half, nk, "real-line",
                    params=params, oracle_rows=oracle_rows, anchor=anchor)


class TransformSweep(Workload):
    """`qfourier transform` runs through cli.main, CSV written to a file."""
    name = "transform-sweep"

    def __init__(self, seed, workdir="."):
        rng = np.random.default_rng(seed)
        runs = []
        # Heaviside steps on fixed grids: every row has an exact reference,
        # and residual_jump is their rms relative error
        for plane, kmin, kmax, kim in (("real-upper", 0.5, 10.0, 0.0),
                                       ("upper", -8.0, 8.0, 0.5),
                                       ("lower", -8.0, 8.0, -0.5)):
            runs.append(SweepRun("heaviside", ("heaviside+",), (1.3, 1.6),
                                 kmin, kmax, 128, plane, kim=kim))
        # anchors: fixed densities, q and k in {-3..3}, every row on mpmath
        # (k < 0 through conjugation), the source of residual_smooth
        anchor_rows = tuple(qi * 7 + i for qi in range(2) for i in range(3, 7))
        runs.append(_line_run("gaussian", ("gaussian", "--sigma", "1.0"),
                              (1.2, 1.5), (1.0,), 3.0, anchor_rows, True, 7))
        runs.append(_line_run("qgaussian", ("qgaussian", "--q-g", "1.5",
                                            "--beta-g", "1.0"),
                              (1.3, 1.6), (1.5, 1.0), 3.0, anchor_rows, True,
                              7))
        runs.append(_line_run("powerlaw", ("powerlaw", "--lambda", "1.0",
                                           "--beta", "3.0", "--a", "1.0",
                                           "--b", "2.0"),
                              (1.2, 1.5), (1.0, 3.0, 1.0, 2.0), 3.0,
                              anchor_rows, True, 7))
        # the bulk: seeded parameters, q and grid width; two rows of each on
        # mpmath, every row under the conjugate-symmetry check
        bulk_rows = (60, _BULK_NK + 90)

        def jitter(q):
            return round(q + float(rng.uniform(-0.02, 0.02)), 6)

        def half():
            return 6.0 * (64 + int(rng.integers(-4, 5))) / 64

        for qs in ((1.2, 1.4), (1.5, 1.7)):
            sigma = round(1.0 + float(rng.uniform(-0.03, 0.03)), 6)
            runs.append(_line_run("gaussian", ("gaussian", "--sigma",
                                               repr(sigma)),
                                  tuple(jitter(q) for q in qs), (sigma,),
                                  half(), bulk_rows))
            beta_g = round(1.0 + float(rng.uniform(-0.03, 0.03)), 6)
            runs.append(_line_run("qgaussian", ("qgaussian", "--q-g", "1.5",
                                                "--beta-g", repr(beta_g)),
                                  tuple(jitter(q) for q in qs), (1.5, beta_g),
                                  half(), bulk_rows))
            lam, a, b = (round(v * (1.0 + float(rng.uniform(-0.02, 0.02))), 6)
                         for v in (1.0, 1.0, 2.0))
            runs.append(_line_run("powerlaw", ("powerlaw", "--lambda",
                                               repr(lam), "--beta", "3.0",
                                               "--a", repr(a), "--b", repr(b)),
                                  tuple(jitter(q) for q in qs),
                                  (lam, 3.0, a, b), half(), bulk_rows))
        self.runs = runs
        self.paths = [os.path.join(workdir, f"sweep-{i}.csv")
                      for i in range(len(runs))]
        self.argvs = [run.argv(path) for run, path in zip(runs, self.paths)]
        for run in runs:
            k = np.linspace(run.kmin, run.kmax, run.nk)
            if run.plane == "real-line" and not np.array_equal(k, -k[::-1]):
                raise ValueError("benchmark grid is not exactly symmetric")

    def run_pass(self):
        from qfourier import cli

        def invoke(i):
            with contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(self.argvs[i])
            with open(self.paths[i], "rb") as fh:
                return rc, fh.read()

        for i in range(len(self.runs)):
            yield i, lambda i=i: invoke(i)

    def fingerprint(self, output):
        if isinstance(output, Raised):
            return repr(output).encode()
        return repr(output[0]).encode() + output[1]

    def references(self, outputs):
        refs = {}
        for i, run in enumerate(self.runs):
            if run.family == "heaviside":
                continue
            grid = np.linspace(run.kmin, run.kmax, run.nk)
            for row in run.oracle_rows:
                q = run.q[row // run.nk]
                k = float(grid[row % run.nk])
                refs[(i, row)] = _line_reference(run, q, k)
        return refs

    def check(self, outputs, refs):
        v = Verdict(failed=[False] * len(self.runs))
        jump_errs, smooth_errs = [], []
        for i, (run, out) in enumerate(zip(self.runs, outputs)):
            problems = _check_run(i, run, out, refs, jump_errs, smooth_errs)
            if problems:
                v.failed[i] = True
                v.problems.extend(problems)
        v.residual_jump = _rms(jump_errs) if jump_errs else math.nan
        v.residual_smooth = _rms(smooth_errs) if smooth_errs else math.nan
        return v


def _line_reference(run, q, k):
    if run.family == "gaussian":
        return reference.gaussian_line_mp(run.params[0], q, k)
    if run.family == "qgaussian":
        return reference.qgaussian_line_mp(*run.params, q, k)
    # a window on x > 0 has no lower piece: the real line is its upper piece
    return reference.powerlaw_mp(*run.params, q, k)


def parse_csv(data):
    text = data.decode("utf-8")
    if not text.startswith(_CSV_HEADER + "\n"):
        raise ValueError("CSV header missing")
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [(float(r[0]), float(r[1]), r[2], float(r[3]),
             complex(float(r[4]), float(r[5])), float(r[6])) for r in rows]


def _check_run(i, run, out, refs, jump_errs, smooth_errs):
    if isinstance(out, Raised):
        return [f"run {i} raised {out.kind}: {out.message}"]
    rc, data = out
    if rc != 0:
        return [f"run {i} exited with {rc}"]
    try:
        rows = parse_csv(data)
    except (ValueError, IndexError) as exc:
        return [f"run {i}: unreadable CSV ({exc})"]
    grid = np.linspace(run.kmin, run.kmax, run.nk)
    if len(rows) != len(run.q) * run.nk:
        return [f"run {i}: {len(rows)} rows, expected {len(run.q) * run.nk}"]
    problems = []
    for n, (k_re, k_im, _, q, F, err) in enumerate(rows):
        if (k_re, k_im, q) != (float(grid[n % run.nk]), run.kim,
                               run.q[n // run.nk]):
            problems.append(f"run {i} row {n}: unexpected k or q")
        elif not (np.isfinite(F) and math.isfinite(err) and err >= 0.0):
            problems.append(f"run {i} row {n}: non-finite value or err")
    if problems:
        return problems

    def off(n, ref, what):
        F, err = rows[n][4], rows[n][5]
        if not abs(F - ref) <= err:
            problems.append(f"run {i} row {n}: |F - {what}| = "
                            f"{abs(F - ref):.3e} exceeds err {err:.3e}")

    if run.family == "heaviside":
        matching = run.plane != "lower"
        for n, (k_re, k_im, _, q, F, _) in enumerate(rows):
            ref = reference.heaviside_exact(q, complex(k_re, k_im), matching)
            off(n, ref, "i/((2-q)k)" if matching else "0")
            if matching:
                jump_errs.append(abs(F - ref) / abs(ref))
        return problems

    for n in range(len(rows)):
        mirror = n - n % run.nk + run.nk - 1 - n % run.nk
        F, err = rows[n][4], rows[n][5]
        if not abs(rows[mirror][4] - F.conjugate()) <= err + rows[mirror][5]:
            problems.append(f"run {i} row {n}: F(-k) differs from conj F(k)")
    for row in run.oracle_rows:
        ref = refs[(i, row)]
        off(row, ref, "mpmath")
        if run.anchor:
            mirror = row - row % run.nk + run.nk - 1 - row % run.nk
            off(mirror, ref.conjugate(), "conj mpmath")
            mass = abs(refs[(i, row - row % run.nk + run.nk // 2)])
            smooth_errs.append(abs(rows[row][4] - ref) / mass)
            if mirror != row:
                smooth_errs.append(abs(rows[mirror][4] - ref.conjugate())
                                   / mass)
    return problems


# -------------------------------------------------------- closed form/contour

# closed forms must match the defining integral to this relative error; the
# catalog families sit below 4e-13 on every seed tried
CLOSED_TOL = 2e-12
CONTOUR_TOL = 1e-10

# seeded families: (lam, beta, a, b, q, q moves with the seed)
_FAMILIES = (
    (1.0, 1.5, 1.0, 2.0, 1.4, True),     # low regime
    (1.5, 0.5, 0.2, 3.0, 1.6, True),     # low regime
    (0.7, 2.5, 1.3, 3.0, 1.6, True),     # high regime
    (1.2, 3.0, 1.0, 2.0, 1.8, True),     # high regime
    (1.0, 4.0, 0.5, 1.5, 1.45, True),    # high regime
    (1.3, 2.0, 1.0, 2.0, 1.5, False),    # boundary s = 0, collapsed form
    (0.9, 4.0, 0.5, 1.5, 1.25, False),   # boundary s = 0, collapsed form
    (1.0, 1.0, 0.5, 2.0, 1.7, False),    # degenerate line a = b
    (1.0, 2.0, 1.0, 2.0, 1.25, False),   # degenerate line, integer gaps
)
_REAL_K = 91
_UPPER_K = 41

# inputs that fail today because of program faults; fixed under every seed
WINDOW = (2.0, 4.0, 0.5, 1.5)
WINDOW_Q = 1.1
WINDOW_K = tuple(0.25 * j for j in range(1, 41))
NEAR_BOUNDARY_Q = (1.4999, 1.49999)


def known_fault(op):
    """Inputs whose failure is a program fault, not a benchmark error.

    The window's points on k in [3.25, 8.5] miss CLOSED_TOL because hyp2f1
    loses digits at integer parameter gaps with |z| ~ 1.3-1.9; at the two
    near-boundary q the 2F1 series never settles (ConvergenceError).
    """
    kind, args = op[0], op[1]
    if kind == "near-boundary":
        return True
    return kind == "window" and 3.2 < args[2].k.real < 8.6


LEVEL_Q = 1.5
LEVEL_MEMBERS = ((1.0, 1.2), (0.5, 6.0 / 11.0), (2.0, 3.0))


def _gauss_phi(z):
    return np.exp(-z * z)


class ClosedformContour(Workload):
    """2F1 closed forms, the collision level set and contour pairings."""
    name = "closedform-contour"

    def __init__(self, seed):
        from qfourier import (AnalyticRep, ContourSpec, HalfPlanePoint,
                              PlaneTag, PowerLaw, dirac_rep, hilhorst_lambda)
        rng = np.random.default_rng(seed)

        def real(k):
            return HalfPlanePoint(complex(k), PlaneTag.REAL_LIMIT_UPPER)

        def upper(kr, ki):
            return HalfPlanePoint(complex(kr, ki), PlaneTag.UPPER)

        def points():
            ks = np.linspace(-10.0, 10.0, _REAL_K) + rng.uniform(-0.1, 0.1)
            pts = [real(float(k)) for k in ks]
            kr = np.linspace(-8.0, 8.0, _UPPER_K) + rng.uniform(-0.1, 0.1)
            ki = rng.uniform(0.2, 3.0, _UPPER_K)
            return pts + [upper(float(a), float(b)) for a, b in zip(kr, ki)]

        # on mpmath: the first real and upper-plane point of each seeded
        # family, the first level-set member, and every fixed fault input
        ops, self.on_mpmath = [], set()
        for lam, beta, a, b, q, q_moves in _FAMILIES:
            if q_moves:
                q = q + float(rng.uniform(-0.01, 0.01))
            lam, a, b = (v * (1.0 + float(rng.uniform(-0.02, 0.02)))
                         for v in (lam, a, b))
            p = PowerLaw(lam, beta, a, b)
            self.on_mpmath.update((len(ops), len(ops) + _REAL_K))
            ops += [("closed", (p, q, pt)) for pt in points()]
        self.on_mpmath.update(range(len(ops), len(ops) + len(WINDOW_K)
                                    + len(NEAR_BOUNDARY_Q)))
        p = PowerLaw(*WINDOW)
        ops += [("window", (p, WINDOW_Q, real(k))) for k in WINDOW_K]
        ops += [("near-boundary", (PowerLaw(1.0, 2.0, 1.0, 2.0), q, real(1.0)))
                for q in NEAR_BOUNDARY_Q]
        # one level set of 1/a - 1/b; each member must equal hilhorst_qft
        lams = [hilhorst_lambda(a, b, LEVEL_Q) for a, b in LEVEL_MEMBERS]
        beta = 1.0 / (LEVEL_Q - 1.0)
        level_k = [real(float(k)) for k in
                   np.linspace(0.2, 6.0, 20) + rng.uniform(-0.05, 0.05)]
        level_k += [upper(float(a), float(b)) for a, b in
                    zip(rng.uniform(-4.0, 4.0, 10), rng.uniform(0.2, 2.0, 10))]
        self.on_mpmath.add(len(ops) + 1)
        for pt in level_k:
            ops.append(("hilhorst", (lams[0], LEVEL_Q, pt)))
            for (a, b), lam in zip(LEVEL_MEMBERS, lams):
                ops.append(("level", (PowerLaw(lam, beta, a, b), LEVEL_Q, pt)))
        # delta-weight pairings on a fixed (q, zeta) grid: the pole rep of
        # the constant's transform against exp(-z^2)
        for q in np.linspace(1.05, 1.95, 10):
            rep = AnalyticRep(evaluator=lambda z, q=float(q):
                              1j / ((2.0 - q) * z), growth_order=0)
            for zeta in (0.5, 1.0, 2.0):
                ops.append(("delta", (rep, float(q), ContourSpec(zeta=zeta))))
        # verify's Dirac pairing: N(0,1) on a 4001-point grid
        grid = np.linspace(-10.0, 10.0, 4001)
        rep = dirac_rep(lambda t: np.exp(-t * t / 2.0)
                        / math.sqrt(2.0 * math.pi), grid)
        ops.append(("dirac", (rep,)))
        self.ops = ops

    def trace(self, tracer):
        for i, (kind, args) in enumerate(self.ops):
            if kind == "delta":
                self.ops[i] = (kind, (tracer.wrap_rep(args[0], "ultra.evaluator"),
                                      *args[1:]))
            elif kind == "dirac":
                self.ops[i] = (kind, (tracer.wrap_rep(
                    args[0], "ultra.dirac_rep.evaluator"),))

    def run_pass(self):
        from qfourier import closedform, ultra
        for i, (kind, args) in enumerate(self.ops):
            if kind == "hilhorst":
                yield i, lambda a=args: closedform.hilhorst_qft(*a)
            elif kind == "delta":
                yield i, lambda a=args: ultra.contour_apply(a[0], _gauss_phi,
                                                            a[2])
            elif kind == "dirac":
                yield i, lambda a=args: ultra.contour_apply(a[0], _gauss_phi)
            else:
                yield i, lambda a=args: closedform.powerlaw_qft_closed(*a)

    def fingerprint(self, output):
        if isinstance(output, Raised):
            return repr(output).encode()
        return np.complex128(output).tobytes()

    def references(self, outputs):
        refs = {}
        groups = {}
        for i, (kind, args) in enumerate(self.ops):
            if kind not in ("closed", "window", "near-boundary", "level"):
                continue
            if isinstance(outputs[i], Raised):
                continue
            p, q, pt = args
            if i in self.on_mpmath:
                refs[i] = reference.powerlaw_mp(p.lam, p.beta, p.a, p.b, q,
                                                pt.k)
            else:
                groups.setdefault((p.lam, p.beta, p.a, p.b, q), []).append(i)
        for (lam, beta, a, b, q), idx in groups.items():
            vals = reference.powerlaw_gl(lam, beta, a, b, q,
                                         [self.ops[i][1][2].k for i in idx])
            refs.update(zip(idx, (complex(v) for v in vals)))
        return refs

    def check(self, outputs, refs):
        v = Verdict(failed=[False] * len(self.ops))
        window_errs, pairing_errs = [], []
        hilhorst = None
        for i, ((kind, args), out) in enumerate(zip(self.ops, outputs)):
            problem = None
            if isinstance(out, Raised):
                problem = f"raised {out.kind}: {out.message[:80]}"
            elif not (isinstance(out, complex) and np.isfinite(out)):
                problem = f"returned {out!r}"
            elif kind in ("delta", "dirac"):
                want = (reference.delta_weight(args[1]) if kind == "delta"
                        else reference.DIRAC_PAIRING)
                rel = abs(out - want) / want
                pairing_errs.append(rel)
                if not rel <= CONTOUR_TOL:
                    problem = f"pairing off by {rel:.3e} relative"
            elif kind == "hilhorst":
                hilhorst = out
                member, q, pt = self.ops[i + 1][1]
                ref = reference.powerlaw_gl(member.lam, member.beta, member.a,
                                            member.b, q, [pt.k])[0]
                if not abs(out - ref) <= CLOSED_TOL * abs(ref):
                    problem = "hilhorst_qft off the member integral"
            else:
                rel = abs(out - refs[i]) / abs(refs[i])
                if kind == "window":
                    window_errs.append(rel)
                if not rel <= CLOSED_TOL:
                    problem = f"closed form off by {rel:.3e} relative"
                elif kind == "level" and not (
                        abs(out - hilhorst) <= 1e-12 * abs(hilhorst)):
                    problem = "level-set member differs from hilhorst_qft"
            if problem is not None:
                v.failed[i] = True
                if not known_fault(self.ops[i]):
                    k = getattr(args[-1], "k", "-")
                    v.problems.append(f"op {i} ({kind}, k={k}): "
                                      f"{problem}")
        v.residual_jump = max(window_errs) if window_errs else math.nan
        v.residual_smooth = _rms(pairing_errs) if pairing_errs else math.nan
        return v


WORKLOADS = {w.name: w for w in (InversionJump, TransformSweep,
                                 ClosedformContour)}
