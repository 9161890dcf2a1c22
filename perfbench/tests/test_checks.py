"""Each correctness check of the benchmark must reject a perturbed output.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracer import Tracer, layer_metrics
from workloads import (ClosedformContour, InversionJump, Raised,
                       TransformSweep, known_fault)

SEED = 7


def one_pass(workload):
    outputs = []
    for _, call in workload.run_pass():
        try:
            outputs.append(call())
        except Exception as exc:
            outputs.append(Raised(type(exc).__name__, str(exc)))
    return outputs


# ---------------------------------------------------------------- inversion

@pytest.fixture(scope="module")
def inversion():
    from qfourier import InversionResult, roundtrip
    wl = InversionJump(SEED)
    # the window roundtrip takes seconds; a reconstruction with a 1e-3
    # ripple stands in for it
    x = np.linspace(-0.5, 3.5, 401)
    rec = wl.density(0, x) + 1e-3 * np.sin(7.0 * x)
    mask = (np.abs(x - 1.0) > 0.05) & (np.abs(x - 2.0) > 0.05)
    window = InversionResult(x, rec,
                             float(np.max(np.abs(rec - wl.density(0, x))[mask])))
    return wl, [window, roundtrip(wl.gaussian)]


def test_roundtrips_pass_unperturbed(inversion):
    wl, outputs = inversion
    v = wl.check(outputs, {})
    assert v.problems == [] and not any(v.failed)
    assert 0.0 < v.residual_smooth < 1e-6


@pytest.mark.parametrize("index, shift", [(0, 1e-2), (1, 1e-2), (1, 1e-4)])
def test_shifted_reconstruction_rejected(inversion, index, shift):
    from qfourier import InversionResult
    wl, outputs = inversion
    out = outputs[index]
    moved = InversionResult(out.x_grid, out.f_rec + shift,
                            out.residual + shift)
    perturbed = list(outputs)
    perturbed[index] = moved
    assert wl.check(perturbed, {}).problems


def test_misreported_residual_rejected(inversion):
    from qfourier import InversionResult
    wl, outputs = inversion
    out = outputs[1]
    perturbed = [outputs[0], InversionResult(out.x_grid, out.f_rec,
                                             out.residual * 0.5)]
    assert wl.check(perturbed, {}).problems


def test_raised_roundtrip_is_failed_and_incorrect(inversion):
    wl, outputs = inversion
    v = wl.check([outputs[0], Raised("ConvergenceError", "x")], {})
    assert v.failed == [False, True] and v.problems


# ------------------------------------------------------------ transform sweep

@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    wl = TransformSweep(SEED, str(tmp_path_factory.mktemp("sweep")))
    # Heaviside on real-upper and lower, the Gaussian anchor and one
    # seeded Gaussian run keep the test short
    keep = [0, 2, 3, 6]
    wl.runs = [wl.runs[i] for i in keep]
    wl.paths = [wl.paths[i] for i in keep]
    wl.argvs = [wl.argvs[i] for i in keep]
    outputs = one_pass(wl)
    return wl, outputs, wl.references(outputs)


def nudge(output, row, rel=1e-6):
    """The larger component of one row's value, times 1 + rel."""
    rc, data = output
    lines = data.decode().split("\n")
    fields = lines[row + 1].split(",")
    col = 4 if abs(float(fields[4])) >= abs(float(fields[5])) else 5
    fields[col] = repr(float(fields[col]) * (1.0 + rel))
    lines[row + 1] = ",".join(fields)
    return rc, "\n".join(lines).encode()


def test_sweep_passes_unperturbed(sweep):
    wl, outputs, refs = sweep
    v = wl.check(outputs, refs)
    assert v.problems == [] and not any(v.failed)
    assert 0.0 < v.residual_jump < 1e-10
    assert 0.0 < v.residual_smooth < 1e-10


@pytest.mark.parametrize("run_index, row", [
    (0, 40),        # Heaviside against i/((2-q)k)
    (1, 40),        # Heaviside on the other plane against 0
    (2, 3),         # anchor at k = 0, on mpmath only
    (2, 12),        # anchor at k = 2 in the second q block
    (3, 60),        # seeded row on mpmath
    (3, 58),        # seeded row under conjugate symmetry alone
])
def test_nudged_csv_value_rejected(sweep, run_index, row):
    wl, outputs, refs = sweep
    perturbed = list(outputs)
    if wl.runs[run_index].plane == "lower":
        rc, data = outputs[run_index]
        lines = data.decode().split("\n")
        fields = lines[row + 1].split(",")
        fields[5] = repr(1e-6)
        lines[row + 1] = ",".join(fields)
        perturbed[run_index] = (rc, "\n".join(lines).encode())
    else:
        perturbed[run_index] = nudge(outputs[run_index], row)
    assert wl.fingerprint(perturbed[run_index]) != \
        wl.fingerprint(outputs[run_index])
    assert wl.check(perturbed, refs).problems


def test_nonzero_exit_and_short_csv_rejected(sweep):
    wl, outputs, refs = sweep
    rc, data = outputs[0]
    for bad in ((2, data), (0, data.rsplit(b"\n", 2)[0] + b"\n")):
        perturbed = [bad] + list(outputs[1:])
        assert wl.check(perturbed, refs).problems


# -------------------------------------------------------- closed form/contour

@pytest.fixture(scope="module")
def closed():
    wl = ClosedformContour(SEED)
    outputs = one_pass(wl)
    return wl, outputs, wl.references(outputs)


def test_closed_forms_fail_only_at_named_faults(closed):
    wl, outputs, refs = closed
    v = wl.check(outputs, refs)
    assert v.problems == []
    failed = [op for op, f in zip(wl.ops, v.failed) if f]
    assert failed and all(known_fault(op) for op in failed)
    assert sum(op[0] == "near-boundary" for op in failed) == 2
    assert 1e-9 < v.residual_jump < 1e-6


def _first(wl, kind):
    return next(i for i, op in enumerate(wl.ops) if op[0] == kind)


@pytest.mark.parametrize("kind, rel", [
    ("closed", 1e-9),      # seeded family point on mpmath
    ("window", 1e-9),      # window point outside the fault range
    ("hilhorst", 1e-9),
    ("level", 1e-9),
    ("delta", 1e-5),
    ("dirac", 1e-5),
])
def test_perturbed_value_rejected(closed, kind, rel):
    wl, outputs, refs = closed
    i = _first(wl, kind)
    perturbed = list(outputs)
    perturbed[i] = outputs[i] * (1.0 + rel)
    assert wl.check(perturbed, refs).problems


def test_perturbed_gauss_legendre_point_rejected(closed):
    wl, outputs, refs = closed
    i = 5  # a seeded point off the mpmath subset
    assert i not in wl.on_mpmath
    perturbed = list(outputs)
    perturbed[i] = outputs[i] * (1.0 + 1e-9)
    assert wl.check(perturbed, refs).problems


def test_gauss_legendre_reference_matches_mpmath():
    import reference
    for lam, beta, a, b, q, k in ((2.0, 4.0, 0.5, 1.5, 1.1, 8.5),
                                  (0.7, 2.5, 1.3, 3.0, 1.6, -5 + 0.5j)):
        gl = reference.powerlaw_gl(lam, beta, a, b, q, [k])[0]
        mp = reference.powerlaw_mp(lam, beta, a, b, q, k)
        assert abs(gl - mp) <= 1e-14 * abs(mp)


# ------------------------------------------------------------------- tracer

def test_self_time_excludes_children():
    import time
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap(leaf, "leaf")

    def outer():
        traced_leaf()
        traced_leaf()

    tracer.wrap(outer, "outer")()
    assert tracer.calls == {"leaf": 2, "outer": 1}
    assert tracer.self_s["outer"] < 0.01 <= tracer.total_s["outer"] - 0.03
    assert tracer.self_s["leaf"] == pytest.approx(tracer.total_s["leaf"])


def test_install_counts_and_restores():
    from qfourier import (Gaussian, closedform, quadrature, qft_real_line,
                          transform)
    originals = (transform.qft_complex, quadrature.gk15_panel,
                 closedform.hyp2f1)
    tracer = Tracer()
    tracer.install()
    try:
        qft_real_line(Gaussian(1.0), 1.3, 0.5)
    finally:
        tracer.uninstall()
    assert (transform.qft_complex, quadrature.gk15_panel,
            closedform.hyp2f1) == originals
    m = layer_metrics(tracer)
    assert m["transform.qft_complex.calls"] == 2
    assert m["quadrature.adaptive_quad.calls"] == 2
    assert m["transform.qft_complex.cut_p50_ms"] > 0.0
    assert 0.5 <= m["quadrature.leaf_ratio"] <= 1.0


# ----------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    tracer = Tracer()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run._layer_unit(name) for name in layer_metrics(tracer)}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["bound"] == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert isinstance(spec["run_seconds"], int) and \
        1 <= spec["run_seconds"] <= 60
