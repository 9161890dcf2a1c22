from qfourier import quadrature, verify


def test_quadrature_checks_run_quadrature(monkeypatch):
    # a closed form checked against another closed form proves nothing
    # about the engine: every *_vs_quadrature check of the closedforms
    # suite must make Gauss-Kronrod panel calls of its own
    calls, per_check = [0], {}
    gk15_panel, run = quadrature.gk15_panel, verify._run

    def counted(*args, **kwargs):
        calls[0] += 1
        return gk15_panel(*args, **kwargs)

    def run_counted(name, fn):
        before = calls[0]
        out = run(name, fn)
        per_check[name] = calls[0] - before
        return out

    monkeypatch.setattr(quadrature, "gk15_panel", counted)
    monkeypatch.setattr(verify, "_run", run_counted)
    results = verify.run_suite("closedforms")
    assert all(ok for _, ok, _ in results)
    named = {n: c for n, c in per_check.items()
             if n.endswith("_vs_quadrature")}
    assert named and all(named.values()), per_check
