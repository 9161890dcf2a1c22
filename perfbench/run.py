"""Benchmark runner for qfourier: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload inversion-jump --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy. The run repeats whole passes
of the workload until --seconds have elapsed, then checks the first pass
against independent references and every later pass against the first,
bit for bit. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics from a traced run with --trace 1. The
result, and with --trace 1 the span aggregates of every pass, are also
written under .perfbench/ in the checkout.

Set-up time is measured in fresh child processes, run one after another:
each imports qfourier and builds the workload's inputs. Nothing else runs
outside this process, and it starts no threads of its own; BLAS is held to
one thread.

End-to-end times are scaled to a reference host speed by speed.SpeedProbe,
which times a fixed kernel beside the workload; the raw times are kept in
the result file under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 9
SETUP_SPEED_SAMPLES = 4
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms",
    "residual_jump": "1", "residual_smooth": "1", "peak_rss_mb": "MB",
}


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("nodes_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("leaf_ratio"):
        return "1"
    return "count"


def _is_count(name):
    return _layer_unit(name) in ("count", "1")


def _prepare():
    """Pin BLAS to one thread and put the checkout's src/ first on the path.

    Returns False when the checkout holds no package to measure."""
    if not (SRC / "qfourier" / "__init__.py").is_file():
        return False
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    return True


def _build(name, seed, workdir):
    import workloads
    cls = workloads.WORKLOADS[name]
    if cls is workloads.TransformSweep:
        return cls(seed, workdir)
    return cls(seed)


def setup_probe(name, seed):
    """Child process: time `import qfourier` plus building the inputs."""
    t0 = time.perf_counter()
    import qfourier  # noqa: F401
    _build(name, seed, ".")
    print(repr(time.perf_counter() - t0))


def measure_setup(name, seed, probe):
    """Set-up time of one fresh child process: (raw, scaled) seconds.

    The scale comes from kernel samples taken just before and after it."""
    from speed import REF_KERNEL_S
    first = len(probe.starts)
    for _ in range(SETUP_SPEED_SAMPLES):
        probe.sample()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    for _ in range(SETUP_SPEED_SAMPLES):
        probe.sample()
    raw = float(proc.stdout.strip().splitlines()[-1])
    kernel_s = statistics.fmean(e - s for s, e in
                                zip(probe.starts[first:], probe.ends[first:]))
    return raw, raw * REF_KERNEL_S / kernel_s


def run_passes(workload, seconds, tracer, before_pass=None):
    """Whole passes until `seconds` have elapsed; at least one.

    before_pass runs ahead of each pass, outside its timing."""
    from workloads import Raised
    from tracer import layer_metrics

    passes = []
    first_outputs = None
    start = time.perf_counter()
    while True:
        if before_pass is not None:
            before_pass()
        if tracer is not None:
            tracer.reset()
        outputs, spans = [], []
        t_pass = time.perf_counter()
        for _, call in workload.run_pass():
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a raised call is a failed operation
                out = Raised(type(exc).__name__, str(exc))
            spans.append((t0, time.perf_counter()))
            outputs.append(out)
        wall = time.perf_counter() - t_pass
        record = {"wall_s": wall, "spans_s": spans,
                  "fingerprints": [workload.fingerprint(o) for o in outputs]}
        if tracer is not None:
            record["layers"] = layer_metrics(tracer)
            record["spans"] = {name: {"calls": tracer.calls[name],
                                      "total_s": tracer.total_s[name],
                                      "self_s": tracer.self_s[name]}
                               for name in sorted(tracer.calls)}
            record["counts"] = dict(sorted(tracer.counts.items()))
        passes.append(record)
        if first_outputs is None:
            first_outputs = outputs
        if time.perf_counter() - start >= seconds:
            return first_outputs, passes


def percentile(values, pct):
    """numpy's default: linear interpolation between closest ranks."""
    import numpy as np
    return float(np.percentile(values, pct))


def _across_passes(name, values):
    """Per-layer figure of a run: counts repeat, so any pass serves; times
    are taken at their fastest pass, and rates at their highest."""
    unit = _layer_unit(name)
    if unit in ("s", "ms"):
        return min(values)
    if unit == "1/s":
        return max(values)
    return values[0]


def _number(x):
    return None if x != x else x


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(WORKLOADS))
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import qfourier  # noqa: F401
    from speed import SpeedProbe
    from tracer import Tracer

    # set-up probes are spread over the run, one ahead of each of the first
    # passes; the speed probe's timer pauses while one runs
    speed = SpeedProbe()
    setup_times = []

    def probe():
        if not args.trace and len(setup_times) < SETUP_REPEATS:
            speed.stop()
            setup_times.append(measure_setup(args.workload, args.seed,
                                             speed))
            speed.start()

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        workload = _build(args.workload, args.seed, tmp)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            workload.trace(tracer)
        if not args.trace:
            speed.start()
        try:
            first, passes = run_passes(workload, args.seconds, tracer, probe)
        finally:
            speed.stop()
            if tracer is not None:
                tracer.uninstall()
    for _ in range(SETUP_REPEATS):
        probe()
    speed.stop()

    refs = workload.references(first)
    verdict = workload.check(first, refs)
    problems = list(verdict.problems)
    for n, record in enumerate(passes[1:], start=2):
        if record["fingerprints"] != passes[0]["fingerprints"]:
            problems.append(f"pass {n} outputs differ from pass 1")
    n_ops, n_passes = len(first), len(passes)

    if args.trace:
        names = list(passes[0]["layers"])
        for n, record in enumerate(passes[1:], start=2):
            moved = [m for m in names if _is_count(m)
                     and record["layers"][m] != passes[0]["layers"][m]]
            if moved:
                problems.append(f"pass {n} counts differ: {moved}")
        metrics = {m: {"value": _across_passes(m, [r["layers"][m]
                                                   for r in passes]),
                       "unit": _layer_unit(m)} for m in names}
    else:
        # every time is scaled to the reference speed (speed.py), then
        # taken as a median over passes; a pass's time is the sum of its
        # operations'. Latency percentiles run across operations, each at
        # its median over the passes.
        for record in passes:
            record["scaled_s"] = [speed.scaled(t0, t1)
                                  for t0, t1 in record["spans_s"]]
        latencies = [statistics.median(r["scaled_s"][i] for r in passes)
                     for i in range(n_ops)]
        values = {
            "setup_s": statistics.median(s for _, s in setup_times),
            "wall_s": statistics.median(sum(r["scaled_s"]) for r in passes),
            "op_p50_ms": 1e3 * percentile(latencies, 50),
            "op_p99_ms": 1e3 * percentile(latencies, 99),
            "residual_jump": verdict.residual_jump,
            "residual_smooth": verdict.residual_smooth,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": _number(v), "unit": END_TO_END_UNITS[m]}
                   for m, v in values.items()}

    result = {"correct": not problems, "attempted": n_ops * n_passes,
              "failed": sum(verdict.failed) * n_passes, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"result": result, "passes": n_passes, "problems": problems,
              "setup_raw_scaled_s": setup_times,
              "pass_wall_s": [r["wall_s"] for r in passes],
              "pass_own_s": [r["wall_s"] - speed.busy_in(r["spans_s"][0][0],
                                                         r["spans_s"][-1][1])
                             for r in passes],
              "pass_scaled_s": [sum(r.get("scaled_s", ())) for r in passes],
              "speed_kernel_s": [e - s for s, e in zip(speed.starts,
                                                       speed.ends)]}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    if args.trace:
        trace = [{k: r[k] for k in ("wall_s", "layers", "spans", "counts")}
                 for r in passes]
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(trace,
                                                               indent=1))

    for p in problems[:20]:
        print(f"problem: {p}")
    print(f"{args.workload} seed {args.seed}: {n_passes} passes of {n_ops} "
          f"operations, {sum(verdict.failed)} failed per pass")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not _prepare():
        print(f"run.py: no qfourier package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
