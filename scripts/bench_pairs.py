#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and summarise the runs.

    python3 scripts/bench_pairs.py --parent ../base --change . \
        --workload closedform-contour --seeds 901-910 --seconds 30 \
        --out BENCH_6.json

For each seed, perfbench/run.py (--trace 0) runs once from each checkout,
one after the other: the parent first on the first, third, ... seed and
the change first on the others, so a slow spell of the host does not fall
on one side only. Each run imports the package from its own checkout.
Every end-to-end metric that BENCHMARK.json names is summarised per side
by its median and quartiles (numpy percentiles 25 and 75, linear
interpolation); a pair is won by the change when its value is better in
the metric's direction, and ties count for neither side. Each metric also
reads over_bound, its median worse than the parent's by more than its
BENCHMARK.json bound, and claim_holds, the change winning at least 9 of
10 pairs with a median better than the parent's by more than the parent's
interquartile range. Each workload reads attempted_ratio, the change's
median operation count over the parent's: a run keeps a record per pass,
so more passes in the same seconds read as more memory. The output file
is rewritten after each workload, so an interrupted sweep keeps what
finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

RUN = ("perfbench", "run.py")


def run_once(checkout, workload, seed, seconds):
    """One benchmark run from checkout; its result object (last stdout line)."""
    proc = subprocess.run(
        [sys.executable, str(Path(checkout, *RUN)), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
        timeout=20 * seconds + 600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def side_summary(values):
    """median, q1, q3 of the runs that reported a value, and every value."""
    known = [v for v in values if v is not None]
    if not known:
        return {"median": None, "q1": None, "q3": None, "values": values}
    q1, median, q3 = (float(np.percentile(known, p)) for p in (25, 50, 75))
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarise(parent_runs, change_runs, spec):
    """Per-metric summary of paired runs; runs[i] of both sides share a seed.

    spec maps a metric name to its unit, better ("lower" or "higher") and
    bound, as in BENCHMARK.json's end_to_end list.
    """
    if len(parent_runs) != len(change_runs):
        raise ValueError("parent and change need the same number of runs")
    out = {}
    for name, meta in spec.items():
        p = [r["metrics"][name]["value"] for r in parent_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        sign = 1.0 if meta["better"] == "lower" else -1.0
        wins = ties = 0
        for pv, cv in zip(p, c):
            if pv is None or cv is None:
                continue
            if cv == pv:
                ties += 1
            elif sign * (pv - cv) > 0:
                wins += 1
        ps, cs = side_summary(p), side_summary(c)
        rel = over = claim = iqr = None
        if ps["median"] and cs["median"] is not None:
            rel = (cs["median"] - ps["median"]) / ps["median"]
            over = sign * rel > meta["bound"]
        if ps["median"] is not None:
            iqr = ps["q3"] - ps["q1"]
        if iqr is not None and cs["median"] is not None:
            claim = (10 * wins >= 9 * len(p)
                     and sign * (ps["median"] - cs["median"]) > iqr)
        out[name] = {
            **meta, "parent": ps, "change": cs, "change_wins": wins,
            "ties": ties, "relative_change": rel, "parent_iqr": iqr,
            "over_bound": over, "claim_holds": claim}
    return out


def attempted_ratio(parent_records, change_records):
    """Median operations attempted per run, change over parent."""
    p, c = (float(np.median([r["attempted"] for r in records]))
            for records in (parent_records, change_records))
    return c / p if p else None


def run_record(seed, first, result):
    return {"seed": seed, "first": first, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"]}


def parse_seeds(text):
    """'901-910' or '901,905,907' as a list of ints."""
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bench = json.loads(Path(args.change, "BENCHMARK.json").read_text())
    spec = {m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
            for m in bench["end_to_end"]}
    doc = {
        "description": (
            f"End-to-end metrics of perfbench/run.py (--seconds "
            f"{args.seconds} --trace 0) on the parent and on the change, "
            f"{len(seeds)} pairs per workload, alternating which side runs "
            "first. Each side ran from its own checkout. Quartiles are numpy "
            "percentiles 25 and 75 (linear interpolation). A pair is won when "
            "the change's value is better; ties count for neither. Host: "
            f"{os.cpu_count()}-core {platform.machine()}, Python "
            f"{platform.python_version()}, numpy {np.__version__}; times are "
            "scaled to the benchmark's reference speed by perfbench/speed.py."),
        "command": ("python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {args.seconds} --trace 0"),
        "pairs": len(seeds), "seeds": seeds, "workloads": {}}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        results = {"parent": [], "change": []}
        for n, seed in enumerate(seeds):
            order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                result = run_once(checkout, workload, seed, args.seconds)
                results[side].append(result)
                runs[side].append(run_record(seed, side == order[0], result))
                print(f"{workload} seed {seed} {side}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4f}",
                      flush=True)
        doc["workloads"][workload] = {
            "runs": runs,
            "attempted_ratio": attempted_ratio(runs["parent"], runs["change"]),
            "metrics": summarise(results["parent"], results["change"], spec)}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
