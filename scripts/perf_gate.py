#!/usr/bin/env python3
"""Simulator-throughput regression gate (run from scripts/ci.sh).

ci.sh copies the committed BENCH_*.json files aside before regenerating
them, then calls this script with both directories. The gate compares
aggregate throughput metrics (geometric means, so no single workload
dominates) and fails when a fresh metric regresses by more than the
allowed fraction:

  BENCH_core.json     simulated cycles per second              (15%)
  BENCH_compile.json  Table-2 campaign jobs per second         (15%)
  BENCH_sample.json   sampled-simulation effective speedup     (35%)

The sampled gate is looser because its numerator and denominator are
both single wall-clock measurements of multi-second runs; the core and
compile numbers average many iterations. Boolean quality bits are hard
requirements on the *fresh* files regardless of history:
BENCH_mem.json conservation/determinism, BENCH_sample.json target_met
and per-row conservation, BENCH_partition.json multilevel-vs-roundrobin
cut and multilevel-vs-local IPC geomeans.

A missing previous file skips that comparison (first run on a branch),
as does a previous file written under an older schema (its metrics are
not comparable); a missing fresh file is an error.

Usage: perf_gate.py PREV_DIR FRESH_DIR [--threshold FRAC]
"""

import json
import math
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 0.15
SAMPLE_THRESHOLD = 0.35


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def load(path):
    with open(path) as f:
        return json.load(f)


def core_metrics(doc):
    rows = doc["workloads"]
    if not rows or "cycles_per_sec" not in rows[0]:
        return None  # an older schema (per-engine columns)
    return {"core.cps": geomean([r["cycles_per_sec"] for r in rows])}


def print_ns_per_cycle(prev_dir, fresh_dir):
    """Informational: host cost per simulated cycle, per workload, in
    the default mode with the delta against the pre-run baseline, and
    in the reference mode (the idle-skip ablation).

    The reciprocal of the gated cycles-per-second metric, in the units
    docs/profiling.md works in. A negative delta means the fresh run
    spends fewer host ns per simulated cycle (faster).
    """
    path = fresh_dir / "BENCH_core.json"
    if not path.exists():
        return
    rows = load(path).get("workloads", [])
    if not rows or "ns_per_cycle" not in rows[0]:
        return
    prev_rows = {}
    prev_path = prev_dir / "BENCH_core.json"
    if prev_path.exists():
        for r in load(prev_path).get("workloads", []):
            if r.get("ns_per_cycle", 0.0) > 0:
                prev_rows[r["workload"]] = r
    print("  host ns per simulated cycle (delta vs pre-run baseline; "
          "reference mode without skips):")
    for r in rows:
        prev = prev_rows.get(r["workload"])
        if prev:
            delta = (r["ns_per_cycle"] / prev["ns_per_cycle"] - 1.0) * 100.0
            delta_col = "%+7.1f%%" % delta
        else:
            delta_col = "     n/a"
        print("    %-10s %8.1f ns/cycle %s  (reference %8.1f)"
              % (r["workload"], r["ns_per_cycle"], delta_col,
                 r.get("noskip_ns_per_cycle", 0.0)))


def compile_metrics(doc):
    wall = doc["wall_s_cache"]
    return {"compile.jobs_per_s":
            doc["table2_jobs"] / wall if wall > 0 else 0.0}


def sample_metrics(doc):
    return {"sample.speedup":
            geomean([r["speedup"] for r in doc["rows"]])}


def check_booleans(fresh_dir, failures):
    mem = fresh_dir / "BENCH_mem.json"
    if mem.exists():
        doc = load(mem)
        for key in ("conservation_ok", "paper_mode_deterministic"):
            if not doc.get(key, False):
                failures.append("BENCH_mem.json: %s is false" % key)
    sample = fresh_dir / "BENCH_sample.json"
    if sample.exists():
        doc = load(sample)
        if not doc.get("target_met", False):
            failures.append("BENCH_sample.json: target_met is false "
                            "(no benchmark at 7x speedup with <=2% "
                            "CPI error)")
        for row in doc.get("rows", []):
            if not row.get("conserved", False):
                failures.append(
                    "BENCH_sample.json: %s violated cycle-stack "
                    "conservation" % row.get("benchmark", "?"))
            if not row.get("pipe_identical", True):
                failures.append(
                    "BENCH_sample.json: %s pipelined (jobs=2) estimate "
                    "differs from serial" % row.get("benchmark", "?"))
    partition = fresh_dir / "BENCH_partition.json"
    if partition.exists():
        doc = load(partition)
        if doc.get("jobs_ok") != doc.get("jobs_total"):
            failures.append(
                "BENCH_partition.json: %s/%s jobs succeeded"
                % (doc.get("jobs_ok"), doc.get("jobs_total")))
        for key in ("ml_cut_le_roundrobin", "ml_ipc_ge_local_quad8",
                    "ml_ipc_ge_local_octa8"):
            if not doc.get(key, False):
                failures.append(
                    "BENCH_partition.json: %s is false" % key)


FILES = [
    ("BENCH_core.json", core_metrics, None),
    ("BENCH_compile.json", compile_metrics, None),
    ("BENCH_sample.json", sample_metrics, SAMPLE_THRESHOLD),
]


def main():
    args = sys.argv[1:]
    threshold = DEFAULT_THRESHOLD
    if "--threshold" in args:
        i = args.index("--threshold")
        threshold = float(args[i + 1])
        del args[i:i + 2]
    if len(args) != 2:
        sys.exit(__doc__)
    prev_dir, fresh_dir = Path(args[0]), Path(args[1])

    failures = []
    check_booleans(fresh_dir, failures)

    print("perf_gate.py: previous=%s fresh=%s" % (prev_dir, fresh_dir))
    for name, extract, own_threshold in FILES:
        allowed = own_threshold if own_threshold is not None else threshold
        fresh_path = fresh_dir / name
        if not fresh_path.exists():
            failures.append("%s: fresh file missing (benchmark did not "
                            "run?)" % name)
            continue
        prev_path = prev_dir / name
        if not prev_path.exists():
            print("  %-20s no previous copy, skipping (first run)"
                  % name)
            continue
        prev = extract(load(prev_path))
        fresh = extract(load(fresh_path))
        if fresh is None:
            failures.append("%s: fresh file has an unknown schema" % name)
            continue
        if prev is None:
            print("  %-20s previous copy predates the current schema, "
                  "skipping" % name)
            continue
        for metric in sorted(prev):
            p, f = prev[metric], fresh.get(metric, 0.0)
            ratio = f / p if p > 0 else 1.0
            verdict = "ok"
            if ratio < 1.0 - allowed:
                verdict = "REGRESSION (>%d%% allowed)" % (allowed * 100)
                failures.append(
                    "%s: %s fell %.1f%% (%.3g -> %.3g)"
                    % (name, metric, (1.0 - ratio) * 100.0, p, f))
            print("  %-20s %-18s %10.3g -> %10.3g  (%+5.1f%%) %s"
                  % (name, metric, p, f, (ratio - 1.0) * 100.0, verdict))

    print_ns_per_cycle(prev_dir, fresh_dir)

    if failures:
        print("perf_gate.py: FAIL")
        for failure in failures:
            print("  " + failure)
        sys.exit(1)
    print("perf_gate.py: OK")


if __name__ == "__main__":
    main()
