#!/usr/bin/env python3
"""Point-agreement check: mcasim and mcarun describe a point one way.

Runs the same simulation points through `mcasim --json --quiet` (one
point per run) and `mcarun --out - --no-cache` (the runner's job path)
and requires the two tools to report equal cycles, retired
instructions, single/dual distributions, operand/result forwards and
replay exceptions. A mismatch means the tools built a different
machine or compiled a different binary for what should be one point.

A sampled point compares the estimate instead: trace length, window
count, CPI and its confidence interval (mcasim prints the last two to
six significant digits). A point that spends its --max-cycles budget
must be a `timeout` in mcarun, exit 1 in mcasim naming the budget, and
stop at the same cycle when mcasim observes every cycle
(--interval-stats).

Usage: check_point_agreement.py MCASIM_BINARY MCARUN_BINARY
"""

import json
import os
import subprocess
import sys

BENCHMARKS = ["compress", "doduc", "gcc1", "ora", "su2cor", "tomcatv"]

# (label, grid-axis parameters, shared flags, mcarun's status), each
# run on every benchmark. Axis parameters are spelled once here and
# rendered in each tool's spelling below.
POINTS = [
    ("default point", {}, [], "ok"),
    ("quad8 multilevel", {"machine": "quad8", "scheduler": "multilevel"},
     [], "ok"),
    ("L2 + slow memory + one fill port", {},
     ["--l2-kb", "256", "--mem-lat", "32", "--fill-ports", "1"], "ok"),
    ("trace seed 7", {"trace-seed": "7"}, [], "ok"),
    ("gshare, unroll 2, threshold 8", {"threshold": "8"},
     ["--predictor", "gshare", "--unroll", "2"], "ok"),
    ("machine overrides", {},
     ["--dq", "32", "--otb", "2", "--rtb", "4", "--mshr", "4",
      "--icache-kb", "16", "--dcache-kb", "32", "--queue-mode", "rs",
      "--spec-history", "--reserve-oldest"], "ok"),
    ("sampled at scale 1", {"sample-period": "20000"},
     ["--scale", "1", "--sample-detail", "4000", "--sample-warmup", "1000"],
     "ok"),
    ("5000-cycle budget", {}, ["--max-cycles", "5000"], "timeout"),
]

# mcarun JSON-lines field -> mcasim stats-registry name.
FIELDS = {
    "cycles": "sim.cycles",
    "retired": "sim.retired",
    "dist_single": "dist.single",
    "dist_dual": "dist.dual",
    "operand_forwards": "dist.operand_forwards",
    "result_forwards": "dist.result_forwards",
    "replays": "replay.exceptions",
}

# mcarun field -> mcasim sampled-report key, equal as integers.
SAMPLED_FIELDS = {"retired": "total_insts", "sampled_intervals": "intervals"}

BUDGET_ERROR = "cycle budget exhausted (5000 cycles)"


def run(cmd, timed_out=False):
    """Run a tool; a point that spends its budget exits 1 naming it."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if timed_out:
        if proc.returncode != 1 or BUDGET_ERROR not in proc.stderr:
            sys.exit("check_point_agreement.py: %s must exit 1 naming '%s'"
                     " (exit %d):\n%s" % (" ".join(cmd), BUDGET_ERROR,
                                          proc.returncode, proc.stderr))
    elif proc.returncode != 0:
        sys.exit("check_point_agreement.py: %s failed (exit %d):\n%s"
                 % (" ".join(cmd), proc.returncode, proc.stderr))
    return proc.stdout


def mcasim_point(sim, benchmark, params, shared, timed_out, extra=()):
    cmd = [sim, "--benchmark", benchmark, "--json", "--quiet"] + shared
    for name, value in params.items():
        cmd += ["--" + name, value]
    out = run(cmd + list(extra), timed_out)
    return json.loads(out[out.index("{"):])


def six_digits(value):
    return float("%.6g" % value)


def differences(job, stats, sampled):
    """Each field on which mcarun's record and mcasim's output differ."""
    if not sampled:
        pairs = [(field, job[field], stats.get(stat))
                 for field, stat in FIELDS.items()]
    else:
        pairs = [(field, job[field], stats.get(key))
                 for field, key in SAMPLED_FIELDS.items()]
        pairs += [("cpi_ci95", six_digits(job["cpi_ci95"]),
                   stats.get("cpi_ci95")),
                  ("1/ipc", six_digits(1.0 / job["ipc"]),
                   stats.get("cpi_mean"))]
    return ["%s mcasim %s != mcarun %s" % (field, theirs, ours)
            for field, ours, theirs in pairs if ours != theirs]


def mcarun_points(runner, params, shared):
    # Every grid axis is the plural of mcasim's flag.
    cmd = [runner, "--benchmarks", ",".join(BENCHMARKS), "--out", "-",
           "--no-cache", "--no-table", "--quiet"] + shared
    for name, value in params.items():
        cmd += ["--" + name + "s", value]
    rows = [json.loads(line) for line in run(cmd).splitlines()
            if line.startswith("{")]
    return {row["benchmark"]: row for row in rows}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sim, runner = sys.argv[1], sys.argv[2]
    failures = []
    for label, params, shared, want in POINTS:
        jobs = mcarun_points(runner, params, shared)
        timed_out = want == "timeout"
        for benchmark in BENCHMARKS:
            job = jobs.get(benchmark)
            if job is None or job["status"] != want:
                failures.append("%s / %s: mcarun job missing or not %s"
                                % (label, benchmark, want))
                continue
            if timed_out and job["error"] != BUDGET_ERROR:
                failures.append("%s / %s: mcarun error '%s'"
                                % (label, benchmark, job["error"]))
            stats = mcasim_point(sim, benchmark, params, shared, timed_out)
            diffs = differences(job, stats, "sample-period" in params)
            if timed_out:
                # Stepping every cycle stops at the same cycle.
                observed = mcasim_point(
                    sim, benchmark, params, shared, timed_out,
                    ["--interval-stats", "1000", "--stats-out", os.devnull])
                diffs += ["%s with --interval-stats %s != %s"
                          % (stat, observed.get(stat), stats.get(stat))
                          for stat in ("sim.cycles", "sim.retired")
                          if observed.get(stat) != stats.get(stat)]
            status = "; ".join(diffs) if diffs else "agree"
            print("check_point_agreement.py: %s / %s: %s (%d cycles)"
                  % (label, benchmark, status, job["cycles"]))
            if diffs:
                failures.append("%s / %s: %s" % (label, benchmark,
                                                 "; ".join(diffs)))
    if failures:
        sys.exit("check_point_agreement.py: the tools disagree on %d "
                 "point(s):\n  %s" % (len(failures),
                                      "\n  ".join(failures)))


if __name__ == "__main__":
    main()
