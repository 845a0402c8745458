#!/usr/bin/env python3
"""Point-agreement check: mcasim and mcarun describe a point one way.

Runs the same simulation points through `mcasim --json --quiet` (one
point per run) and `mcarun --out - --no-cache` (the runner's job path)
and requires the two tools to report equal cycles, retired
instructions, single/dual distributions, operand/result forwards and
replay exceptions. A mismatch means the tools built a different
machine or compiled a different binary for what should be one point.

Usage: check_point_agreement.py MCASIM_BINARY MCARUN_BINARY
"""

import json
import subprocess
import sys

BENCHMARKS = ["compress", "doduc", "gcc1", "ora", "su2cor", "tomcatv"]

# (label, grid-axis parameters, shared flags), each run on every
# benchmark. Axis parameters are spelled once here and rendered in each
# tool's spelling below.
POINTS = [
    ("default point", {}, []),
    ("quad8 multilevel", {"machine": "quad8", "scheduler": "multilevel"},
     []),
    ("L2 + slow memory + one fill port", {},
     ["--l2-kb", "256", "--mem-lat", "32", "--fill-ports", "1"]),
    ("trace seed 7", {"trace-seed": "7"}, []),
    ("gshare, unroll 2, threshold 8", {"threshold": "8"},
     ["--predictor", "gshare", "--unroll", "2"]),
    ("machine overrides", {},
     ["--dq", "32", "--otb", "2", "--rtb", "4", "--mshr", "4",
      "--icache-kb", "16", "--dcache-kb", "32", "--queue-mode", "rs",
      "--spec-history", "--reserve-oldest"]),
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


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("check_point_agreement.py: %s failed (exit %d):\n%s"
                 % (" ".join(cmd), proc.returncode, proc.stderr))
    return proc.stdout


def mcasim_point(sim, benchmark, params, shared):
    cmd = [sim, "--benchmark", benchmark, "--json", "--quiet"] + shared
    for name, value in params.items():
        cmd += ["--" + name, value]
    out = run(cmd)
    return json.loads(out[out.index("{"):])


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
    for label, params, shared in POINTS:
        jobs = mcarun_points(runner, params, shared)
        for benchmark in BENCHMARKS:
            job = jobs.get(benchmark)
            if job is None or job["status"] != "ok":
                failures.append("%s / %s: mcarun job missing or not ok"
                                % (label, benchmark))
                continue
            stats = mcasim_point(sim, benchmark, params, shared)
            diffs = ["%s mcasim %s != mcarun %s"
                     % (field, stats.get(stat), job[field])
                     for field, stat in FIELDS.items()
                     if stats.get(stat) != job[field]]
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
