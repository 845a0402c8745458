#!/usr/bin/env python3
"""End-to-end benchmark of the multicluster simulator (README.md here).

Builds bench/e2e, a CMake project of its own over ../../src, into
build/bench-e2e, runs each workload in its own mcabench process, prints
every metric with its unit and sample count, and writes a results JSON
with a provenance block under build/bench-e2e/results/.

  python3 bench/e2e/run.py [--seed N]     every workload, timed and traced
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                          one run; the last stdout line is
                                          {"correct", "attempted", "failed",
                                           "metrics"}
  python3 bench/e2e/run.py --check        one untimed trial per workload
  python3 bench/e2e/run.py --sets 2       two timed sets, agreement table

Exits non-zero when the build fails or any output is wrong.
"""

import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "bench-e2e"
RESULTS = BUILD / "results"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
# Digests are recorded at this seed only; other seeds are held out and
# checked against the invariants and against each other.
REFERENCE_SEED = 42
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    """Configure once, then build mcabench; build output goes to stderr."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator])
    # At most four compilers at once: the build shares the host's memory.
    jobs = min(4, os.cpu_count() or 1)
    steps.append(["cmake", "--build", str(BUILD), "--target", "mcabench",
                  "--parallel", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def reference_digest(name, seed):
    """The digest recorded under `name` in digests.json, at seed 42 only.

    A workload's trials are recorded under its name; the sampled
    workload's full reference runs under "sampled.full".
    """
    if seed != REFERENCE_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text())["digests"].get(name)


def mcabench(workload, seed, seconds, mode):
    """Run one workload in its own process; returns its JSON report."""
    work = BUILD / "work" / workload
    work.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "mcabench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--work-dir", str(work)]
    if mode == "traced":
        cmd += ["--trace-out",
                str(RESULTS / f"{workload}-seed{seed}.trace.json")]
    expect = reference_digest(workload, seed)
    if expect:
        cmd += ["--expect-digest", expect]
    expect_full = reference_digest(workload + ".full", seed)
    if expect_full:
        cmd += ["--expect-full-digest", expect_full]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: mcabench ran past {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: mcabench exited {proc.returncode}")
    return json.loads(proc.stdout)


def correct(report):
    return report["wrong"] == 0 and not report["failures"]


def print_report(report):
    print(f"{report['workload']} [{report['mode']}, seed {report['seed']}, "
          f"{report['trials']} timed trials] {report['ops']} operations, "
          f"{report['wrong']} wrong, digest {report['digest']}")
    if "full_digest" in report:
        print(f"  full reference runs' digest {report['full_digest']}")
    for name, m in sorted(report["metrics"].items()):
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']:6s} "
              f"n={m['samples']}")
    if report["mode"] == "traced":
        print(f"  traced trial {report['traced_s']:.3f} s = "
              f"{report['traced_over_untraced']:.2f}x the untraced median "
              f"{report['untraced_median_s']:.3f} s ({report['spans']} spans; "
              f"the traced trial re-runs every layer on the workload's "
              f"points, so most of the ratio is that extra work)")
        print(f"  prof pass {report['prof_s']:.3f} s = "
              f"{report['prof_over_untraced']:.2f}x untraced (distorted: the "
              f"profiler times every stage and disables the L1 hit fast "
              f"path); digests traced {report['digests']['traced']}, "
              f"prof {report['digests']['prof']}")
    for failure in report["failures"][:20]:
        print(f"  FAIL {failure}")


def provenance(seed, reports):
    commit, dirty = "unknown", None
    git = shutil.which("git")
    if git and (ROOT / ".git").exists():
        def out(*args):
            return subprocess.run([git, "-C", str(ROOT), *args],
                                  capture_output=True, text=True).stdout
        commit = out("rev-parse", "HEAD").strip() or "unknown"
        dirty = bool(out("status", "--porcelain").strip())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_info = reports[0]["build"] if reports else {}
    return {
        "commit": commit,
        "dirty": dirty,
        "build_type": build_info.get("type"),
        "compiler": build_info.get("compiler"),
        "flags": build_info.get("flags"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "date": datetime.datetime.now(datetime.timezone.utc)
                .isoformat(timespec="seconds"),
        "seed": seed,
        "trials": {f"{r['workload']}/{r['mode']}": r["trials"]
                   for r in reports},
    }


def write_results(name, seed, reports, **extra):
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{name}.json"
    payload = {"provenance": provenance(seed, reports), **extra,
               "reports": reports}
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def run_one(args, spec):
    """The benchmark contract: one workload, one line of JSON last."""
    trace = args.trace
    report = mcabench(args.workload, args.seed, args.seconds,
                      "traced" if trace else "timed")
    print_report(report)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} missing or not in "
                             f"{m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    write_results(f"{args.workload}-seed{args.seed}-trace{trace}",
                  args.seed, [report])
    ok = correct(report)
    print(json.dumps({"correct": ok, "attempted": report["ops"],
                      "failed": report["wrong"], "metrics": metrics}))
    return 0 if ok else 1


def run_all(args, workloads):
    reports = []
    for w in workloads:
        for mode in ("timed", "traced"):
            reports.append(mcabench(w, args.seed, args.seconds, mode))
            print_report(reports[-1])
    write_results(f"all-seed{args.seed}", args.seed, reports)
    return 0 if all(map(correct, reports)) else 1


def run_check(args, workloads):
    reports = [mcabench(w, args.seed, 1, "check") for w in workloads]
    for r in reports:
        print(f"{r['workload']:12s} digest {r['digest']} "
              f"{r['ops']} operations, {r['wrong']} wrong "
              f"{'ok' if correct(r) else 'FAIL'}")
        if "full_digest" in r:
            print(f"{r['workload'] + '.full':12s} digest {r['full_digest']}")
        for failure in r["failures"][:20]:
            print(f"  FAIL {failure}")
    return 0 if all(map(correct, reports)) else 1


def run_sets(args, workloads, spec):
    """Run every workload `sets` times; do the sets agree within bounds?"""
    reports = {w: [] for w in workloads}
    for _ in range(args.sets):
        for w in workloads:
            reports[w].append(mcabench(w, args.seed, args.seconds, "timed"))
    print(f"{'metric':14s} {'workload':12s} "
          + " ".join(f"{'set ' + str(k + 1):>12s}" for k in range(args.sets))
          + "   worse   bound  agree")
    for m in spec["end_to_end"]:
        for w in workloads:
            vals = [r["metrics"][m["name"]]["value"] for r in reports[w]]
            lo, hi = min(vals), max(vals)
            worse = (hi / lo - 1) if m["better"] == "lower" else (1 - lo / hi)
            print(f"{m['name']:14s} {w:12s} "
                  + " ".join(f"{v:12.6g}" for v in vals)
                  + f"  {worse:6.1%}  {m['bound']:6.0%}  "
                  + ("yes" if worse <= m["bound"] else "NO"))
    flat = [r for w in workloads for r in reports[w]]
    write_results(f"sets{args.sets}-seed{args.seed}", args.seed, flat)
    return 0 if all(map(correct, flat)) else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--sets", type=int)
    args = parser.parse_args()
    workloads = [args.workload] if args.workload else names

    try:
        build()
        if args.check:
            return run_check(args, workloads)
        if args.sets:
            return run_sets(args, workloads, spec)
        if args.workload:
            return run_one(args, spec)
        return run_all(args, workloads)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
