#!/usr/bin/env python3
"""Check scripts/perf_gate.py on synthetic bench/e2e results files.

Writes a BASE and a CHANGE directory of results files for each case
into a temporary directory, runs the gate on them, and requires its
exit status, the line the case names, and a row for every workload and
end-to-end metric in BENCHMARK.json that both sides measured.

Usage: check_perf_gate.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GATE = HERE / "perf_gate.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]


def only(workload, seed=None, wrong=0, **factors):
    """A change to one workload's reports (at one seed, if given)."""
    def change(w, s):
        if w == workload and seed in (None, s):
            return wrong, factors
        return 0, {}
    return change


def write_side(directory, seeds=(31,), missing=(), change=None):
    directory.mkdir()
    for seed in seeds:
        for workload in WORKLOADS:
            if workload in missing:
                continue
            wrong, factors = change(workload, seed) if change else (0, {})
            # Every metric reads 1.0 unless the case scales it.
            metrics = {m["name"]: {"value": factors.get(m["name"], 1.0),
                                   "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            report = {"workload": workload, "seed": seed, "mode": "timed",
                      "ops": 20, "wrong": wrong, "failures": [],
                      "metrics": metrics}
            provenance = {"commit": "0" * 40, "dirty": False,
                          "build_type": "RelWithDebInfo",
                          "compiler": "GNU", "cpu": "synthetic",
                          "nproc": 1, "seed": seed}
            doc = {"provenance": provenance, "reports": [report]}
            path = directory / f"{workload}-seed{seed}-trace0.json"
            path.write_text(json.dumps(doc))


# (case, BASE options, CHANGE options, exit status, expected output)
CASES = [
    ("identical sides", {}, {}, 0, "perf_gate.py: OK"),
    ("table2 ref_s_p25 +30%", {},
     {"change": only("table2", ref_s_p25=1.3)}, 1, "table2/ref_s_p25:"),
    ("sim_mips +30%", {}, {"change": only("sweep", sim_mips=1.3)}, 0,
     "perf_gate.py: OK"),
    ("sim_mips -30%", {}, {"change": only("sweep", sim_mips=0.7)}, 1,
     "sweep/sim_mips:"),
    ("peak_rss_mb +11% (bound 10%)", {},
     {"change": only("sampled", peak_rss_mb=1.11)}, 1,
     "sampled/peak_rss_mb:"),
    ("a workload missing from CHANGE", {}, {"missing": ["detail_idle"]}, 1,
     "detail_idle: in BASE but not in CHANGE"),
    ("more failed operations on CHANGE", {},
     {"change": only("detail_busy", wrong=1)}, 1,
     "detail_busy: CHANGE failed"),
    ("three files a side, one slow change outlier",
     {"seeds": (31, 32, 33)},
     {"seeds": (31, 32, 33),
      "change": only("table2", seed=33, ref_s_p25=2.0, sim_mips=0.5)},
     0, "perf_gate.py: OK"),
]


def main():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, base, change, want, expect) in enumerate(CASES):
            case = Path(tmp) / str(i)
            case.mkdir()
            write_side(case / "base", **base)
            write_side(case / "change", **change)
            proc = subprocess.run(
                [sys.executable, str(GATE), str(case / "base"),
                 str(case / "change")],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            problems = []
            if proc.returncode != want:
                problems.append(f"exit {proc.returncode}, want {want}")
            if expect not in proc.stdout:
                problems.append(f"no '{expect}' in the output")
            rows = [f"{w}/{m}" for w in WORKLOADS
                    if w not in change.get("missing", ()) for m in METRICS]
            missing = [row for row in rows if f"{row} " not in proc.stdout]
            if missing:
                problems.append(f"no row for {', '.join(missing)}")
            print(f"check_perf_gate.py: {name}: "
                  + ("; ".join(problems) if problems else "ok"))
            if problems:
                failures.append(f"{name}: {'; '.join(problems)}\n"
                                + proc.stdout)
    if failures:
        sys.exit("check_perf_gate.py: %d case(s) failed:\n%s"
                 % (len(failures), "\n".join(failures)))


if __name__ == "__main__":
    main()
