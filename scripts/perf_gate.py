#!/usr/bin/env python3
"""Compare two sets of bench/e2e results: is CHANGE slower than BASE?

  perf_gate.py BASE CHANGE

Each argument is a results JSON written by bench/e2e/run.py, or a
directory of them (`*.trace.json` span files are skipped). Only timed
reports are read. Measure both sides in one session on one host, with
the same workloads and seeds: a committed baseline cannot serve, because
the host's speed drifts by more than the bounds between sessions.

For every BENCHMARK.json workload and end-to-end metric the gate prints
each side's median over its reports, how much worse the change's median
is (the bound and the better direction come from BENCHMARK.json), how
many pairs the change won (a pair is a base and a change report of the
same workload and seed; ties count for neither side) and the base's
spread, the interquartile range of its values over their median. A row
whose spread is wider than its bound is marked `unresolved`: its runs
disagree by more than the bound, so take more of them.

Exits 1 when a change median is worse than its bound, when the change
fails a larger share of its operations than the base on a workload, or
when a workload or metric in BASE has no match in CHANGE; 2 on a usage
or input error; 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Side:
    """The timed reports and provenance blocks of one side."""

    def __init__(self, label, path):
        self.label = label
        self.path = Path(path)
        self.provenance = []
        self.reports = defaultdict(list)  # workload -> timed reports
        files = (sorted(f for f in self.path.glob("*.json")
                        if not f.name.endswith(".trace.json"))
                 if self.path.is_dir() else [self.path])
        for f in files:
            doc = json.loads(f.read_text())
            if "provenance" not in doc or "reports" not in doc:
                raise ValueError(f"{f}: not a bench/e2e results file")
            self.provenance.append(doc["provenance"])
            for r in doc["reports"]:
                if r["mode"] == "timed":
                    self.reports[r["workload"]].append(r)
        if not self.reports:
            raise ValueError(f"{self.path}: no timed reports")

    def describe(self):
        def values(key):
            got = sorted({str(p.get(key)) for p in self.provenance})
            return ", ".join(got)
        commits = sorted({p["commit"][:12] + (" (dirty)" if p.get("dirty")
                                              else "")
                          for p in self.provenance})
        seeds = sorted({r["seed"] for rs in self.reports.values()
                        for r in rs})
        print(f"{self.label}: {self.path} ({len(self.provenance)} files)")
        print(f"  commit {', '.join(commits)}; {values('build_type')}, "
              f"{values('compiler')}")
        print(f"  cpu {values('cpu')}; nproc {values('nproc')}; "
              f"seeds {', '.join(map(str, seeds))}")


def failed_share(reports):
    ops = sum(r["ops"] for r in reports)
    return sum(r["wrong"] for r in reports) / ops if ops else 0.0


def by_seed(reports):
    groups = defaultdict(list)
    for r in reports:
        groups[r["seed"]].append(r)
    return groups


def value(report, name):
    """The metric's value, or None when the report lacks it."""
    return report["metrics"].get(name, {}).get("value")


def worse_by(metric, base, change):
    """How much worse `change` is than `base`, as a fraction (> 0 worse)."""
    if metric["better"] == "lower":
        return change / base - 1.0
    return 1.0 - change / base


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(spec, base, change):
    """Print one row per workload and metric; return the failures."""
    failures = []
    print(f"{'workload/metric':26s} {'base':>11s} {'change':>11s} "
          f"{'worse':>7s} {'bound':>6s} {'won':>6s} {'spread':>7s}")
    for workload in (w["name"] for w in spec["workloads"]):
        base_reports = base.reports.get(workload)
        change_reports = change.reports.get(workload)
        if not base_reports:
            print(f"{workload:26s} not in BASE")
            continue
        if not change_reports:
            failures.append(f"{workload}: in BASE but not in CHANGE")
            continue
        base_failed = failed_share(base_reports)
        change_failed = failed_share(change_reports)
        if change_failed > base_failed:
            failures.append(f"{workload}: CHANGE failed {change_failed:.2%} "
                            f"of its operations, BASE {base_failed:.2%}")
        # The k-th base and the k-th change report of one seed pair up.
        change_by_seed = by_seed(change_reports)
        pairs = [pair for seed, reports in by_seed(base_reports).items()
                 for pair in zip(reports, change_by_seed.get(seed, []))]
        for metric in spec["end_to_end"]:
            name, row = metric["name"], f"{workload}/{metric['name']}"
            base_values = [value(r, name) for r in base_reports]
            change_values = [value(r, name) for r in change_reports]
            if None in base_values:
                print(f"{row:26s} not in BASE")
                continue
            if None in change_values:
                failures.append(f"{row}: in BASE but not in CHANGE")
                continue
            won = sum(worse_by(metric, value(b, name), value(c, name)) < 0
                      for b, c in pairs)
            base_median = statistics.median(base_values)
            change_median = statistics.median(change_values)
            worse = worse_by(metric, base_median, change_median)
            base_spread = spread(base_values)
            verdict = "WORSE" if worse > metric["bound"] else "ok"
            if base_spread is not None and base_spread > metric["bound"]:
                verdict += " unresolved"
            spread_col = ("-" if base_spread is None
                          else f"{base_spread:.1%}")
            print(f"{row:26s} {base_median:11.5g} {change_median:11.5g} "
                  f"{worse:+7.1%} {metric['bound']:6.0%} "
                  f"{f'{won}/{len(pairs)}':>6s} {spread_col:>7s}  {verdict}")
            if worse > metric["bound"]:
                failures.append(
                    f"{row}: change median {change_median:.5g} is "
                    f"{worse:.1%} worse than base {base_median:.5g} "
                    f"(bound {metric['bound']:.0%})")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base", help="results file or directory")
    parser.add_argument("change", help="results file or directory")
    args = parser.parse_args()
    try:
        spec = json.loads(SPEC.read_text())
        base = Side("BASE", args.base)
        change = Side("CHANGE", args.change)
    except (OSError, ValueError, KeyError) as e:
        print(f"perf_gate.py: {e}", file=sys.stderr)
        return 2
    base.describe()
    change.describe()
    failures = compare(spec, base, change)
    if failures:
        print("perf_gate.py: FAIL")
        for failure in failures:
            print("  " + failure)
        return 1
    print("perf_gate.py: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
