#!/usr/bin/env python3
"""Checkpoint/restore smoke test (run from scripts/ci.sh).

Exercises the mcasim checkpoint surface end to end and requires exact
state fidelity:

  1. an uninterrupted run records its stats JSON (the ground truth);
  2. the same run saves a mid-run snapshot with --ckpt-out/--ckpt-at;
  3. a run resumed from that snapshot with --ckpt-in must finish with
     stats bit-identical to the uninterrupted run;
  4. --ckpt-every writes a series of periodic snapshots, and resuming
     from the *last* one must again reproduce the ground truth;
  5. restoring the mid-run snapshot into another benchmark, or into the
     same benchmark at another --scale, must fail with a named
     `checkpoint:` error (exit status 1), never a crash or a run.

Any stat drift means some piece of machine state escaped the
save/restore chain (see src/ckpt/ and docs/sampling.md).

Usage: check_ckpt.py MCASIM_BINARY
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

COMMON = [
    "--benchmark", "compress", "--max-insts", "8000",
    "--cycle-stacks", "--quiet", "--json",
]


def run_stats(sim, extra):
    """Run mcasim and return its stats dump as a parsed dict."""
    proc = subprocess.run(
        [sim] + COMMON + extra,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("check_ckpt.py: mcasim failed (%s):\n%s"
                 % (" ".join(extra), proc.stderr))
    out = proc.stdout
    try:
        return json.loads(out[out.index("{"):])
    except ValueError:
        sys.exit("check_ckpt.py: no stats JSON in output of mcasim %s"
                 % " ".join(extra))


def expect_rejected(sim, name, args):
    """A foreign restore must exit 1 naming a checkpoint error."""
    proc = subprocess.run(
        [sim] + args + ["--max-insts", "8000", "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 1 or "checkpoint:" not in proc.stderr:
        sys.exit("check_ckpt.py: %s: expected exit 1 with a checkpoint: "
                 "error, got exit %d:\n%s"
                 % (name, proc.returncode, proc.stderr))
    print("check_ckpt.py: %s: rejected (%s)"
          % (name, proc.stderr.splitlines()[0]))


def expect_equal(name, baseline, resumed):
    if resumed == baseline:
        print("check_ckpt.py: %s: stats identical to uninterrupted run"
              % name)
        return
    diffs = [k for k in sorted(set(baseline) | set(resumed))
             if baseline.get(k) != resumed.get(k)]
    sys.exit("check_ckpt.py: %s: resumed stats differ from the "
             "uninterrupted run in: %s" % (name, ", ".join(diffs[:20])))


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sim = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="mca_ckpt_") as tmp:
        tmp = Path(tmp)
        baseline = run_stats(sim, [])

        # Mid-run snapshot, then resume from it.
        snap = tmp / "mid.mck"
        run_stats(sim, ["--ckpt-out", str(snap), "--ckpt-at", "3000"])
        if not snap.exists():
            sys.exit("check_ckpt.py: --ckpt-out wrote no snapshot")
        expect_equal("ckpt-at", baseline, run_stats(
            sim, ["--ckpt-in", str(snap)]))
        expect_rejected(sim, "other benchmark",
                        ["--benchmark", "gcc1", "--ckpt-in", str(snap)])
        expect_rejected(sim, "other scale",
                        ["--benchmark", "compress", "--scale", "2",
                         "--ckpt-in", str(snap)])

        # Periodic snapshots, then resume from the last one.
        run_stats(sim, ["--ckpt-every", "2500", "--ckpt-dir", str(tmp)])
        periodic = sorted(tmp.glob("ckpt_*.mck"))
        if len(periodic) < 2:
            sys.exit("check_ckpt.py: --ckpt-every 2500 wrote %d "
                     "snapshots, expected >= 2" % len(periodic))
        expect_equal("ckpt-every[%s]" % periodic[-1].name, baseline,
                     run_stats(sim, ["--ckpt-in", str(periodic[-1])]))

    print("check_ckpt.py: OK")


if __name__ == "__main__":
    main()
