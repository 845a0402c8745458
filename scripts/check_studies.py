#!/usr/bin/env python3
"""Study digests: each named study's table, pinned by SHA-256.

Runs every study `mcarun --study NAME` knows at a small size (--scale
0.05 --max-insts 20000 --no-cache --quiet) and requires the SHA-256 of
the table it prints to equal the digest checked in for it in
scripts/study_digests.json, the way bench/e2e's digests.json pins its
workloads. The study names come from mcarun itself (its `--study` usage
error lists them), so a study without a digest fails, and so does a
digest whose study is gone.

Usage: check_studies.py MCARUN [--update]
  --update  write this build's digests into study_digests.json
"""

import hashlib
import json
import os
import re
import subprocess
import sys

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "study_digests.json")
SIZE = ["--scale", "0.05", "--max-insts", "20000", "--no-cache", "--quiet",
        "--jobs", "4"]


def study_names(mcarun):
    proc = subprocess.run([mcarun, "--study", "?"], capture_output=True,
                          text=True)
    match = re.search(r"\(valid: ([^)]*)\)", proc.stderr)
    if proc.returncode != 2 or not match:
        sys.exit("check_studies.py: 'mcarun --study ?' must exit 2 listing "
                 "the studies, got %d:\n%s" % (proc.returncode, proc.stderr))
    return match.group(1).split("|")


def table_digest(mcarun, name):
    proc = subprocess.run([mcarun, "--study", name] + SIZE,
                          capture_output=True)
    if proc.returncode != 0 or proc.stderr:
        sys.exit("check_studies.py: study %s failed (exit %d):\n%s"
                 % (name, proc.returncode, proc.stderr.decode()))
    return hashlib.sha256(proc.stdout).hexdigest()


def main():
    args = sys.argv[1:]
    update = "--update" in args
    args = [a for a in args if a != "--update"]
    if len(args) != 1:
        sys.exit(__doc__)
    mcarun = args[0]
    got = {name: table_digest(mcarun, name) for name in study_names(mcarun)}
    if update:
        with open(DIGESTS, "w") as f:
            json.dump(got, f, indent=2)
            f.write("\n")
        print("check_studies.py: wrote %d digests to %s" % (len(got),
                                                            DIGESTS))
        return
    with open(DIGESTS) as f:
        pinned = json.load(f)
    failures = []
    for name in sorted(set(got) | set(pinned)):
        if name not in pinned:
            failures.append("%s: no digest checked in" % name)
        elif name not in got:
            failures.append("%s: digest for a study mcarun does not list"
                            % name)
        elif got[name] != pinned[name]:
            failures.append("%s: table digest %s, pinned %s"
                            % (name, got[name], pinned[name]))
        else:
            print("check_studies.py: %s: ok" % name)
    if failures:
        sys.exit("check_studies.py: %d study table(s) differ from the "
                 "pinned digests (rerun with --update if the change is "
                 "intended):\n  %s" % (len(failures), "\n  ".join(failures)))


if __name__ == "__main__":
    main()
