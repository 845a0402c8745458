#!/bin/sh
# Tier-1 verification, exactly as the project's canonical verify line:
# configure, build, and run the full test suite. Fails fast on the
# first broken step.
#
#   scripts/ci.sh [build-dir]
set -e

BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

# Scratch files (traces, profiles, captured output) live in one private
# directory, so two runs on one host do not overwrite each other's.
TMP="$(mktemp -d "${TMPDIR:-/tmp}/mca_ci.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j "$(nproc)"
cd "$BUILD"
ctest --output-on-failure -j

# Sanitizer job: the full test suite again under ASan+UBSan with
# libstdc++'s bounds-checked containers (separate build tree; every
# finding is fatal via -fno-sanitize-recover=all).
cd "$ROOT"
cmake -B "$BUILD-asan" -S . -DMCA_SANITIZE=ON
cmake --build "$BUILD-asan" -j "$(nproc)"
cd "$BUILD-asan"
ctest --output-on-failure -j
cd "$ROOT"

# ThreadSanitizer job: the concurrent subsystems — task-graph executor,
# campaign runner, sampled driver — under TSan (separate build tree;
# only the affected test binaries are built and run, the rest of the
# suite is single-threaded and covered by the ASan job above).
cmake -B "$BUILD-tsan" -S . -DMCA_SANITIZE=thread
cmake --build "$BUILD-tsan" -j "$(nproc)" \
    --target taskgraph_test runner_test sample_test
"$BUILD-tsan/tests/taskgraph_test"
"$BUILD-tsan/tests/runner_test"
"$BUILD-tsan/tests/sample_test"

SIM="$BUILD/src/tools/mcasim"

# Usage-error probes: both tools parse one typed flag table, so a
# malformed command line is a usage error that names the flag
# (`<tool>: <flag>: <reason>`, exit status 2) before any compile.
probe() {
    tool="$1" flag="$2"
    shift 2
    status=0
    "$BUILD/src/tools/$tool" "$@" >/dev/null 2>"$TMP/usage.txt" \
        || status=$?
    if [ "$status" -ne 2 ] ||
        ! grep -q -- "^$tool: $flag: " "$TMP/usage.txt"; then
        echo "ci.sh: '$tool $*' must exit 2 naming $flag, got $status:"
        cat "$TMP/usage.txt"
        exit 1
    fi
}
for tool in mcasim mcarun; do
    probe "$tool" --bogus --bogus
    probe "$tool" --scale --scale
    probe "$tool" --scale --scale foo
    probe "$tool" --max-insts --max-insts 5k
done
probe mcasim --threshold --threshold -1
probe mcasim --random-seed --random-seed abc
probe mcarun --thresholds --thresholds x
# An unknown study lists the studies; a flag a study does not read is
# refused, not ignored.
probe mcarun --study --study nosuch
grep -q "(valid: table2|threshold|buffers|" "$TMP/usage.txt" || {
    echo "ci.sh: 'mcarun --study nosuch' must list the studies, got:"
    cat "$TMP/usage.txt"
    exit 1
}
probe mcarun --machines --study buffers --machines quad8
probe mcarun --trace-seeds --study table2 --trace-seeds 1,2
# A flag the chosen run would not read is refused by name: a sampled
# run keeps no cycle stack, a trace save simulates (and profiles)
# nothing, --stats-out only redirects --interval-stats rows, and the
# window size and worker count belong to a sampled run.
probe mcasim --cycle-stacks --benchmark gcc1 --sample-period 20000 \
    --sample-detail 4000 --sample-warmup 1000 --cycle-stacks
probe mcasim --prof-out --save-trace "$TMP/refused.mct" \
    --prof-out "$TMP/refused.json"
probe mcasim --stats-out --stats-out "$TMP/refused.csv"
probe mcasim --sample-detail --sample-detail 4000
probe mcasim --jobs --jobs 2
# A sampled point is spelled with the shared --sample-* rows only.
probe mcasim --sample --benchmark gcc1 \
    --sample "systematic:period=20000,detail=4000,warmup=1000"
# A plan whose warmup + detail overflow past 2^64 still overlaps.
probe mcarun compress/dual8/local --benchmarks compress \
    --sample-periods 20000 --sample-detail 1 \
    --sample-warmup 18446744073709551615 --no-cache
# Only one results sink can be stdout.
probe mcarun --csv --study table2 --out - --csv -

# Results on stdout parse: a sink of '-' implies --no-table, so the
# Table-2 study's records arrive as 18 CSV rows of 65 columns, or as
# 18 JSON lines, with no table text after them.
table2_stdout() {
    "$BUILD/src/tools/mcarun" --study table2 --scale 0.05 \
        --max-insts 20000 --no-cache --quiet "$@"
}
table2_stdout --csv - >"$TMP/table2.csv"
table2_stdout --out - >"$TMP/table2.jsonl"
python3 - "$TMP/table2.csv" "$TMP/table2.jsonl" <<'PY'
import csv, json, sys
with open(sys.argv[1], newline="") as f:
    rows = list(csv.DictReader(f))
if len(rows) != 18 or any(len(r) != 65 or None in r.values() for r in rows):
    sys.exit("ci.sh: mcarun --csv - must give 18 rows of 65 columns, got "
             "%d rows" % len(rows))
lines = [json.loads(line) for line in open(sys.argv[2])]
if len(lines) != 18:
    sys.exit("ci.sh: mcarun --out - must give 18 JSON lines, got %d"
             % len(lines))
PY

# Observability smoke: cycle stacks conserve and the Perfetto trace is
# loadable (scripts/check_trace.py validates both).
"$SIM" --benchmark ora --max-insts 5000 --cycle-stacks --quiet \
    --trace-out "$TMP/trace.json" >/dev/null
"$SIM" --benchmark ora --max-insts 5000 --cycle-stacks --quiet --json \
    >"$TMP/stats.json" 2>/dev/null
python3 scripts/check_trace.py "$TMP/trace.json" \
    "$TMP/stats.json"

# Paranoid smoke: every-cycle invariant checking of the rename maps,
# free lists, transfer-buffer bookkeeping, and the scheduler's
# oldest-unissued cursor, wait memos and store queue, in both scheduler
# modes, which must report the same cycle count. ora runs on the
# paper's dual8; gcc1 on four clusters with reservation-station queues,
# a 2-entry MSHR file and the oldest instruction's reserved buffer
# entry; doduc with one-entry transfer buffers, whose replays squash
# in-flight stores and re-dispatch the loads that waited on them.
paranoid_cycles() {
    "$SIM" --paranoid --quiet --json "$@" >"$TMP/paranoid.json"
    grep '"sim.cycles"' "$TMP/paranoid.json"
}
for point in "--benchmark ora --max-insts 5000" \
    "--benchmark gcc1 --max-insts 20000 --clusters 4 --queue-mode rs \
--mshr 2 --reserve-oldest" \
    "--benchmark doduc --max-insts 20000 --otb 1 --rtb 1"; do
    # $point is split into flags on purpose.
    wake="$(paranoid_cycles $point)"
    full="$(paranoid_cycles $point --no-idle-skip)"
    if [ "$wake" != "$full" ]; then
        echo "ci.sh: '$point': scheduler modes disagree:" \
            "$wake vs $full"
        exit 1
    fi
done

# An OTB smaller than one instruction can need in one cluster (2 on
# three or more clusters) is a usage error found before any compile.
probe mcasim compress/quad8/local --clusters 4 --otb 1
probe mcasim tomcatv/octa8/local --benchmark tomcatv --machine octa8 --otb 1
probe mcarun tomcatv/quad8/local --benchmarks tomcatv --machines quad8 \
    --otb 1 --no-cache

# Runtime-failure probes: each run must fail by name (exit 1, "fatal:"
# naming the failure), not abort or report a number.
fails() {
    want="$1"
    shift
    status=0
    "$SIM" "$@" >/dev/null 2>"$TMP/fails.txt" || status=$?
    if [ "$status" -ne 1 ] || ! grep -q "^fatal: $want" "$TMP/fails.txt"
    then
        echo "ci.sh: 'mcasim $*' must exit 1 naming '$want', got $status:"
        cat "$TMP/fails.txt"
        exit 1
    fi
}
# With two OTB entries per cluster on the 4-cluster machine, replays
# never let the oldest instruction retire.
fails "replay exceptions are not making progress" --benchmark tomcatv \
    --clusters 4 --otb 2 --max-insts 20000
# A run that spends its cycle budget, as mcarun records a timeout.
fails "cycle budget exhausted (1000 cycles)" --max-cycles 1000
# A sampling plan whose first window starts past the trace's end.
fails "sample: no window measured" --benchmark compress --max-insts 60000 \
    --sample-period 70000 --sample-detail 4000 --sample-warmup 1000

# Verified-compile smoke: every pass's output passes prog::verifyIR on
# all three schedulers, with dumps and per-pass stats exercised.
"$SIM" --benchmark ora --max-insts 5000 --verify-ir --pass-stats \
    --quiet >/dev/null
"$SIM" --benchmark ora --max-insts 5000 --scheduler native \
    --machine single8 --verify-ir --quiet >/dev/null
"$SIM" --benchmark ora --max-insts 5000 --scheduler roundrobin \
    --verify-ir --quiet >/dev/null
"$SIM" --benchmark ora --max-insts 5000 --scheduler multilevel \
    --verify-ir --quiet >/dev/null
# The pass table lists the eight passes in pipeline order.
passes="$("$SIM" --list-passes | awk '{printf "%s ", $1}')"
want="optimize unroll superblock schedule profile partition regalloc emit "
if [ "$passes" != "$want" ]; then
    echo "ci.sh: --list-passes printed '$passes', want '$want'"
    exit 1
fi
"$SIM" --benchmark ora --max-insts 5000 --dump-after regalloc --quiet \
    >/dev/null

# Compile-cache invariant: the Table-2 campaign compiles each distinct
# (workload, compile-config) pair exactly once — 12 compiles for 18
# jobs, 6 shared. The summary line is on stderr (not under --quiet).
SUMMARY="$("$BUILD/src/tools/mcarun" --study table2 --scale 0.05 \
    --max-insts 20000 --jobs 4 --no-cache 2>&1 >/dev/null)"
echo "$SUMMARY" | grep -q "compiles: 12 (6 shared)" || {
    echo "ci.sh: compile-cache expected 'compiles: 12 (6 shared)', got:"
    echo "$SUMMARY"
    exit 1
}

# Study digests: every named study (Table 2, the ablations, extensions
# and sweeps that `mcarun --study` runs) at --scale 0.05 --max-insts
# 20000 must print the table whose SHA-256 scripts/study_digests.json
# pins, as bench/e2e's digests.json pins its workloads (also the
# StudyDigests ctest).
python3 scripts/check_studies.py "$BUILD/src/tools/mcarun"

# N-cluster partitioning smokes: the --clusters machine selection with
# every partitioner at 4 clusters (verified IR), the Figure-6
# partitioner comparison, and a 4-cluster mcarun partitioner sweep.
for p in local roundrobin multilevel; do
    "$SIM" --benchmark ora --max-insts 5000 --clusters 4 \
        --partitioner "$p" --verify-ir --quiet >/dev/null
done
"$SIM" --benchmark ora --max-insts 5000 --clusters 8 \
    --partitioner multilevel --verify-ir --quiet >/dev/null
"$BUILD/bench/fig6_partitioning" >/dev/null
"$BUILD/src/tools/mcarun" --benchmarks compress --machines quad8 \
    --partitioners local,roundrobin,multilevel --schedulers native \
    --scale 0.05 --max-insts 20000 --jobs 4 --no-cache --no-table \
    --quiet >/dev/null

# Partition-quality benchmark: the cluster-count x partitioner study;
# mcarun exits 1 unless every job is ok, the multilevel partitioner
# cuts no more affinity weight than round-robin on every benchmark and
# machine, and it matches or beats the local scheduler's geomean IPC at
# 4 and 8 clusters (see EXPERIMENTS.md).
"$BUILD/src/tools/mcarun" --study clusters --max-insts 100000 --jobs 4 \
    --no-cache --out "$ROOT/BENCH_partition.jsonl"

# Memory-hierarchy sensitivity: the L2 x memory-latency study over
# compress + su2cor; mcarun exits 1 unless every job is ok and no job
# without an L2 attributes a stall to one (see docs/memory.md and
# EXPERIMENTS.md).
"$BUILD/src/tools/mcarun" --study memory --scale 0.1 --max-insts 60000 \
    --no-cache --out "$ROOT/BENCH_mem.jsonl"

# Hierarchy-flag smoke: an L2-equipped machine with finite fill ports
# runs end to end with conserved cycle stacks.
"$SIM" --benchmark compress --max-insts 5000 --l2-kb 256 --mem-lat 32 \
    --fill-ports 1 --cycle-stacks --quiet >/dev/null

# Checkpoint/restore smoke: a run resumed from a mid-run snapshot
# (--ckpt-out/--ckpt-at and --ckpt-every alike) must finish with stats
# bit-identical to an uninterrupted run, and a snapshot restored into
# another program or scale must fail by name (docs/sampling.md).
python3 scripts/check_ckpt.py "$SIM"

# Trace-file round trip: a trace written with --save-trace and replayed
# with --load-trace (exec::FileTrace) must simulate exactly like the
# direct run: same retired count, same cycles (14085 for this point).
"$SIM" --benchmark gcc1 --max-insts 20000 --quiet >"$TMP/direct.txt"
"$SIM" --benchmark gcc1 --max-insts 20000 \
    --save-trace "$TMP/gcc1.mct" --quiet >"$TMP/save.txt"
if [ -s "$TMP/save.txt" ]; then
    echo "ci.sh: --save-trace --quiet wrote to stdout:"
    cat "$TMP/save.txt"
    exit 1
fi
"$SIM" --load-trace "$TMP/gcc1.mct" --quiet >"$TMP/replay.txt"
direct="$(sed 's/^.*: //' "$TMP/direct.txt")"
replay="$(sed 's/^.*: //' "$TMP/replay.txt")"
if [ -z "$direct" ] || [ "$direct" != "$replay" ]; then
    echo "ci.sh: --load-trace replay gave '$replay'," \
        "the direct run '$direct'"
    exit 1
fi

# Corrupt-trace probes: a 2000-instruction trace with one record field
# corrupted, or one operand that does not fit its opcode, must fail by
# name (exit 1, "trace:" on stderr), not abort, hang or simulate.
# Records are 52 bytes after a 24-byte header; the opcode is byte 40 of
# a record, the dest, src0 and src1 registers bytes 42-43, 44-45 and
# 46-47 (index, then class; ff ff for none). Arguments: name, record,
# byte offset, printf bytes.
"$SIM" --benchmark gcc1 --max-insts 2000 \
    --save-trace "$TMP/small.mct" --quiet >/dev/null
corrupt_trace_probe() {
    cp "$TMP/small.mct" "$TMP/$1.mct"
    printf "$4" | dd of="$TMP/$1.mct" bs=1 seek=$((24 + $2 * 52 + $3)) \
        conv=notrunc status=none
    status=0
    timeout 60 "$SIM" --load-trace "$TMP/$1.mct" --quiet \
        >/dev/null 2>"$TMP/$1.err" || status=$?
    if [ "$status" -ne 1 ] || ! grep -q "trace:" "$TMP/$1.err"; then
        echo "ci.sh: corrupt trace ($1) must exit 1 naming it, got" \
            "$status:"
        cat "$TMP/$1.err"
        exit 1
    fi
}
corrupt_trace_probe opcode-250 100 40 '\372'
corrupt_trace_probe dest-index-200 0 42 '\310\000'
corrupt_trace_probe dest-class-7 0 42 '\003\007'
# Operands that do not fit the opcode (isa::illFormedOperand), in the
# first record with a given opcode (isa::Op order: ldl 24, stl 26).
first_record() {
    python3 -c 'import sys
b = open(sys.argv[1], "rb").read()
print(next(i for i in range((len(b) - 24) // 52)
           if b[24 + 52 * i + 40] == int(sys.argv[2])))' "$TMP/small.mct" "$1"
}
corrupt_trace_probe load-without-dest "$(first_record 24)" 42 '\377\377'
corrupt_trace_probe store-src1-without-src0 "$(first_record 26)" 44 \
    '\377\377'
# A replay compiles nothing, so a compile flag is refused, not ignored.
probe mcasim --scheduler --load-trace "$TMP/small.mct" --scheduler native

# Sampled-simulation smoke: mcasim's sampled run and the mcarun
# --sample-periods axis both run end to end. The campaign's JSONL and CSV
# must carry one column list in one order, and mark exactly the one
# sampled job; under --quiet mcarun prints only the results, so its
# stderr stays empty.
"$SIM" --benchmark gcc1 --scale 1 --sample-period 20000 \
    --sample-detail 4000 --sample-warmup 1000 --quiet >/dev/null
"$BUILD/src/tools/mcarun" --benchmarks compress \
    --sample-periods 0,20000 --scale 0.5 --max-insts 60000 \
    --no-cache --quiet --out "$TMP/sampled.jsonl" \
    --csv "$TMP/sampled.csv" >/dev/null 2>"$TMP/sampled.err"
if [ -s "$TMP/sampled.err" ]; then
    echo "ci.sh: mcarun --quiet wrote to stderr:"
    cat "$TMP/sampled.err"
    exit 1
fi
python3 - "$TMP/sampled.jsonl" "$TMP/sampled.csv" <<'PY'
import csv, json, sys
rows = [json.loads(line) for line in open(sys.argv[1])]
with open(sys.argv[2], newline="") as f:
    header, *cells = list(csv.reader(f))
if any(list(row) != header for row in rows):
    sys.exit("ci.sh: CSV header differs from the JSONL key order")
if [row[header.index("sampled")] for row in cells].count("true") != 1:
    sys.exit("ci.sh: expected exactly one CSV row with sampled true")
PY

# Sampled-simulation benchmark: full detailed run vs SMARTS-style
# sampled estimate; fails unless one benchmark reaches a 7x per-core
# effective speedup with <= 2% CPI error (see EXPERIMENTS.md).
"$BUILD/bench/sampled_speedup" --json-out "$ROOT/BENCH_sample.json"

# Host-profiler smoke (docs/profiling.md): a profiled gcc1 run must
# attribute >= 90% of its wall clock to regions, the report must
# render, and the diff mode must accept two real profiles. The sampled
# variant exercises the per-window Perfetto tracks and the
# multi-threaded profile merge.
"$SIM" --benchmark gcc1 --prof --prof-out "$TMP/prof1.json" \
    --quiet >/dev/null
python3 scripts/prof_report.py "$TMP/prof1.json" \
    --min-coverage 0.9 >/dev/null
"$SIM" --benchmark gcc1 --prof --prof-out "$TMP/prof2.json" \
    --sample-period 20000 --sample-detail 4000 --sample-warmup 1000 \
    --jobs 2 --trace-out "$TMP/prof_trace.json" --quiet >/dev/null
python3 scripts/prof_report.py "$TMP/prof2.json" >/dev/null
python3 scripts/prof_report.py --diff "$TMP/prof1.json" \
    "$TMP/prof2.json" >/dev/null

# Campaign-telemetry smoke: the JSONL heartbeat must parse, count
# done = 1..total monotonically, and close with a consistent summary.
"$BUILD/src/tools/mcarun" --benchmarks compress,ora \
    --schedulers native,local --scale 0.05 --max-insts 20000 --jobs 2 \
    --no-cache --telemetry "$TMP/telemetry.jsonl" --no-table \
    --quiet >/dev/null 2>&1
python3 scripts/check_telemetry.py "$TMP/telemetry.jsonl" \
    --expect-total 4

# End-to-end benchmark smoke: one untimed trial of every workload in
# BENCHMARK.json; fails unless each reproduces its pinned seed-42
# digest, so simulated results stay bit-identical (bench/e2e/README.md).
# Host speed is not judged here: scripts/perf_gate.py compares a parent
# and a change measured in one session (docs/profiling.md, "Measuring a
# change"), because the host drifts more than the bounds between runs.
python3 bench/e2e/run.py --check
