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

# Keep the committed benches aside before regenerating them below; the
# perf gate at the end compares fresh vs previous throughput.
PREV_BENCH="$(mktemp -d /tmp/mca_prev_bench.XXXXXX)"
for f in BENCH_core.json BENCH_compile.json BENCH_mem.json \
         BENCH_sample.json BENCH_partition.json; do
    [ -f "$f" ] && cp "$f" "$PREV_BENCH/$f"
done

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j
cd "$BUILD"
ctest --output-on-failure -j

# Sanitizer job: the full test suite again under ASan+UBSan (separate
# build tree; every finding is fatal via -fno-sanitize-recover=all).
cd "$ROOT"
cmake -B "$BUILD-asan" -S . -DMCA_SANITIZE=ON
cmake --build "$BUILD-asan" -j
cd "$BUILD-asan"
ctest --output-on-failure -j
cd "$ROOT"

# ThreadSanitizer job: the concurrent subsystems — task-graph executor,
# campaign runner, sampled driver — under TSan (separate build tree;
# only the affected test binaries are built and run, the rest of the
# suite is single-threaded and covered by the ASan job above).
cmake -B "$BUILD-tsan" -S . -DMCA_SANITIZE=thread
cmake --build "$BUILD-tsan" -j \
    --target taskgraph_test runner_test sample_test
"$BUILD-tsan/tests/taskgraph_test"
"$BUILD-tsan/tests/runner_test"
"$BUILD-tsan/tests/sample_test"

cd "$BUILD"

# Observability smoke: cycle stacks conserve and the Perfetto trace is
# loadable (scripts/check_trace.py validates both).
cd "$ROOT"
SIM="$BUILD/src/tools/mcasim"
"$SIM" --benchmark ora --max-insts 5000 --cycle-stacks --quiet \
    --trace-out /tmp/mca_ci_trace.json >/dev/null
"$SIM" --benchmark ora --max-insts 5000 --cycle-stacks --quiet --json \
    >/tmp/mca_ci_stats.json 2>/dev/null
python3 scripts/check_trace.py /tmp/mca_ci_trace.json \
    /tmp/mca_ci_stats.json

# Paranoid smoke: replay ora with every-cycle invariant checking of the
# rename maps, free lists, transfer-buffer bookkeeping, and the
# scheduler's oldest-unissued cursor, in both scheduler modes.
"$SIM" --benchmark ora --max-insts 5000 --paranoid --quiet >/dev/null
"$SIM" --benchmark ora --max-insts 5000 --paranoid --no-idle-skip \
    --quiet >/dev/null

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
"$SIM" --list-passes >/dev/null
"$SIM" --benchmark ora --max-insts 5000 --dump-after regalloc --quiet \
    >/dev/null

# Compile-cache invariant: the Table-2 campaign compiles each distinct
# (workload, compile-config) pair exactly once — 12 compiles for 18
# jobs, 6 shared.
SUMMARY="$("$BUILD/src/tools/mcarun" --table2 --scale 0.05 \
    --max-insts 20000 --jobs 4 --no-cache --quiet 2>&1 >/dev/null)"
echo "$SUMMARY" | grep -q "compiles: 12 (6 shared)" || {
    echo "ci.sh: compile-cache expected 'compiles: 12 (6 shared)', got:"
    echo "$SUMMARY"
    exit 1
}

# Simulator-throughput benchmark: cycle-kernel throughput with and
# without the idle skips, recorded at the repo root for regression
# tracking (see EXPERIMENTS.md).
"$BUILD/bench/micro_perf" --json-out "$ROOT/BENCH_core.json"

# Compile-cache benchmark: Table-2 campaign wall clock with vs without
# compile sharing; fails if the cache does more than one compile per
# distinct config or perturbs any job result (see EXPERIMENTS.md).
"$BUILD/bench/campaign_compile" --json-out "$ROOT/BENCH_compile.json"

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

# Partition-quality benchmark: the cluster-count x partitioner sweep;
# fails unless the multilevel partitioner cuts no more affinity weight
# than round-robin on every workload and matches or beats the local
# scheduler's geomean IPC at 4 and 8 clusters (see EXPERIMENTS.md).
"$BUILD/bench/ablation_clusters" --jobs 4 \
    --json-out "$ROOT/BENCH_partition.json"

# Memory-hierarchy sensitivity smoke: the L2 x memory-latency grid over
# compress + su2cor; fails on a cycle-stack conservation violation, a
# dcache_l2 attribution without an L2, or a non-deterministic
# paper-mode corner (see docs/memory.md and EXPERIMENTS.md).
"$BUILD/bench/sensitivity_memory" --json-out "$ROOT/BENCH_mem.json"

# Hierarchy-flag smoke: an L2-equipped machine with finite fill ports
# runs end to end with conserved cycle stacks.
"$SIM" --benchmark compress --max-insts 5000 --l2-kb 256 --mem-lat 32 \
    --fill-ports 1 --cycle-stacks --quiet >/dev/null

# Checkpoint/restore smoke: a run resumed from a mid-run snapshot
# (--ckpt-out/--ckpt-at and --ckpt-every alike) must finish with stats
# bit-identical to an uninterrupted run (docs/sampling.md).
python3 scripts/check_ckpt.py "$SIM"

# Sampled-simulation smoke: the mcasim --sample path and the mcarun
# samplePeriods axis both run end to end.
"$SIM" --benchmark gcc1 --scale 1 \
    --sample "systematic:period=20000,detail=4000,warmup=1000" \
    --quiet >/dev/null
"$BUILD/src/tools/mcarun" --benchmarks compress \
    --sample-periods 0,20000 --scale 0.5 --max-insts 60000 \
    --no-cache --quiet >/dev/null

# Sampled-simulation benchmark: full detailed run vs SMARTS-style
# sampled estimate; fails unless one benchmark reaches a 7x per-core
# effective speedup with <= 2% CPI error (see EXPERIMENTS.md).
"$BUILD/bench/sampled_speedup" --json-out "$ROOT/BENCH_sample.json"

# Host-profiler smoke (docs/profiling.md): a profiled gcc1 run must
# attribute >= 90% of its wall clock to regions, the report must
# render, and the diff mode must accept two real profiles. The sampled
# variant exercises the per-window Perfetto tracks and the
# multi-threaded profile merge.
"$SIM" --benchmark gcc1 --prof --prof-out /tmp/mca_ci_prof1.json \
    --quiet >/dev/null
python3 scripts/prof_report.py /tmp/mca_ci_prof1.json \
    --min-coverage 0.9 >/dev/null
"$SIM" --benchmark gcc1 --prof --prof-out /tmp/mca_ci_prof2.json \
    --sample "systematic:period=20000,detail=4000,warmup=1000,jobs=2" \
    --trace-out /tmp/mca_ci_prof_trace.json --quiet >/dev/null
python3 scripts/prof_report.py /tmp/mca_ci_prof2.json >/dev/null
python3 scripts/prof_report.py --diff /tmp/mca_ci_prof1.json \
    /tmp/mca_ci_prof2.json >/dev/null

# Campaign-telemetry smoke: the JSONL heartbeat must parse, count
# done = 1..total monotonically, and close with a consistent summary.
"$BUILD/src/tools/mcarun" --benchmarks compress,ora \
    --schedulers native,local --scale 0.05 --max-insts 20000 --jobs 2 \
    --no-cache --telemetry /tmp/mca_ci_telemetry.jsonl --no-table \
    --quiet >/dev/null 2>&1
python3 scripts/check_telemetry.py /tmp/mca_ci_telemetry.jsonl \
    --expect-total 4

# End-to-end benchmark smoke: one untimed trial of every workload in
# BENCHMARK.json; fails unless each reproduces its pinned seed-42
# digest, so simulated results stay bit-identical (bench/e2e/README.md).
python3 bench/e2e/run.py --check

# Throughput-regression gate: the fresh benches above vs the copies
# saved before regeneration.
python3 scripts/perf_gate.py "$PREV_BENCH" "$ROOT"
rm -rf "$PREV_BENCH"
