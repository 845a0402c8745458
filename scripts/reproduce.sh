#!/bin/sh
# Regenerate everything: build, test, and run every bench, capturing
# the outputs the repository's EXPERIMENTS.md numbers come from.
#
#   scripts/reproduce.sh [build-dir]
#
# Outputs: <build-dir>/../test_output.txt and bench_output.txt next to
# the repository root (the canonical artifact locations).
set -e

BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"

ctest --test-dir "$BUILD" 2>&1 | tee "$ROOT/test_output.txt"

: > "$ROOT/bench_output.txt"
for b in "$BUILD"/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo "==================== $(basename "$b") ====================" \
        >> "$ROOT/bench_output.txt"
    "$b" >> "$ROOT/bench_output.txt" 2>&1
    echo >> "$ROOT/bench_output.txt"
done

# The Table-2 campaign through the parallel runner: sharded across
# every core, results cached under <build>/mcarun-cache (a rerun only
# simulates changed points), JSONL next to the other artifacts.
echo "==================== mcarun --study table2 ====================" \
    >> "$ROOT/bench_output.txt"
"$BUILD"/src/tools/mcarun --study table2 --scale 1.0 --max-insts 400000 \
    --jobs "$(nproc)" --cache "$BUILD/mcarun-cache" \
    --out "$ROOT/table2_results.jsonl" --quiet \
    >> "$ROOT/bench_output.txt" 2>&1
echo >> "$ROOT/bench_output.txt"

# The ablation and extension studies at EXPERIMENTS.md's size (scale
# 0.2, the default, and 100000 instructions).
for study in threshold buffers queues mshr predictor unroll \
    compress_anomaly; do
    echo "==================== mcarun --study $study ====================" \
        >> "$ROOT/bench_output.txt"
    "$BUILD"/src/tools/mcarun --study "$study" --max-insts 100000 \
        --jobs "$(nproc)" --cache "$BUILD/mcarun-cache" --quiet \
        >> "$ROOT/bench_output.txt" 2>&1
    echo >> "$ROOT/bench_output.txt"
done

echo "done: test_output.txt, bench_output.txt, and table2_results.jsonl written"
