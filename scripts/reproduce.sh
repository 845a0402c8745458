#!/bin/sh
# Regenerate everything: build, test, and run every bench program and
# every study, capturing the outputs the repository's EXPERIMENTS.md
# numbers come from.
#
#   scripts/reproduce.sh [build-dir]
#
# Outputs: <build-dir>/../test_output.txt and bench_output.txt next to
# the repository root (the canonical artifact locations).
set -e

BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

# No -G: an existing build directory keeps its generator (ci.sh
# configures one with CMake's default).
cmake -B "$BUILD" -S .
cmake --build "$BUILD"

ctest --test-dir "$BUILD" 2>&1 | tee "$ROOT/test_output.txt"

: > "$ROOT/bench_output.txt"
# The programs bench/CMakeLists.txt builds, not every file under
# <build>/bench/: a build directory configured before a program was
# deleted still holds its stale binary.
for name in $(sed -n 's/^mca_add_bench(\(.*\))$/\1/p' bench/CMakeLists.txt); do
    echo "==================== $name ====================" \
        >> "$ROOT/bench_output.txt"
    "$BUILD/bench/$name" >> "$ROOT/bench_output.txt" 2>&1
    echo >> "$ROOT/bench_output.txt"
done

# Every study mcarun lists (its `--study` usage error names them, as
# scripts/check_studies.py reads them) at EXPERIMENTS.md's size: Table
# 2 at scale 1.0 and 400000 instructions, the memory study at scale 0.1
# and 60000, every other study at scale 0.2 (the default) and 100000.
# Each is sharded across every core with results cached under
# <build>/mcarun-cache (a rerun only simulates changed points); Table
# 2's JSONL lands next to the other artifacts. A study whose gate fails
# stops the script.
MCARUN="$BUILD/src/tools/mcarun"
studies="$("$MCARUN" --study '?' 2>&1 |
    sed -n 's/.*(valid: \([^)]*\)).*/\1/p' | tr '|' ' ')"
[ -n "$studies" ] || { echo "reproduce.sh: mcarun lists no studies"; exit 1; }
for study in $studies; do
    out=
    case "$study" in
    table2) size="--scale 1.0 --max-insts 400000"
        out="$ROOT/table2_results.jsonl" ;;
    memory) size="--scale 0.1 --max-insts 60000" ;;
    *) size="--max-insts 100000" ;;
    esac
    echo "==================== mcarun --study $study ====================" \
        >> "$ROOT/bench_output.txt"
    # $size is split into flags on purpose.
    "$MCARUN" --study "$study" $size ${out:+--out "$out"} \
        --jobs "$(nproc)" --cache "$BUILD/mcarun-cache" --quiet \
        >> "$ROOT/bench_output.txt" 2>&1
    echo >> "$ROOT/bench_output.txt"
done

echo "done: test_output.txt, bench_output.txt, and table2_results.jsonl written"
