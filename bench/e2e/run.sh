#!/usr/bin/env bash
# Build ppms_e2e from source and run it, from the root of a checkout:
#
#   bash bench/e2e/run.sh --workload <name> --seed <k> --seconds <s> --trace <0|1>
#
# The build tree is $CARGO_TARGET_DIR/e2e (default .bench_build/e2e); the
# binary keeps its journals and span files in a scratch directory inside
# it. Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}/e2e"
jobs=$(nproc 2>/dev/null || echo 2)
jobs=$(( jobs > 4 ? 4 : jobs ))

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" --target ppms_e2e >&2

exec "$build/ppms_e2e" "$@"
