#!/usr/bin/env sh
# Mirrors the tier-1 verification line locally.
#   scripts/check.sh        -> configure, build, run ALL test suites, the
#                              executor sweep, the perf gate and the
#                              bench_e2e smoke test, then the concurrency
#                              suite under ThreadSanitizer, and print the
#                              src/ line count
#   scripts/check.sh fast   -> same, but only suites labeled `fast` (< 60 s)
#                              and no TSan pass
# Both modes first grep src/ bench/ examples/ tests/ for the names of the
# deleted FP32 storage layer.
set -eu

cd "$(dirname "$0")/.."

LABEL_ARGS=""
FULL=1
if [ "${1:-}" = "fast" ]; then
  LABEL_ARGS="-L fast"
  FULL=0
fi

# The HSS operator has one storage precision (FP64). Fail if the deleted
# FP32 low-rank storage layer (the MixedFP32 mode, the F64Block read guard,
# Matrix's FP32 buffer) grows back under any of its names.
if grep -rnE 'PrecisionMode|MixedFP32|F64Block|demote_storage|f64_copy|data32_|demote_lowrank' \
    src bench examples tests; then
  echo "check.sh: FP32 low-rank storage names found (listed above)" >&2
  exit 1
fi

cmake -B build -S .
cmake --build build -j "$(nproc 2>/dev/null || echo 4)"
# Full mode runs everything with the race verifier and the dataflow analyzer
# forced on, so a DAG whose edges or declared accesses drift from its task
# bodies fails here even in an NDEBUG build where the debug-default gates
# would leave both off.
if [ "$FULL" = "1" ]; then
  HATRIX_VERIFY_DAG=1
  HATRIX_ANALYZE_DAG=1
  export HATRIX_VERIFY_DAG HATRIX_ANALYZE_DAG
fi
# shellcheck disable=SC2086  # LABEL_ARGS is intentionally word-split
ctest --test-dir build --output-on-failure -j "$(nproc 2>/dev/null || echo 4)" $LABEL_ARGS

# Full mode: rebuild the concurrency suites with ThreadSanitizer via the
# HATRIX_SANITIZE option (cmake/Sanitizers.cmake) and run them. Passing
# -fsanitize=thread through CMAKE_CXX_FLAGS, as this script used to, silently
# replaced the build type's optimization and debug-info flags; the dedicated
# option composes with them instead. The factored-operator immutability
# contract (docs/ARCHITECTURE.md) is only as good as this check.
if [ "$FULL" = "1" ]; then
  # Quick executor sweep: run the real ULV DAG through fork-join, FIFO and
  # priority (Ablation D of bench_ablation_runtime) with the DAG verifier on
  # (exported above), so a scheduling regression that slips past the unit
  # suites still fails the check line.
  ./build/bench/bench_ablation_runtime --skip-sim \
    --measured-n 1024 --workers 2 --reps 1 --mem-n 1024 \
    --json /tmp/hatrix_check_bench_runtime.json

  # Kernel-layer perf regression gate: fresh micro-bench rates vs the
  # committed BENCH_linalg.json baseline (hard floor on gemm n=256).
  ./scripts/perf_gate.sh build

  # The end-to-end benchmark is its own CMake package (e2ebench/), which no
  # other target builds. Build it here, in the directory e2ebench/run.py
  # uses, and run its smoke test, so an API change under src/ that breaks
  # bench_e2e fails this line instead of a later benchmark run.
  cmake -S e2ebench -B .bench_build -DCMAKE_BUILD_TYPE=Release
  cmake --build .bench_build -j "$(nproc 2>/dev/null || echo 4)" --target bench_e2e
  ctest --test-dir .bench_build --output-on-failure -L slow

  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHATRIX_SANITIZE=thread \
    -DHATRIX_BUILD_BENCH=OFF -DHATRIX_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$(nproc 2>/dev/null || echo 4)" \
    --target concurrency_tests
  ctest --test-dir build-tsan --output-on-failure -L concurrency \
    -j "$(nproc 2>/dev/null || echo 4)"

  # The src/ size the ROADMAP tracks, counted one way: every file under src/.
  echo "src/ lines: $(find src -type f | xargs wc -l | tail -n 1 | awk '{print $1}')"
fi
