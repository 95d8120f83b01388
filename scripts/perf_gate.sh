#!/usr/bin/env sh
# Performance regression gate for the dense kernel layer and the
# kernel-matrix fill.
#
# Re-runs bench_micro_linalg and compares every rated case (kernel, n)
# against the committed baseline BENCH_linalg.json: GFLOP/s for the dense
# kernels, Mentries/s for the kernel_fill_* rows (the vectorized Green's-
# function loops, which lose several times their rate when the loop stops
# vectorizing, e.g. without kernels.cpp's per-source flags). A case fails
# when its fresh rate drops more than PERF_GATE_TOL (default 35% —
# micro-bench noise on a shared machine is real, a kernel regression is
# much larger) below the committed number. Independently of the relative check, the
# flagship case carries a hard floor: gemm n=256 must sustain at least
# 6.83 GFLOP/s (2x the pre-blocking 3.41 baseline), so the tuned kernels
# can never silently fall back to naive-era rates even if someone commits
# a slower baseline file.
#
#   scripts/perf_gate.sh [build-dir]      (default: build)
#
# Env knobs: PERF_GATE_TOL (fractional drop allowed, default 0.35),
#            PERF_GATE_MIN_TIME (seconds per case, default 0.2).
set -eu

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
BENCH="$BUILD/bench/bench_micro_linalg"
BASELINE="BENCH_linalg.json"

if [ ! -x "$BENCH" ]; then
  echo "perf_gate: $BENCH not built (cmake --build $BUILD --target bench_micro_linalg)" >&2
  exit 2
fi
if [ ! -f "$BASELINE" ]; then
  echo "perf_gate: no committed baseline $BASELINE" >&2
  exit 2
fi

FRESH="$(mktemp /tmp/hatrix_perf_gate.XXXXXX.json)"
trap 'rm -f "$FRESH"' EXIT INT TERM

"$BENCH" --min-time "${PERF_GATE_MIN_TIME:-0.2}" --json "$FRESH" > /dev/null

PERF_GATE_TOL="${PERF_GATE_TOL:-0.35}" python3 - "$FRESH" "$BASELINE" <<'PYEOF'
import json, os, sys

fresh_path, base_path = sys.argv[1], sys.argv[2]
tol = float(os.environ["PERF_GATE_TOL"])

def load(path):
    """(kernel, n) -> (rate, unit) for every row that carries a rate."""
    with open(path) as f:
        rows = json.load(f)["rows"]
    rated = {}
    for r in rows:
        if r.get("gflops", 0) > 0:
            rated[(r["kernel"], r["n"])] = (r["gflops"], "GFLOP/s")
        elif r.get("mentries_per_s", 0) > 0:
            rated[(r["kernel"], r["n"])] = (r["mentries_per_s"], "Mentries/s")
    return rated

fresh, base = load(fresh_path), load(base_path)

# Hard floor, independent of the baseline file's contents.
FLOORS = {("gemm", 256): 6.83}

failures = []
print(f"{'kernel':<20} {'n':>5} {'baseline':>9} {'fresh':>9} {'ratio':>6}  unit")
for key in sorted(base):
    if key not in fresh:
        failures.append(f"{key[0]} n={key[1]}: case missing from fresh run")
        continue
    (want, unit), got = base[key], fresh[key][0]
    ratio = got / want
    flag = ""
    if ratio < 1.0 - tol:
        failures.append(
            f"{key[0]} n={key[1]}: {got:.2f} {unit} is "
            f"{100 * (1 - ratio):.0f}% below baseline {want:.2f}")
        flag = "  <-- REGRESSION"
    print(f"{key[0]:<20} {key[1]:>5} {want:>9.2f} {got:>9.2f} {ratio:>6.2f}  {unit}{flag}")

for key, floor in FLOORS.items():
    got = fresh.get(key, (0.0, ""))[0]
    if got < floor:
        failures.append(f"{key[0]} n={key[1]}: {got:.2f} GFLOP/s under hard floor {floor}")

if failures:
    print("\nperf_gate FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print(f"\nperf_gate OK (tolerance {100 * tol:.0f}%, floor gemm n=256 >= 6.83 GFLOP/s)")
PYEOF
