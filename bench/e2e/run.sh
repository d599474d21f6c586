#!/usr/bin/env bash
# The end-to-end serving benchmark: builds its own Release tree in
# build-bench/, then runs bench/e2e/e2e_bench against a real deployment
# (2 x edgetherm_serve --workers 1 behind edgetherm_gateway).
#
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bench/e2e/run.sh [--workload NAME] --repeat N [...]   # N seeds + spread
#                                     (summary also in build-bench/e2e-spread.txt)
#   bench/e2e/run.sh --smoke                              # 1/20 scale check
#
# Without --workload, --repeat and --smoke cover all four workloads. One
# plain run prints `workload metric value unit` lines and, last, one JSON
# object; every run also leaves a JSON file in build-bench/e2e-runs/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"
runs="$build/e2e-runs"
workloads=(cold_interactive sweep_batched long_horizon warm_hits)

workload=""
seed=1
seconds=""
trace=0
repeat=0
smoke=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --repeat) repeat="$2"; shift 2 ;;
        --smoke) smoke=1; shift ;;
        -h|--help) sed -n '2,13p' "$0"; exit 0 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if [ -z "$seconds" ]; then
    seconds="$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
fi

# ---- Build (incremental after the first run) ----
# Everything, compiler temporaries included, stays inside the checkout.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
log="$build/e2e-build.log"
jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -gt 4 ] && jobs=4
if [ ! -f "$build/Makefile" ]; then
    if ! cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release \
            >"$log" 2>&1; then
        tail -n 30 "$log" >&2
        echo "run.sh: configure failed (log: $log)" >&2
        exit 1
    fi
fi
if ! cmake --build "$build" --target e2e_bench -j "$jobs" >>"$log" 2>&1; then
    tail -n 30 "$log" >&2
    echo "run.sh: build failed (log: $log)" >&2
    exit 1
fi
bench="$build/e2e_bench"

one_run() { # workload seed trace [extra args...]
    local w="$1" s="$2" t="$3"
    shift 3
    "$bench" --workload "$w" --seed "$s" --seconds "$seconds" --trace "$t" \
        --out "$runs" "$@"
}

if [ "$smoke" = 1 ]; then
    # 1/20 scale in trace mode (which also computes the end-to-end
    # metrics into the run file), then every emitted name against
    # BENCHMARK.json.
    list=("${workloads[@]}")
    [ -n "$workload" ] && list=("$workload")
    out="$build/e2e-smoke.txt"
    : >"$out"
    for w in "${list[@]}"; do
        result="$(one_run "$w" "$seed" 1 --scale 0.05 || true)"
        echo "t=1 $(tail -n 1 <<<"$result")" >>"$out"
        file="$(grep '^run file: ' <<<"$result" || true)"
        [ -z "$file" ] || echo "file ${file#run file: }" >>"$out"
    done
    exec python3 "$here/compare.py" --benchmark "$root/BENCHMARK.json" \
        names "$out"
fi

if [ "$repeat" -gt 0 ]; then
    list=("${workloads[@]}")
    [ -n "$workload" ] && list=("$workload")
    files=()
    for w in "${list[@]}"; do
        for ((r = 0; r < repeat; r++)); do
            s=$((seed + r))
            line="$(one_run "$w" "$s" "$trace" | grep '^run file: ' || true)"
            [ -n "$line" ] || { echo "run.sh: $w seed $s failed" >&2; exit 1; }
            files+=("${line#run file: }")
        done
    done
    python3 "$here/compare.py" --benchmark "$root/BENCHMARK.json" \
        spread "${files[@]}" | tee "$build/e2e-spread.txt"
    exit "${PIPESTATUS[0]}"
fi

[ -n "$workload" ] || { echo "run.sh: --workload is required" >&2; exit 2; }
exec "$bench" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --out "$runs"
