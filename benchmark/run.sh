#!/usr/bin/env bash
# The tuning-request benchmark. One command builds, runs, checks outputs and
# prints every metric by name with its unit.
#
#   run.sh [--seed N]              the suite: every workload untraced, then
#                                  traced; prints all metrics (default seed 42)
#   run.sh --smoke                 the same with tiny budgets (<= 20 s after
#                                  the build), plus the helpers' unit tests;
#                                  its numbers are not comparable
#   run.sh --repeat 2 [--seed N]   the suite twice, then PASS/FAIL per
#                                  end-to-end metric and workload against its
#                                  bound, and the same-seed digest check
#   run.sh --spread K [--seed N]   K untraced runs per workload at seeds
#                                  N..N+K-1; prints each metric's quartile
#                                  spread against its bound
#   run.sh --compare A B           judge two earlier suite directories
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                                  one run; the last line of stdout is the
#                                  result object BENCHMARK.json's judge reads
#
# Results, traces and binaries live in $CARGO_TARGET_DIR/benchmark (default
# target/benchmark); nothing outside the checkout is read or written.
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${CARGO_TARGET_DIR:-target}/benchmark"

SEED=42 SECONDS_ARG="" REPEAT=1 SPREAD=0 SMOKE=0 WORKLOAD="" TRACE=0 CMP_A="" CMP_B=""
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) SEED="$2"; shift 2 ;;
        --seconds) SECONDS_ARG="$2"; shift 2 ;;
        --repeat) REPEAT="$2"; shift 2 ;;
        --spread) SPREAD="$2"; shift 2 ;;
        --workload) WORKLOAD="$2"; shift 2 ;;
        --trace) TRACE="$2"; shift 2 ;;
        --compare) CMP_A="$2"; CMP_B="$3"; shift 3 ;;
        --smoke) SMOKE=1; shift ;;
        *) echo "run.sh: unknown argument '$1' (see the header of $0)" >&2; exit 2 ;;
    esac
done

if [ "$SMOKE" = 1 ]; then
    MODE=$(benchmark/build.sh --test)
else
    MODE=$(benchmark/build.sh)
fi
DRIVER="$OUT/driver"
[ "$SMOKE" = 1 ] && [ -z "$SECONDS_ARG" ] && SECONDS_ARG=0.3
SECS=()
[ -n "$SECONDS_ARG" ] && SECS=(--seconds "$SECONDS_ARG")

if [ -n "$WORKLOAD" ]; then
    exec "$DRIVER" --workload "$WORKLOAD" --seed "$SEED" --trace "$TRACE" "${SECS[@]+"${SECS[@]}"}" \
        --out-dir "$OUT" --build-mode "$MODE"
fi
if [ -n "$CMP_A" ]; then
    exec "$DRIVER" --compare "$CMP_A,$CMP_B"
fi

WORKLOADS=(train_paper train_envheavy tune_online daemon_sessions)

# suite <dir> <seed> <traces...>: one run per workload and trace mode.
suite() {
    local dir="$1" seed="$2"
    shift 2
    mkdir -p "$dir"
    for w in "${WORKLOADS[@]}"; do
        for t in "$@"; do
            echo "run.sh: $w seed $seed trace $t" >&2
            "$DRIVER" --workload "$w" --seed "$seed" --trace "$t" "${SECS[@]+"${SECS[@]}"}" \
                --smoke "$SMOKE" --out-dir "$dir" --build-mode "$MODE" >"$dir/last-line.json"
        done
    done
}

if [ "$SPREAD" -gt 0 ]; then
    dirs=()
    for k in $(seq 0 $((SPREAD - 1))); do
        suite "$OUT/spread-$k" $((SEED + k)) 0
        dirs+=("$OUT/spread-$k")
    done
    (IFS=,; exec "$DRIVER" --spread "${dirs[*]}")
    exit
fi

for r in $(seq 1 "$REPEAT"); do
    suite "$OUT/suite-$r" "$SEED" 0 1
    "$DRIVER" --report "$OUT/suite-$r"
done
if [ "$REPEAT" -ge 2 ]; then
    "$DRIVER" --compare "$OUT/suite-1,$OUT/suite-2"
fi
