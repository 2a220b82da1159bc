#!/usr/bin/env bash
# Offline verification: build the whole workspace and run unit tests WITHOUT
# cargo or the network, by compiling each crate directly with rustc against
# the vendor-stubs/ shims (see vendor-stubs/README.md for fidelity limits).
#
# This is a best-effort harness for registry-less containers; the
# authoritative gate remains scripts/tier1.sh in a networked checkout.
# Tests exercising JSON persistence are skipped (the serde stub cannot
# serialize); everything else runs for real.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=target/stub-verify
mkdir -p "$OUT"
EDITION=--edition=2021

echo "== stubs =="
rustc $EDITION --crate-type proc-macro --crate-name serde_derive \
    vendor-stubs/serde_derive.rs --out-dir "$OUT"
rustc $EDITION --crate-type rlib --crate-name rand vendor-stubs/rand.rs --out-dir "$OUT"
rustc $EDITION --crate-type rlib --crate-name rand_distr vendor-stubs/rand_distr.rs \
    -L "$OUT" --extern rand="$OUT/librand.rlib" --out-dir "$OUT"
rustc $EDITION --crate-type rlib --crate-name serde vendor-stubs/serde.rs \
    -L "$OUT" --extern serde_derive --out-dir "$OUT"
rustc $EDITION --crate-type rlib --crate-name serde_json vendor-stubs/serde_json.rs \
    -L "$OUT" --extern serde="$OUT/libserde.rlib" --out-dir "$OUT"

# build <crate-name> <lib path> [--extern flags...]
build() {
    local name="$1" path="$2"
    shift 2
    echo "== build $name =="
    rustc $EDITION --crate-type rlib --crate-name "$name" "$path" \
        -L "$OUT" "$@" --out-dir "$OUT" -Adead_code
}

# test <crate-name> <lib path> <skip-regexes...> [--extern flags...]
run_tests() {
    local name="$1" path="$2" skips="$3"
    shift 3
    echo "== test $name =="
    rustc $EDITION --test --crate-name "${name}_tests" "$path" \
        -L "$OUT" "$@" -o "$OUT/${name}_tests" -Adead_code
    local skip_args=()
    for s in $skips; do skip_args+=(--skip "$s"); done
    "$OUT/${name}_tests" --test-threads "$(nproc)" "${skip_args[@]+"${skip_args[@]}"}"
}

EXT_BASE=(--extern rand="$OUT/librand.rlib" --extern rand_distr="$OUT/librand_distr.rlib"
    --extern serde="$OUT/libserde.rlib" --extern serde_json="$OUT/libserde_json.rlib")

build tinynn crates/tinynn/src/lib.rs "${EXT_BASE[@]}"
build simdb crates/simdb/src/lib.rs "${EXT_BASE[@]}"
build workload crates/workload/src/lib.rs "${EXT_BASE[@]}" --extern simdb="$OUT/libsimdb.rlib"
build rl crates/rl/src/lib.rs "${EXT_BASE[@]}" --extern tinynn="$OUT/libtinynn.rlib"
build cdbtune crates/core/src/lib.rs "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib" --extern workload="$OUT/libworkload.rlib" \
    --extern rl="$OUT/librl.rlib" --extern tinynn="$OUT/libtinynn.rlib"
build baselines crates/baselines/src/lib.rs "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib" --extern workload="$OUT/libworkload.rlib" \
    --extern rl="$OUT/librl.rlib" --extern tinynn="$OUT/libtinynn.rlib" \
    --extern cdbtune="$OUT/libcdbtune.rlib"
build service crates/service/src/lib.rs "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib" --extern workload="$OUT/libworkload.rlib" \
    --extern rl="$OUT/librl.rlib" --extern tinynn="$OUT/libtinynn.rlib" \
    --extern cdbtune="$OUT/libcdbtune.rlib"
build bench crates/bench/src/lib.rs "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib" --extern workload="$OUT/libworkload.rlib" \
    --extern rl="$OUT/librl.rlib" --extern tinynn="$OUT/libtinynn.rlib" \
    --extern cdbtune="$OUT/libcdbtune.rlib" --extern baselines="$OUT/libbaselines.rlib" \
    --extern service="$OUT/libservice.rlib"

echo "== static analysis (tunelint) =="
# The analyzer is deliberately zero-dependency so the lint gate works even
# in this registry-less harness: plain rustc, no stubs, no externs.
build analyzer crates/analyzer/src/lib.rs
run_tests analyzer crates/analyzer/src/lib.rs ""
rustc $EDITION --crate-name tunelint crates/analyzer/src/bin/tunelint.rs \
    -L "$OUT" --extern analyzer="$OUT/libanalyzer.rlib" -o "$OUT/tunelint"
"$OUT/tunelint" --root . --graph-stats

echo "== build cdbtune binary =="
rustc $EDITION --crate-name cdbtune_bin crates/core/src/bin/cdbtune.rs \
    -L "$OUT" "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib" --extern workload="$OUT/libworkload.rlib" \
    --extern rl="$OUT/librl.rlib" --extern tinynn="$OUT/libtinynn.rlib" \
    --extern cdbtune="$OUT/libcdbtune.rlib" -o "$OUT/cdbtune" -Adead_code

echo "== build cdbtuned + svc_load binaries =="
rustc $EDITION --crate-name cdbtuned crates/service/src/bin/cdbtuned.rs \
    -L "$OUT" "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib" --extern workload="$OUT/libworkload.rlib" \
    --extern rl="$OUT/librl.rlib" --extern tinynn="$OUT/libtinynn.rlib" \
    --extern cdbtune="$OUT/libcdbtune.rlib" --extern service="$OUT/libservice.rlib" \
    -o "$OUT/cdbtuned" -Adead_code
rustc $EDITION --crate-name svc_load crates/bench/src/bin/svc_load.rs \
    -L "$OUT" "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib" --extern workload="$OUT/libworkload.rlib" \
    --extern rl="$OUT/librl.rlib" --extern tinynn="$OUT/libtinynn.rlib" \
    --extern cdbtune="$OUT/libcdbtune.rlib" --extern baselines="$OUT/libbaselines.rlib" \
    --extern service="$OUT/libservice.rlib" --extern bench="$OUT/libbench.rlib" \
    -o "$OUT/svc_load" -Adead_code

# Skips: anything whose runtime path needs real serde/serde_json
# (model/checkpoint persistence), per vendor-stubs/README.md — plus tests
# whose numeric assertions are calibrated to the real rand streams.
run_tests tinynn crates/tinynn/src/lib.rs "serde serialize json save load" "${EXT_BASE[@]}"
run_tests simdb crates/simdb/src/lib.rs "serde json" "${EXT_BASE[@]}"
run_tests workload crates/workload/src/lib.rs "serde json spec trace_round" "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib"
run_tests rl crates/rl/src/lib.rs "serde json save export snapshot" "${EXT_BASE[@]}" \
    --extern tinynn="$OUT/libtinynn.rlib"
run_tests cdbtune crates/core/src/lib.rs \
    "serde json checkpoint export import resume model_round serializes_with_the_model model_is_fine_tuned model_persists" \
    "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib" --extern workload="$OUT/libworkload.rlib" \
    --extern rl="$OUT/librl.rlib" --extern tinynn="$OUT/libtinynn.rlib"
run_tests baselines crates/baselines/src/lib.rs "serde json" "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib" --extern workload="$OUT/libworkload.rlib" \
    --extern rl="$OUT/librl.rlib" --extern tinynn="$OUT/libtinynn.rlib" \
    --extern cdbtune="$OUT/libcdbtune.rlib"
run_tests service crates/service/src/lib.rs "persist" "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib" --extern workload="$OUT/libworkload.rlib" \
    --extern rl="$OUT/librl.rlib" --extern tinynn="$OUT/libtinynn.rlib" \
    --extern cdbtune="$OUT/libcdbtune.rlib"
run_tests bench crates/bench/src/lib.rs "serde json" "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib" --extern workload="$OUT/libworkload.rlib" \
    --extern rl="$OUT/librl.rlib" --extern tinynn="$OUT/libtinynn.rlib" \
    --extern cdbtune="$OUT/libcdbtune.rlib" --extern baselines="$OUT/libbaselines.rlib" \
    --extern service="$OUT/libservice.rlib"

echo "== perf harness (optimized rebuild, ratio gates; DESIGN.md §11) =="
# The perf gate needs optimized code: rebuild the hot-path crates with -O
# into a sibling tree (debug rlibs and stubs link fine across opt levels).
# Only the machine-independent ratio floors are checked here — absolute
# throughputs in BENCH_PERF.json belong to the reference host.
OPT=target/stub-verify-opt
mkdir -p "$OPT"
opt_build() {
    local name="$1" path="$2"
    shift 2
    rustc $EDITION -O --crate-type rlib --crate-name "$name" "$path" \
        -L "$OUT" -L "$OPT" "$@" --out-dir "$OPT" -Adead_code
}
opt_build tinynn crates/tinynn/src/lib.rs "${EXT_BASE[@]}"
opt_build simdb crates/simdb/src/lib.rs "${EXT_BASE[@]}"
opt_build workload crates/workload/src/lib.rs "${EXT_BASE[@]}" \
    --extern simdb="$OPT/libsimdb.rlib"
opt_build rl crates/rl/src/lib.rs "${EXT_BASE[@]}" --extern tinynn="$OPT/libtinynn.rlib"
opt_build cdbtune crates/core/src/lib.rs "${EXT_BASE[@]}" \
    --extern simdb="$OPT/libsimdb.rlib" --extern workload="$OPT/libworkload.rlib" \
    --extern rl="$OPT/librl.rlib" --extern tinynn="$OPT/libtinynn.rlib"
opt_build baselines crates/baselines/src/lib.rs "${EXT_BASE[@]}" \
    --extern simdb="$OPT/libsimdb.rlib" --extern workload="$OPT/libworkload.rlib" \
    --extern rl="$OPT/librl.rlib" --extern tinynn="$OPT/libtinynn.rlib" \
    --extern cdbtune="$OPT/libcdbtune.rlib"
opt_build service crates/service/src/lib.rs "${EXT_BASE[@]}" \
    --extern simdb="$OPT/libsimdb.rlib" --extern workload="$OPT/libworkload.rlib" \
    --extern rl="$OPT/librl.rlib" --extern tinynn="$OPT/libtinynn.rlib" \
    --extern cdbtune="$OPT/libcdbtune.rlib"
opt_build bench crates/bench/src/lib.rs "${EXT_BASE[@]}" \
    --extern simdb="$OPT/libsimdb.rlib" --extern workload="$OPT/libworkload.rlib" \
    --extern rl="$OPT/librl.rlib" --extern tinynn="$OPT/libtinynn.rlib" \
    --extern cdbtune="$OPT/libcdbtune.rlib" --extern baselines="$OPT/libbaselines.rlib" \
    --extern service="$OPT/libservice.rlib"
rustc $EDITION -O --crate-name perf crates/bench/src/bin/perf.rs \
    -L "$OUT" -L "$OPT" "${EXT_BASE[@]}" \
    --extern simdb="$OPT/libsimdb.rlib" --extern workload="$OPT/libworkload.rlib" \
    --extern rl="$OPT/librl.rlib" --extern tinynn="$OPT/libtinynn.rlib" \
    --extern cdbtune="$OPT/libcdbtune.rlib" --extern baselines="$OPT/libbaselines.rlib" \
    --extern service="$OPT/libservice.rlib" --extern bench="$OPT/libbench.rlib" \
    -o "$OPT/perf" -Adead_code
# The perf suite's service leg (svc_10k_* gates) spawns cdbtuned as a
# subprocess so the daemon and the load generator get separate fd tables.
rustc $EDITION -O --crate-name cdbtuned crates/service/src/bin/cdbtuned.rs \
    -L "$OUT" -L "$OPT" "${EXT_BASE[@]}" \
    --extern simdb="$OPT/libsimdb.rlib" --extern workload="$OPT/libworkload.rlib" \
    --extern rl="$OPT/librl.rlib" --extern tinynn="$OPT/libtinynn.rlib" \
    --extern cdbtune="$OPT/libcdbtune.rlib" --extern service="$OPT/libservice.rlib" \
    -o "$OPT/cdbtuned" -Adead_code
export CDBTUNED_BIN="$OPT/cdbtuned"
"$OPT/perf" --quick --check --ratios-only --tolerance 0.6

echo "== zero-allocation steady-state gate =="
rustc $EDITION -O --test --crate-name zero_alloc crates/rl/tests/zero_alloc.rs \
    -L "$OUT" -L "$OPT" "${EXT_BASE[@]}" \
    --extern rl="$OPT/librl.rlib" --extern tinynn="$OPT/libtinynn.rlib" \
    -o "$OPT/zero_alloc" -Adead_code
"$OPT/zero_alloc" --test-threads 1

echo "== zero-allocation steady-state gate (4-wide worker pool) =="
rustc $EDITION -O --test --crate-name zero_alloc_mt crates/rl/tests/zero_alloc_mt.rs \
    -L "$OUT" -L "$OPT" "${EXT_BASE[@]}" \
    --extern rl="$OPT/librl.rlib" --extern tinynn="$OPT/libtinynn.rlib" \
    -o "$OPT/zero_alloc_mt" -Adead_code
"$OPT/zero_alloc_mt" --test-threads 1

echo "== trace schema smoke (binary -> summarizer) =="
rustc $EDITION --crate-name trace_summary crates/bench/src/bin/trace_summary.rs \
    -L "$OUT" "${EXT_BASE[@]}" \
    --extern simdb="$OUT/libsimdb.rlib" --extern workload="$OUT/libworkload.rlib" \
    --extern rl="$OUT/librl.rlib" --extern tinynn="$OUT/libtinynn.rlib" \
    --extern cdbtune="$OUT/libcdbtune.rlib" --extern baselines="$OUT/libbaselines.rlib" \
    --extern service="$OUT/libservice.rlib" \
    --extern bench="$OUT/libbench.rlib" -o "$OUT/trace_summary" -Adead_code
trace_tmp=$(mktemp -d)
# `train` panics at the final model write under the serde stub; the trace
# is written and flushed before that, which is all this smoke needs.
"$OUT/cdbtune" train --out "$trace_tmp/model.json" --episodes 1 --steps 3 \
    --knobs 3 --trace-out "$trace_tmp/run.jsonl" --trace-level debug \
    >/dev/null 2>&1 || true
"$OUT/trace_summary" "$trace_tmp/run.jsonl"
rm -rf "$trace_tmp"

echo "== daemon smoke (guarded sessions, open-loop gate, SIGTERM drain) =="
# Disk registry/checkpoints need real serde, so the offline smoke runs the
# daemon in-memory only: boot on an ephemeral port, run a guarded
# closed-loop pair (--safe exercises the trust region + drift detector end
# to end through the wire; the safety layer is runtime-only, so it works
# under the serde stub) and an open-loop burst (rejection-rate gated), then
# SIGTERM with a session still held and require a clean exit plus a
# balanced service trace.
svc_tmp=$(mktemp -d)
"$OUT/cdbtuned" --addr 127.0.0.1:0 --workers 2 --queue 256 \
    --trace-out "$svc_tmp/daemon.jsonl" --trace-level step \
    >"$svc_tmp/stdout" 2>"$svc_tmp/stderr" &
svc_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^cdbtuned listening on //p' "$svc_tmp/stdout")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "cdbtuned never reported its address"
    cat "$svc_tmp/stderr"
    kill "$svc_pid" 2>/dev/null || true
    exit 1
fi
echo "cdbtuned threads after boot: $(ls /proc/$svc_pid/task | wc -l)"
"$OUT/svc_load" --addr "$addr" --sessions 2 --steps 2 --knobs 4 --scale 0.003 --safe true
"$OUT/svc_load" --addr "$addr" --mode open --sessions 20 --rate 200 --steps 1 \
    --knobs 4 --scale 0.003 --warm-start false --max-reject-rate 0.0
# Hold a session live across the SIGTERM so the drain has work to do.
"$OUT/svc_load" --addr "$addr" --sessions 1 --steps 1 \
    --knobs 4 --scale 0.003 --hold-ms 10000 >/dev/null 2>&1 &
holder_pid=$!
sleep 1.5
kill -TERM "$svc_pid"
wait "$svc_pid" # exit 0 = clean drain
wait "$holder_pid" || true
"$OUT/trace_summary" "$svc_tmp/daemon.jsonl"
# --runtime selects nothing: `events` is accepted and ignored (benchmark/
# passes it), any other value must be refused, not silently booted.
rc=0
"$OUT/cdbtuned" --runtime threads 2>"$svc_tmp/runtime.err" || rc=$?
[ "$rc" -eq 2 ]
grep -q "threads runtime was removed" "$svc_tmp/runtime.err"
# Removed and misspelt flags are refused by name, never silently dropped.
rc=0
"$OUT/cdbtuned" --batch-max 32 2>"$svc_tmp/flag.err" || rc=$?
[ "$rc" -eq 2 ]
grep -q -- "--batch-max" "$svc_tmp/flag.err"
rm -rf "$svc_tmp"

echo "== service e2e (tests/service_e2e.rs) =="
# The suite is in-memory only (no registry or checkpoint directory), so it
# runs for real under the serde shim.
rustc $EDITION --test --crate-name service_e2e tests/service_e2e.rs \
    -L "$OUT" "${EXT_BASE[@]}" \
    --extern workload="$OUT/libworkload.rlib" --extern cdbtune="$OUT/libcdbtune.rlib" \
    --extern service="$OUT/libservice.rlib" --extern bench="$OUT/libbench.rlib" \
    -o "$OUT/service_e2e"
"$OUT/service_e2e" --test-threads "$(nproc)"

echo "== benchmark smoke (the API surface benchmark/ links, compiled and driven) =="
bash benchmark/run.sh --smoke

echo "== local verify OK =="
