#!/usr/bin/env bash
# Builds the benchmark driver and the `cdbtuned` daemon, optimized, into
# $CARGO_TARGET_DIR/benchmark (default target/benchmark), and prints the
# build mode on stdout.
#
#   cargo  - `cargo build --release --offline`, when the registry resolves
#   stubs  - plain `rustc -C opt-level=3` against vendor-stubs/ (read-only),
#            the way scripts/local_verify.sh builds the workspace
#
# The two modes link different `rand` streams and a different serde, so
# results are only comparable within one mode: the mode is stamped into
# $OUT/build_mode and into every result the driver writes.
#
#   build.sh          build if any source is newer than the binaries
#   build.sh --test   also compile and run the helpers' unit tests
set -euo pipefail
cd "$(dirname "$0")/.."

TDIR="${CARGO_TARGET_DIR:-target}"
OUT="$TDIR/benchmark"
RUN_TESTS=0
[ "${1:-}" = "--test" ] && RUN_TESTS=1

if [ ! -f crates/core/src/lib.rs ] || [ ! -f crates/service/src/bin/cdbtuned.rs ]; then
    echo "benchmark/build.sh: the workspace crates are not in $(pwd)" >&2
    exit 3
fi

stale() {
    [ -x "$OUT/driver" ] && [ -x "$OUT/cdbtuned" ] && [ -f "$OUT/build_mode" ] || return 0
    [ -n "$(find crates vendor-stubs benchmark Cargo.toml -newer "$OUT/driver" \
        \( -name '*.rs' -o -name '*.toml' -o -name 'build.sh' \) -print -quit)" ]
}

build_cargo() {
    cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$TDIR"
    cargo build --release --offline -p service --bin cdbtuned --target-dir "$TDIR"
    cp "$TDIR/release/cdbtune-benchmark" "$OUT/driver"
    cp "$TDIR/release/cdbtuned" "$OUT/cdbtuned"
}

test_cargo() {
    cargo test --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$TDIR"
}

# The stub build: where things go and how the driver is compiled.
S="$OUT/stubs" L="$OUT/lib"
# The workspace's own warnings belong to scripts/local_verify.sh; only the
# driver's are shown here.
DRIVER_RUSTC=(rustc --edition=2021 -C opt-level=3)
RUSTC=("${DRIVER_RUSTC[@]}" --cap-lints allow)
EXT=(--extern rand="$S/librand.rlib" --extern rand_distr="$S/librand_distr.rlib"
    --extern serde="$S/libserde.rlib" --extern serde_json="$S/libserde_json.rlib"
    --extern crossbeam="$S/libcrossbeam.rlib")
ALL=(--extern simdb="$L/libsimdb.rlib" --extern workload="$L/libworkload.rlib"
    --extern rl="$L/librl.rlib" --extern tinynn="$L/libtinynn.rlib"
    --extern cdbtune="$L/libcdbtune.rlib" --extern service="$L/libservice.rlib")

# lib <crate-name> <path> <workspace deps...>
lib() {
    local name="$1" path="$2" deps=()
    shift 2
    for d in "$@"; do deps+=(--extern "$d=$L/lib$d.rlib"); done
    "${RUSTC[@]}" --crate-type rlib --crate-name "$name" "$path" \
        -L "$S" -L "$L" "${EXT[@]}" "${deps[@]+"${deps[@]}"}" --out-dir "$L"
}

build_stubs() {
    mkdir -p "$S" "$L"
    rustc --edition=2021 --cap-lints allow --crate-type proc-macro --crate-name serde_derive \
        vendor-stubs/serde_derive.rs --out-dir "$S"
    "${RUSTC[@]}" --crate-type rlib --crate-name rand vendor-stubs/rand.rs --out-dir "$S"
    "${RUSTC[@]}" --crate-type rlib --crate-name rand_distr vendor-stubs/rand_distr.rs \
        -L "$S" --extern rand="$S/librand.rlib" --out-dir "$S"
    "${RUSTC[@]}" --crate-type rlib --crate-name crossbeam vendor-stubs/crossbeam.rs --out-dir "$S"
    "${RUSTC[@]}" --crate-type rlib --crate-name serde vendor-stubs/serde.rs \
        -L "$S" --extern serde_derive --out-dir "$S"
    "${RUSTC[@]}" --crate-type rlib --crate-name serde_json vendor-stubs/serde_json.rs \
        -L "$S" --extern serde="$S/libserde.rlib" --out-dir "$S"
    # Independent crates build side by side (the box has few cores).
    lib tinynn crates/tinynn/src/lib.rs &
    local p1=$!
    lib simdb crates/simdb/src/lib.rs &
    local p2=$!
    wait "$p1"
    lib rl crates/rl/src/lib.rs tinynn &
    p1=$!
    wait "$p2"
    lib workload crates/workload/src/lib.rs simdb &
    p2=$!
    wait "$p1"
    wait "$p2"
    lib cdbtune crates/core/src/lib.rs simdb workload rl tinynn
    lib service crates/service/src/lib.rs simdb workload rl tinynn cdbtune
    "${RUSTC[@]}" --crate-name cdbtuned crates/service/src/bin/cdbtuned.rs \
        -L "$S" -L "$L" "${EXT[@]}" "${ALL[@]}" -o "$OUT/cdbtuned" &
    p1=$!
    "${DRIVER_RUSTC[@]}" --crate-name driver benchmark/src/main.rs \
        -L "$S" -L "$L" "${EXT[@]}" "${ALL[@]}" -o "$OUT/driver.new"
    wait "$p1"
    mv "$OUT/driver.new" "$OUT/driver"
}

test_stubs() {
    "${DRIVER_RUSTC[@]}" --test --crate-name driver_tests benchmark/src/main.rs \
        -L "$S" -L "$L" "${EXT[@]}" "${ALL[@]}" -o "$OUT/driver_tests"
    "$OUT/driver_tests" --test-threads "$(nproc)"
}

if stale; then
    mkdir -p "$OUT"
    rm -f "$OUT/build_mode"
    if cargo metadata --offline --format-version 1 --manifest-path benchmark/Cargo.toml \
        >/dev/null 2>&1; then
        mode=cargo
    else
        mode=stubs
    fi
    "build_$mode" >&2
    echo "$mode" >"$OUT/build_mode"
fi
if [ "$RUN_TESTS" = 1 ]; then
    "test_$(cat "$OUT/build_mode")" >&2
fi
cat "$OUT/build_mode"
