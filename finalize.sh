#!/bin/sh
# Runs after the experiment suite: headline rerun at full budget, shape
# verification, and the final test transcript.
set -x
while ps -p $1 > /dev/null 2>&1; do sleep 30; done
./target/release/fig09_table03_comparison >> results/experiments_log.txt 2>&1
./target/release/verify_shapes > results/verify_shapes.txt 2>&1
cargo test --workspace > /root/repo/test_output.txt 2>&1
echo FINALIZE_DONE >> results/experiments_log.txt
