#!/usr/bin/env bash
# Build the benchmark, run its unit tests, then smoke all four workloads
# (1/10 scale, 3 s steady, untraced and traced): each run must exit 0,
# which means every body passed the serving rules, leader, follower,
# oracle and recovered server agreed at quiesce, and no operation failed.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-taxbench/target}"

cargo build --release --offline --manifest-path taxbench/Cargo.toml
cargo test --release --offline --quiet --manifest-path taxbench/Cargo.toml

bin="$CARGO_TARGET_DIR/release/taxbench"
start=$SECONDS
for workload in catalog_read catalog_churn users_tiered batch_cascade; do
    for trace in 0 1; do
        result=$("$bin" --workload "$workload" --seed 1 --trace "$trace" --smoke 2>/dev/null | tail -n 1) || true
        if ! grep -Eq '^\{"correct":true,"attempted":[1-9][0-9]*,"failed":0,"metrics":\{' <<<"$result"; then
            echo "taxbench smoke: $workload trace $trace: $result" >&2
            exit 1
        fi
        echo "taxbench smoke: $workload trace $trace ok"
    done
done
echo "taxbench smoke: all workloads ok in $((SECONDS - start)) s"
