#!/usr/bin/env bash
# Builds the release server and the benchmark from this checkout, then
# runs the benchmark with the arguments given, e.g.
#   bash perfbench/run.sh --workload hits-open --seed 1 --seconds 10 --trace 0
# Run it from the root of the repository.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin maxmin-lp >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/maxmin-lp" \
    --work-dir .bench_work "$@"
