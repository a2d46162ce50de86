#!/usr/bin/env bash
# Builds `sld` and the load generator from this checkout, then runs one
# benchmark workload:
#
#   bash sldbench/run.sh --workload query-mix --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p sl-service --bin sld >&2
cargo build --release --offline --quiet --manifest-path sldbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/sldbench" --sld "$CARGO_TARGET_DIR/release/sld" "$@"
