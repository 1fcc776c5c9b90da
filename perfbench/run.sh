#!/usr/bin/env bash
# Builds the system under test (sdvbs-runner, sdvbs-serve) and the
# benchmark harness from this checkout, then runs the harness:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); build logs go to stderr, results to stdout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/serve" || ! -f "$root/perfbench/Cargo.toml" ]]; then
    echo "perfbench: run from the repository root (Cargo.toml and crates/ not found)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p sdvbs-runner -p sdvbs-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
target="$CARGO_TARGET_DIR"
[[ "$target" = /* ]] || target="$root/$target"
export PERFBENCH_BIN_DIR="$target/release"
exec "$target/release/sdvbs-perfbench" "$@"
