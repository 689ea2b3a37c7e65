#!/usr/bin/env bash
# Builds `cealc` and `ceal-benchmark` from source, then runs one
# workload in this process. Run from the repository root:
#
#   bash crates/benchmark/bench.sh --workload sac-native --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
# Honors CARGO_TARGET_DIR (default: target).
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/cealc ]; then
    echo "bench.sh: run from the root of the ceal-rs workspace" >&2
    exit 2
fi
cargo build --release -q --manifest-path Cargo.toml -p cealc -p ceal-benchmark >&2
exec "${CARGO_TARGET_DIR:-target}/release/ceal-benchmark" "$@"
