#!/usr/bin/env bash
# Build the benchmark and run it. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]
#       all four workloads, untraced + traced pass each, one result file
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass of one workload (the BENCHMARK.json contract)
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --list
#
# Builds release with the repo's .cargo/config.toml flags (cargo finds
# them from the repo root) into the shared target/ directory, or into
# $CARGO_TARGET_DIR when that is set. The root manifest and lock file are
# not touched: the benchmark is a workspace of its own.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"

# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

exec "$target/release/tofumd-benchmark" "$@"
