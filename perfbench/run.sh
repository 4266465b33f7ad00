#!/usr/bin/env bash
# Builds the benchmark and the spatten-frontd server from this checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Both packages build into $CARGO_TARGET_DIR (default perfbench/target).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --target-dir "$target" --manifest-path perfbench/Cargo.toml
cargo build --release --offline --quiet --target-dir "$target" -p spatten-frontd
PERFBENCH_RUSTC="$(rustc --version)"
export PERFBENCH_RUSTC
exec "$target/release/spatten-perfbench" "$@" --frontd "$target/release/spatten-frontd"
