#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing every
# argument through:
#
#   bash e2ebench/run.sh --workload fig12-paper --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Cargo output goes to stderr; the benchmark's
# last line of stdout is its JSON result. The build honours CARGO_TARGET_DIR
# (default: e2ebench/target).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/e2ebench" "$@"
