#!/usr/bin/env bash
# Builds the datareuse CLI (the served workloads spawn `datareuse serve`)
# and drbench from source with the workspace manifest, then runs drbench
# with the given arguments. Run it from the repository root, e.g.
#   bash crates/bench/src/bin/drbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last line of stdout is drbench's result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p datareuse-cli -p datareuse-bench --bin datareuse --bin drbench >&2
exec "$target/release/drbench" "$@"
