#!/bin/sh
# Tier-1 verification, run exactly as CI does.
#
# CARGO_NET_OFFLINE=1 makes any accidental reintroduction of a crates.io
# dependency fail immediately: this workspace builds from the standard
# library alone (see README "Zero dependencies").
#
# Every gate lives in a Rust test: the serving smoke, doc drift, explain
# tallies, cross-validation, profiler exports, the 200-connection serve
# test and the compiled codegen self-checks all run under `cargo test`.
# The one end-to-end benchmark is drbench
# (crates/bench/src/bin/drbench/run.sh).
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=1

cargo build --release --workspace

# The workspace flag runs each member's unit, integration, and
# documentation tests, the root facade's included.
cargo test -q --workspace

# Lints are a gate too: every clippy warning, tests and benches included.
cargo clippy --workspace --all-targets --quiet -- -D warnings

# Docs must stay warning-free (missing_docs is denied in core and obs).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "tier-1 verification passed"
