#!/usr/bin/env bash
# Tier-1 verification: build, full test suite, a warning-free clippy
# pass, and a warning-free rustdoc build of every first-party package (so
# a broken or private intra-doc link fails). The vendored third-party
# API subsets under `vendor/` are excluded by name: their docs are not
# ours to fix. The `format`, `core`, `diag`, `vfs`, `obs` and `intern`
# library crates additionally deny `clippy::unwrap_used` at the crate
# level (see their `lib.rs`), so any new `unwrap()` in parsing, pipeline,
# IO, observability or interner code fails this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude proptest --exclude rand --exclude serde --exclude serde_derive

echo "tier1: OK"
