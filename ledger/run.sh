#!/usr/bin/env bash
# Builds the repository's binaries and the ledger into one target
# directory ($CARGO_TARGET_DIR, default target/), then runs the ledger,
# which times the tdsigma and reproduce_all it finds beside itself.
#
#   bash ledger/run.sh --workload sim_sweep --seed 1 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --workspace
cargo build --release --quiet --manifest-path ledger/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ledger" "$@"
