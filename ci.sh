#!/usr/bin/env bash
# CI gate: build, full test suite, golden gates, and lint-clean hot-path
# crates.
#
# Keep this runnable offline — the workspace vendors all dependencies under
# compat/, so no network access is needed at any step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> rustfmt (check only)"
cargo fmt --all -- --check

echo "==> build (release)"
cargo build --workspace --release

echo "==> tests (whole workspace, the bench package's determinism A/B suite included)"
cargo test --workspace --quiet

echo "==> benchmark package tests (a package of its own, outside the workspace run above;"
echo "    one checks every registered experiment sits in exactly one Full workload or in"
echo "    untimed_at_full)"
cargo test --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "==> golden gate (Quick goldens: figure data bit-identical, work counters equal)"
cargo run --release -p bench --bin repro -- --check results/quick

echo "==> golden gate, per-fragment wire path (same goldens with trains off: data only,"
echo "    since the per-fragment path does other work)"
cargo run --release -p bench --bin repro -- --no-coalescing --check results/quick

echo "==> golden gate, Full fidelity (every recorded figure: data bit-identical, work equal)"
cargo run --release -p bench --bin repro -- --full --check results

echo "==> golden gate, Full fidelity on the per-fragment wire path (data only)"
cargo run --release -p bench --bin repro -- --no-coalescing --full --check results

echo "==> rustdoc (warnings are errors: no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> clippy (whole workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
