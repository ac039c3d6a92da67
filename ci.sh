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

work_dir=$(mktemp -d)
trap 'rm -rf "$work_dir"' EXIT

echo "==> examples (release, each run to completion and its stdout equal to"
echo "    examples/expected/NAME.txt; lossy_wan asserts exactly-once delivery under 0.1-5% WAN"
echo "    loss, wan_planner that its plan delivers the bandwidth it promised)"
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "--> $name"
    cargo run --release --quiet --example "$name" > "$work_dir/$name.txt"
    if ! diff -u "examples/expected/$name.txt" "$work_dir/$name.txt" >&2; then
        echo "example $name printed the lines above (+), not examples/expected/$name.txt (-)" >&2
        exit 1
    fi
done

echo "==> scenario CLI (ibwan_sim --example runs through ibwan_sim; a missing scenario"
echo "    file exits 2)"
cargo run --release --quiet -p bench --bin ibwan_sim -- --example > "$work_dir/example.json"
cargo run --release --quiet -p bench --bin ibwan_sim -- "$work_dir/example.json" > /dev/null
status=0
cargo run --release --quiet -p bench --bin ibwan_sim -- "$work_dir/missing.json" \
    > /dev/null 2> "$work_dir/stderr" || status=$?
if [ "$status" -ne 2 ]; then
    cat "$work_dir/stderr" >&2
    echo "ibwan_sim on a missing scenario file exited $status, want 2" >&2
    exit 1
fi

echo "==> scenario CLI, trains invisible end to end: an IPoIB-UD scenario (8 TCP streams"
echo "    over 10 ms, the shape of the benchmark's ipoib.probe.ud_streams) prints the same"
echo "    value with and without --no-coalescing, and its coalesced run dispatches trains"
cat > "$work_dir/ipoib_ud.json" <<'EOF'
{ "name": "ipoib-ud-8-streams-10ms", "topology": { "delay_us": 10000 },
  "workload": { "kind": "ipoib", "mode": "ud", "mtu": 2048, "window": 1048576,
                "streams": 8, "bytes_per_stream": 8388608 } }
EOF
coalesced=$(cargo run --release --quiet -p bench --bin ibwan_sim -- --json "$work_dir/ipoib_ud.json")
per_packet=$(cargo run --release --quiet -p bench --bin ibwan_sim -- --json --no-coalescing \
    "$work_dir/ipoib_ud.json")
field() { sed -n "s/^ *\"$1\": \([^,]*\),\$/\1/p" <<< "$2"; }
value=$(field value "$coalesced")
trains=$(field trains_emitted "$coalesced")
if [ -z "$value" ] || [ "$value" != "$(field value "$per_packet")" ]; then
    echo "IPoIB-UD scenario: value $value with trains, $(field value "$per_packet") without" >&2
    exit 1
fi
if [ "${trains:-0}" -le 0 ]; then
    echo "IPoIB-UD scenario: the coalesced run dispatched no trains (trains_emitted ${trains:-?})" >&2
    exit 1
fi

echo "==> benchmark package tests (a package of its own, outside the workspace run above;"
echo "    one checks every registered experiment sits in exactly one Full workload or in"
echo "    untimed_at_full; --locked, as the benchmark itself builds, so a dependency"
echo "    change that would rewrite its Cargo.lock fails here)"
cargo test --release --offline --locked --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "==> benchmark trace (one traced nas pass at seed 0: every per-layer metric measured, and the"
echo "    last line a correct result, its IS and CG points checked against results/fig12.json;"
echo "    writes only the gitignored benchmark-trace/)"
status=0
cargo run --release --quiet --offline --locked \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
    --trace 1 --workload nas --seed 0 > "$work_dir/trace.out" || status=$?
if [ "$status" -ne 0 ]; then
    cat "$work_dir/trace.out" >&2
    echo "benchmark --trace 1 --workload nas exited $status, want 0" >&2
    exit 1
fi
if grep "(not measured)" "$work_dir/trace.out" >&2; then
    echo "benchmark trace: the per-layer metrics above were not measured" >&2
    exit 1
fi
if ! tail -n 1 "$work_dir/trace.out" | grep -q '^{"correct":true'; then
    tail -n 1 "$work_dir/trace.out" >&2
    echo "benchmark trace: the last line is not a correct result" >&2
    exit 1
fi

echo "==> golden gate (Quick goldens: figure data bit-identical, work counters equal)"
cargo run --release -p bench --bin repro -- --check results/quick

echo "==> golden gate, per-fragment wire path (same goldens with trains off: data only,"
echo "    since the per-fragment path does other work)"
cargo run --release -p bench --bin repro -- --no-coalescing --check results/quick

echo "==> golden gate, Full fidelity (every recorded figure: data bit-identical, work equal)"
cargo run --release -p bench --bin repro -- --full --check results

echo "==> golden gate, Full fidelity on the per-fragment wire path (data only)"
cargo run --release -p bench --bin repro -- --no-coalescing --full --check results

echo "==> golden gate, Full fidelity one simulation at a time (--workers 1 caps every pool,"
echo "    the runner's and each experiment's own sweep: data bit-identical, work equal)"
cargo run --release -p bench --bin repro -- --workers 1 --full --check results

echo "==> rustdoc (warnings are errors: no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> clippy (whole workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
