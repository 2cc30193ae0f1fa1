#!/usr/bin/env bash
# Full verify flow: formatting, lints, build, tests, kernel perf snapshot.
#
# Usage: scripts/verify.sh [--no-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== likelihood benchmark package: fmt --check + clippy -D warnings"
cargo fmt --manifest-path likbench/Cargo.toml -- --check
cargo clippy --offline --manifest-path likbench/Cargo.toml --all-targets -- -D warnings

echo "== rustdoc -D warnings (no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== cargo test"
cargo test --offline --workspace -q

echo "== scheduler property tests (release: steal races at full speed)"
cargo test --offline -q --release -p mixedp-runtime

echo "== covariance generation tests (release: the native codegen vectorizes the Matérn CF2 lanes)"
cargo test --offline -q --release -p mixedp-geostats

echo "== fault-injection recovery tests (release, multiple seeds)"
FAULT_SEEDS="1,7,42,20260807,987654321" \
    cargo test --offline -q --release -p mixedp-core --test fault_recovery

echo "== exhaustive FP16/BF16 rounding checks (release, 2^32 inputs each, ~2 min on 2 vCPUs)"
cargo test --offline -q --release -p mixedp-fp --test f16_exhaustive -- --ignored

echo "== likelihood benchmark tests (release: quick runs of both workloads and their bit gates)"
cargo test --offline --release --manifest-path likbench/Cargo.toml

echo "== packed-wire property tests (release)"
cargo test --offline -q --release -p mixedp-core --test wire_roundtrip
cargo test --offline -q --release -p mixedp-core wire::

if [[ "${1:-}" != "--no-bench" ]]; then
    echo "== kernel perf snapshot (BENCH_kernels.json)"
    cargo run --offline --release -p mixedp-bench --bin bench_kernels
    echo "== scheduler perf snapshot (BENCH_scheduler.json, quick)"
    cargo run --offline --release -p mixedp-bench --bin bench_scheduler -- --quick
    echo "== wire data-motion snapshot (BENCH_wire.json)"
    cargo run --offline --release -p mixedp-bench --bin bench_wire -- --reps=3
    echo "== telemetry smoke (chrome trace + run report + <2% overhead gate)"
    cargo run --offline --release -p mixedp-bench --bin telemetry_smoke
fi

echo "verify: OK"
