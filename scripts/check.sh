#!/usr/bin/env bash
# Repo hygiene gate: formatting, lints (warnings are errors), full test
# suite. CI and pre-push hooks should run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo tidy (axcc-tidy static analysis, gating on new findings)"
cargo run -q -p xtask -- tidy --baseline tidy.baseline

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Byte identity of every report, job digest and serve response line is
# pinned by tests/golden_reports.rs, part of this step.
echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The lazy gauntlet search against the exhaustive scan on every column of
# the paper grid: too slow for the test profile, about a second in release.
echo "==> gauntlet full-grid oracle (release)"
cargo test --release -q -p axcc-analysis gauntlet_full_grid -- --ignored

# The vendored crates are excluded from the workspace, so their own unit
# tests run separately; their build output stays under target/vendor.
echo "==> vendored crates' unit tests (rand, rand_chacha, serde_json)"
cargo test -q --manifest-path vendor/rand/Cargo.toml --target-dir target/vendor
cargo test -q --manifest-path vendor/rand_chacha/Cargo.toml --target-dir target/vendor
cargo test -q --manifest-path vendor/serde_json/Cargo.toml --target-dir target/vendor

# perfbench is its own workspace, outside `crates/*`, so the step above
# neither builds nor tests it; its self-tests also prove it still compiles
# against the crates' public API.
echo "==> perfbench self-tests"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> axcc run-all --jobs 2 --smoke (full suite through the sweep engine)"
cargo run -q -p axcc-cli -- run-all --jobs 2 --smoke \
  --cache-dir target/sweep-cache-ci --out-dir target/run-all-ci

echo "==> axcc sweep --only churn --smoke (flow churn: both engines, streaming path)"
cargo run -q -p axcc-cli -- sweep --only churn --smoke --jobs 2 \
  --cache-dir target/sweep-cache-ci > /dev/null

echo "==> axcc sweep --only explore --smoke (parameter-space exploration through the sharded store)"
cargo run -q -p axcc-cli -- sweep --only explore --smoke --jobs 2 --chunk-size 8 \
  --cache-dir target/sweep-cache-ci --cache-stats > /dev/null

echo "==> bench-sweep --check (snapshot was measured at this engine revision)"
cargo run -q --release -p axcc-bench --bin bench-sweep -- --check BENCH_sweep.json

echo "==> bench-sweep smoke gate (parallel vs serial at 4 workers on the gauntlet tier)"
# 0.90 tolerance: on a single-core host both sides run the same serial
# path, so anything below is dispatch-layer regression, not scheduling.
cargo run -q --release -p axcc-bench --bin bench-sweep -- --jobs 4 --only gauntlet \
  --reps 15 --min-speedup 0.90 --out target/BENCH_sweep_smoke.json > /dev/null

echo "==> bench-serve --spawn (service smoke: daemon up, bench, drain)"
cargo run -q -p axcc-cli -- bench-serve --spawn --levels 1,2 --requests 3 \
  --steps 120 --out target/BENCH_service_smoke.json > /dev/null

echo "All checks passed."
