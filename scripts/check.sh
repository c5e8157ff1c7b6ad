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

# Broken intra-doc links and links to private items fail the build.
echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Byte identity of every report, job digest and serve response line is
# pinned by tests/golden_reports.rs, part of this step.
echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The lazy gauntlet search against the exhaustive scan on every column of
# the paper grid: too slow for the test profile, about a second in release.
echo "==> gauntlet full-grid oracle (release)"
cargo test --release -q -p axcc-analysis gauntlet_full_grid -- --ignored

# 0.90 tolerance: on a single-core host both sides run the same serial
# path, so anything below is dispatch-layer regression, not scheduling.
echo "==> parallel speedup gate (gauntlet at smoke budget, 4 workers vs 1, release)"
cargo test --release -q -p axcc-analysis --test parallel_speedup -- --ignored

# The vendored crates are excluded from the workspace, so their own unit
# tests run separately; their build output stays under target/vendor.
echo "==> vendored crates' unit tests (rand, rand_chacha, serde_json, proptest, serde, sigmon)"
cargo test -q --manifest-path vendor/rand/Cargo.toml --target-dir target/vendor
cargo test -q --manifest-path vendor/rand_chacha/Cargo.toml --target-dir target/vendor
cargo test -q --manifest-path vendor/serde_json/Cargo.toml --target-dir target/vendor
cargo test -q --manifest-path vendor/proptest/Cargo.toml --target-dir target/vendor
cargo test -q --manifest-path vendor/serde/Cargo.toml --target-dir target/vendor
cargo test -q --manifest-path vendor/sigmon/Cargo.toml --target-dir target/vendor

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

# A warm re-run must answer every job from the store and print the same
# report: run explore --smoke twice into a fresh store, compare the two
# reports up to the timing footer, and require the second run's
# --cache-stats line to show no misses and no executed jobs.
echo "==> warm re-run of explore --smoke: identical report, 0 misses, 0 executed"
rm -rf target/warm-rerun-ci
mkdir -p target/warm-rerun-ci
for run in cold warm; do
  cargo run -q -p axcc-cli -- sweep --only explore --smoke --jobs 2 \
    --cache-dir target/warm-rerun-ci/store --cache-stats > "target/warm-rerun-ci/$run.txt"
  sed '/ jobs over /,$d' "target/warm-rerun-ci/$run.txt" > "target/warm-rerun-ci/$run.report"
done
cmp target/warm-rerun-ci/cold.report target/warm-rerun-ci/warm.report
grep -q '^result store: [0-9]* hits / 0 misses, 0 jobs executed this process' \
  target/warm-rerun-ci/warm.txt

echo "==> results/ regenerates byte for byte (registry at paper budget + the six examples, release)"
rm -rf target/results-check
cargo run -q --release -p axcc-cli -- run-all --jobs 0 --no-cache \
  --out-dir target/results-check > /dev/null
cargo run -q --release --example ablations > target/results-check/ablations.txt
cargo run -q --release --example table2_packet -- --paced > target/results-check/table2_paced.txt
cargo run -q --release --example parking_lot > target/results-check/parking_lot.txt
cargo run -q --release --example parking_lot_churn > target/results-check/parking_lot_churn.txt
cargo run -q --release --example bursty_satellite > target/results-check/bursty_satellite.txt
cargo run -q --release --example lossy_satellite > target/results-check/lossy_satellite.txt
diff -r results target/results-check

# The examples with no committed output still run once, so a panic in
# one of them fails the gate (`set -e`) instead of going unnoticed.
echo "==> the six examples without committed output run to exit 0 (release)"
for ex in buffer_sizing ecn_vs_droptail friendliness_duel late_joiner pareto_explorer quickstart; do
  cargo run -q --release --example "$ex" > /dev/null
done

echo "All checks passed."
