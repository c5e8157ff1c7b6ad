//! Parallel dispatch must not cost more than it buys: the registry's
//! gauntlet at smoke budget, uncached, on one worker against four.
//!
//! Timing is the minimum of 15 interleaved repetitions (the pair order
//! alternates, so clock drift and cache warming bias both sides alike),
//! and the gate fails below a 0.90× speedup. The runner clamps its
//! worker count to the host, so on a single-core host both sides run the
//! same serial path and anything under 0.90 is a dispatch-layer
//! regression, not scheduling. A timing gate only means something in an
//! optimized build, hence `#[ignore]`:
//!
//! ```sh
//! cargo test --release -q -p axcc-analysis --test parallel_speedup -- --ignored
//! ```

use axcc_analysis::experiments::{find_experiment, Experiment, RunBudget};
use axcc_sweep::{Stopwatch, SweepRunner};

const REPS: usize = 15;
const WORKERS: usize = 4;
const MIN_SPEEDUP: f64 = 0.90;

/// Run `exp` once on a fresh uncached runner; keep the best wall time.
fn timed_run(exp: &Experiment, workers: usize, best: &mut f64) -> String {
    let runner = SweepRunner::without_cache(workers);
    let sw = Stopwatch::start();
    let report = (exp.run)(&runner, RunBudget::smoke()).report;
    *best = best.min(sw.elapsed_secs());
    report
}

#[test]
#[ignore = "timing gate; run in release"]
fn gauntlet_on_four_workers_is_not_slower_than_serial() {
    let gauntlet = find_experiment("gauntlet").expect("gauntlet is registered");
    let mut serial = f64::INFINITY;
    let mut parallel = f64::INFINITY;
    for rep in 0..REPS {
        let (a, b) = if rep % 2 == 0 {
            let a = timed_run(&gauntlet, 1, &mut serial);
            (a, timed_run(&gauntlet, WORKERS, &mut parallel))
        } else {
            let b = timed_run(&gauntlet, WORKERS, &mut parallel);
            (timed_run(&gauntlet, 1, &mut serial), b)
        };
        assert_eq!(a, b, "parallel report diverged from serial");
    }
    let speedup = serial / parallel;
    assert!(
        speedup >= MIN_SPEEDUP,
        "{WORKERS}-worker speedup {speedup:.3}x is below {MIN_SPEEDUP}x \
         (serial {serial:.4} s, parallel {parallel:.4} s)"
    );
}
