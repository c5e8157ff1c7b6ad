//! Summary statistics and failure accounting for the benchmark.
//!
//! Every reported timing aggregates many operations. A percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so
//! no figure rests on the one slowest operation of a run.

use std::collections::BTreeMap;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it. Nearest rank:
/// the value at 1-based rank `ceil(p/100 · n)` of the sorted samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample set (mean of the two middle values for
/// an even count); `None` when empty. Used for repeated whole passes,
/// where the ten-beyond rule of [`percentile`] does not apply because
/// the median is the centre, not a tail.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

/// Attempted and failed operations of one run. A failed operation is a
/// non-`ok` response, a failed `passed` predicate, or an output that
/// does not match its expected value.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    first_failures: Vec<String>,
}

impl Tally {
    /// Record one operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(why);
            }
        }
    }

    /// Record one operation that must satisfy `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record(if ok { Ok(()) } else { Err(what()) });
    }

    /// Fold another tally (e.g. one client thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.first_failures {
            if self.first_failures.len() < 8 {
                self.first_failures.push(f);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed operations divided by attempted ones (0 when none ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The first few failure descriptions, for the run log.
    pub fn failures(&self) -> &[String] {
        &self.first_failures
    }

    /// Whether every operation succeeded (and at least one ran).
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Names of metrics that are the same measurement as another metric.
///
/// Each metric declares the sample set it was computed from (a label
/// such as `"cold-pass-walls"`) and the statistic taken over it (such as
/// `"median"` or `"p99"`). Two metrics with the same source and the same
/// statistic measure the same interval twice, however they are named or
/// scaled; every such pair is reported.
pub fn duplicate_measurements(metrics: &[(&str, &str, &str)]) -> Vec<(String, String)> {
    let mut seen: BTreeMap<(&str, &str), &str> = BTreeMap::new();
    let mut dups = Vec::new();
    for &(name, source, statistic) in metrics {
        let first = *seen.entry((source, statistic)).or_insert(name);
        if first != name {
            dups.push((first.to_string(), name.to_string()));
        }
    }
    dups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order, so the percentile must sort.
        (0..n).map(|i| ((i * 37) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceil_rank() {
        let xs = ramp(100); // values 1..=100
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 1.0), Some(1.0));
        // rank ceil(0.505·100) = 51
        assert_eq!(percentile(&xs, 50.5), Some(51.0));
    }

    #[test]
    fn percentile_refused_with_fewer_than_ten_beyond() {
        let xs = ramp(100);
        // p90 of 100 leaves exactly 10 beyond: allowed.
        assert!(percentile(&xs, 90.0).is_some());
        // p91 leaves 9 beyond: refused.
        assert_eq!(percentile(&xs, 91.0), None);
        assert_eq!(percentile(&xs, 99.0), None);
        // p99 needs at least 1000 samples.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // Degenerate inputs.
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&xs, 0.0), None);
        assert_eq!(percentile(&xs, 101.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failed_frac_counts_an_injected_failure() {
        let mut t = Tally::default();
        for _ in 0..3 {
            t.record(Ok(()));
        }
        t.record(Err("report digest mismatch".to_string()));
        assert_eq!(t.attempted(), 4);
        assert_eq!(t.failed(), 1);
        assert_eq!(t.failed_frac(), 0.25);
        assert!(!t.correct());
        assert_eq!(t.failures(), ["report digest mismatch".to_string()]);

        let mut other = Tally::default();
        other.check(false, || "hit body changed".to_string());
        other.check(true, String::new);
        t.merge(other);
        assert_eq!((t.attempted(), t.failed()), (6, 2));
        assert!((t.failed_frac() - 2.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn an_empty_tally_is_not_correct() {
        let t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        assert!(!t.correct());
    }

    #[test]
    fn duplicate_measurements_are_flagged() {
        // The earlier benchmark's defect: p50, p99 and the warm time were
        // all the one warm-pass interval.
        let dups = duplicate_measurements(&[
            ("hit_p50_ms", "warm-pass-walls", "single"),
            ("hit_p99_ms", "warm-pass-walls", "single"),
            ("warm_s", "warm-pass-walls", "single"),
            ("cold_s", "cold-pass-walls", "median"),
        ]);
        assert_eq!(dups.len(), 2);
        assert!(dups.iter().all(|(a, _)| a == "hit_p50_ms"));
        // Distinct statistics over one source are distinct measurements.
        assert!(duplicate_measurements(&[
            ("hit_p50_ms", "hit-latencies", "p50"),
            ("hit_p99_ms", "hit-latencies", "p99"),
        ])
        .is_empty());
    }
}
