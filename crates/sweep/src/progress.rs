//! Wall-clock and throughput reporting for sweeps.
//!
//! Everything in this module is *reporting only*: elapsed times are
//! printed or serialized for humans and benchmark snapshots, and are
//! never fed back into a scenario, a score, or a cache key. That is the
//! contract under which the `Instant::now` suppressions below are
//! justified — the workspace determinism rules otherwise ban wall-clock
//! reads outright.

use std::time::Instant;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            // tidy-allow: determinism — wall-clock read is reporting-only; elapsed time never feeds results or cache keys.
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Timing + cache statistics for one experiment run, as reported by the
/// `run-all` driver and the sweep benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTiming {
    /// Registry name of the experiment (e.g. `"table2"`).
    pub name: String,
    /// Wall-clock for the whole experiment, in seconds.
    pub wall_secs: f64,
    /// Total sweep jobs the experiment submitted.
    pub jobs: u64,
    /// Jobs answered from the cache.
    pub cache_hits: u64,
}

impl ExperimentTiming {
    /// Jobs executed (submitted minus cache hits).
    pub fn executed(&self) -> u64 {
        self.jobs.saturating_sub(self.cache_hits)
    }

    /// Throughput over the wall-clock interval (0 for an instant run).
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.jobs as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Fraction of jobs answered from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.jobs > 0 {
            self.cache_hits as f64 / self.jobs as f64
        } else {
            0.0
        }
    }
}

/// Render a timing table (fixed-width, deterministic layout) with a
/// totals row — the summary `axcc run-all` prints after the suite.
pub fn render_timings(timings: &[ExperimentTiming]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>9} {:>7} {:>7} {:>9} {:>9}\n",
        "experiment", "wall [s]", "jobs", "hits", "hit rate", "jobs/s"
    ));
    let mut total_wall = 0.0;
    let mut total_jobs = 0u64;
    let mut total_hits = 0u64;
    for t in timings {
        total_wall += t.wall_secs;
        total_jobs += t.jobs;
        total_hits += t.cache_hits;
        out.push_str(&format!(
            "{:<14} {:>9.2} {:>7} {:>7} {:>8.1}% {:>9.1}\n",
            t.name,
            t.wall_secs,
            t.jobs,
            t.cache_hits,
            100.0 * t.hit_rate(),
            t.jobs_per_sec()
        ));
    }
    let total = ExperimentTiming {
        name: "total".to_string(),
        wall_secs: total_wall,
        jobs: total_jobs,
        cache_hits: total_hits,
    };
    out.push_str(&format!(
        "{:<14} {:>9.2} {:>7} {:>7} {:>8.1}% {:>9.1}\n",
        total.name,
        total.wall_secs,
        total.jobs,
        total.cache_hits,
        100.0 * total.hit_rate(),
        total.jobs_per_sec()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let t = ExperimentTiming {
            name: "x".into(),
            wall_secs: 0.0,
            jobs: 0,
            cache_hits: 0,
        };
        assert_eq!(t.jobs_per_sec(), 0.0);
        assert_eq!(t.hit_rate(), 0.0);
        assert_eq!(t.executed(), 0);
    }

    #[test]
    fn timing_table_has_totals_row() {
        let rows = vec![
            ExperimentTiming {
                name: "table1".into(),
                wall_secs: 1.0,
                jobs: 10,
                cache_hits: 5,
            },
            ExperimentTiming {
                name: "table2".into(),
                wall_secs: 3.0,
                jobs: 30,
                cache_hits: 15,
            },
        ];
        let table = render_timings(&rows);
        assert!(table.contains("table1"));
        assert!(table.lines().last().unwrap().starts_with("total"));
        assert!(table.contains("50.0%"));
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_secs() >= 0.0);
    }
}
