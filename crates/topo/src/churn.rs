//! Dynamic flow populations: seeded Poisson arrivals, exponential
//! lifetimes, and on/off traffic phases, expanded into plain step
//! intervals both engines consume.

use axcc_core::error::{positive_finite, require};
use axcc_core::{Fingerprint, Fingerprinter, ScenarioError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One churned flow's activity window, in engine steps: the flow is
/// active for steps `t` with `start <= t < stop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowInterval {
    /// First active step.
    pub start: u64,
    /// First step after the flow has departed (exclusive).
    pub stop: u64,
}

impl FlowInterval {
    /// Whether the flow is active at step `t`.
    pub fn contains(&self, t: u64) -> bool {
        self.start <= t && t < self.stop
    }

    /// Number of active steps.
    pub fn len(&self) -> u64 {
        self.stop.saturating_sub(self.start)
    }

    /// Whether the interval is empty (never the case for expanded plans).
    pub fn is_empty(&self) -> bool {
        self.stop <= self.start
    }
}

/// On/off traffic phases: an arriving flow alternates `on_steps` of
/// activity with `off_steps` of silence until its lifetime is spent. Each
/// on-phase becomes its own [`FlowInterval`] (fresh-connection semantics —
/// the protocol restarts from its initial window, like a web user's
/// successive transfers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnOffPhases {
    /// Steps of each active phase (at least 1).
    pub on_steps: u64,
    /// Steps of silence between active phases (at least 1).
    pub off_steps: u64,
}

/// A deterministic plan of flow arrivals and departures.
///
/// Arrivals form a Poisson process of rate `arrival_rate` (expected
/// arrivals per step); each arrival's lifetime is exponential with mean
/// `mean_lifetime` steps. A concurrency cap drops arrivals that would
/// exceed `max_concurrent` simultaneously-planned flows (the RNG draws
/// are consumed either way, so the cap never shifts later arrivals). An
/// optional [`OnOffPhases`] splits each lifetime into on/off bursts.
///
/// All randomness flows through one `ChaCha8Rng` seeded from `seed`:
/// expansion is a pure function of the plan's fields, and every field is
/// fingerprinted so the sweep cache distinguishes any change.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPlan {
    /// RNG seed for the arrival/lifetime stream.
    pub seed: u64,
    /// Expected arrivals per step (> 0, finite).
    pub arrival_rate: f64,
    /// Mean flow lifetime in steps (> 0, finite).
    pub mean_lifetime: f64,
    /// Maximum simultaneously-planned churned flows (>= 1).
    pub max_concurrent: usize,
    /// Optional on/off phase split of each lifetime.
    pub on_off: Option<OnOffPhases>,
}

impl ChurnPlan {
    /// A plan with the given Poisson arrival rate (arrivals/step) and mean
    /// exponential lifetime (steps); seed 0, cap 8, no on/off phases.
    pub fn poisson(arrival_rate: f64, mean_lifetime: f64) -> Self {
        ChurnPlan {
            seed: 0,
            arrival_rate,
            mean_lifetime,
            max_concurrent: 8,
            on_off: None,
        }
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the concurrency cap.
    pub fn max_concurrent(mut self, cap: usize) -> Self {
        self.max_concurrent = cap;
        self
    }

    /// Split each flow's lifetime into on/off phases.
    pub fn on_off(mut self, on_steps: u64, off_steps: u64) -> Self {
        self.on_off = Some(OnOffPhases {
            on_steps,
            off_steps,
        });
        self
    }

    /// Check the plan's parameters.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        positive_finite("arrival_rate", self.arrival_rate)?;
        positive_finite("mean_lifetime", self.mean_lifetime)?;
        require(self.max_concurrent > 0, "max_concurrent", 0.0, "at least 1")?;
        self.on_off.map_or(Ok(()), |p| {
            let ok = p.on_steps > 0 && p.off_steps > 0;
            require(ok, "on_off", 0.0, "on and off phases of at least one step")
        })
    }

    /// Expand the plan over a run of `horizon` steps into concrete flow
    /// intervals, sorted by start step. Every interval is non-empty and
    /// clipped to `[0, horizon)`.
    pub fn try_expand(&self, horizon: u64) -> Result<Vec<FlowInterval>, ScenarioError> {
        self.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut intervals: Vec<FlowInterval> = Vec::new();
        let mut t = 0.0_f64;
        loop {
            // Exponential inter-arrival and lifetime draws. Both draws are
            // always consumed — even for arrivals the concurrency cap then
            // drops — so the cap cannot shift later arrivals.
            let u1: f64 = rng.gen::<f64>();
            t += -(1.0 - u1).ln() / self.arrival_rate;
            if t >= horizon as f64 {
                break;
            }
            let u2: f64 = rng.gen::<f64>();
            let life = -(1.0 - u2).ln() * self.mean_lifetime;

            let start = t.floor() as u64;
            let stop = ((t + life).ceil() as u64).clamp(start + 1, horizon.max(start + 1));
            let lifetime = FlowInterval {
                start,
                stop: stop.min(horizon),
            };
            if lifetime.is_empty() {
                continue;
            }
            let active = intervals
                .iter()
                .filter(|iv| iv.stop > lifetime.start)
                .count();
            if active >= self.max_concurrent {
                continue;
            }
            match self.on_off {
                None => intervals.push(lifetime),
                Some(p) => {
                    // Walk the lifetime in on/off strides; each on-phase is
                    // its own (clipped, non-empty) interval.
                    let mut s = lifetime.start;
                    while s < lifetime.stop {
                        let phase = FlowInterval {
                            start: s,
                            stop: (s + p.on_steps).min(lifetime.stop),
                        };
                        if !phase.is_empty() {
                            intervals.push(phase);
                        }
                        s = s.saturating_add(p.on_steps).saturating_add(p.off_steps);
                    }
                }
            }
        }
        intervals.sort_by_key(|iv| (iv.start, iv.stop));
        Ok(intervals)
    }

    /// Expand the plan (panicking façade over [`ChurnPlan::try_expand`]).
    ///
    /// # Panics
    ///
    /// Panics (with the [`ScenarioError`] message) on invalid parameters.
    pub fn expand(&self, horizon: u64) -> Vec<FlowInterval> {
        // tidy-allow: panic-freedom — documented panicking façade over try_expand; fallible callers use the try_ path
        self.try_expand(horizon).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Fingerprint for OnOffPhases {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str("OnOffPhases");
        fp.write_u64(self.on_steps);
        fp.write_u64(self.off_steps);
    }
}

impl Fingerprint for FlowInterval {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str("FlowInterval");
        fp.write_u64(self.start);
        fp.write_u64(self.stop);
    }
}

impl Fingerprint for ChurnPlan {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str("ChurnPlan");
        fp.write_u64(self.seed);
        fp.write_f64(self.arrival_rate);
        fp.write_f64(self.mean_lifetime);
        fp.write_usize(self.max_concurrent);
        self.on_off.fingerprint(fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ChurnPlan {
        ChurnPlan::poisson(0.01, 300.0).seed(7)
    }

    #[test]
    fn expansion_is_deterministic_per_seed() {
        assert_eq!(plan().try_expand(4000), plan().try_expand(4000));
        assert_ne!(
            plan().try_expand(4000).unwrap(),
            plan().seed(8).try_expand(4000).unwrap()
        );
    }

    #[test]
    fn expansion_produces_arrivals_at_the_expected_scale() {
        // rate 0.01 over 4000 steps => ~40 arrivals before the cap.
        let ivs = plan().max_concurrent(usize::MAX).try_expand(4000).unwrap();
        assert!(ivs.len() > 15 && ivs.len() < 90, "arrivals: {}", ivs.len());
    }

    #[test]
    fn intervals_are_clipped_nonempty_and_sorted() {
        let ivs = plan().try_expand(2000).unwrap();
        assert!(!ivs.is_empty());
        for w in ivs.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        for iv in &ivs {
            assert!(iv.start < iv.stop, "{iv:?}");
            assert!(iv.stop <= 2000, "{iv:?}");
        }
    }

    #[test]
    fn concurrency_cap_bounds_simultaneous_flows() {
        let ivs = ChurnPlan::poisson(0.5, 500.0)
            .seed(3)
            .max_concurrent(4)
            .try_expand(1000)
            .unwrap();
        for t in 0..1000 {
            let active = ivs.iter().filter(|iv| iv.contains(t)).count();
            assert!(active <= 4, "step {t}: {active} active");
        }
    }

    #[test]
    fn cap_skips_do_not_shift_later_arrivals() {
        // The capped expansion's surviving arrivals must be a subset of
        // the uncapped expansion's lifetimes (same start steps): the RNG
        // stream is identical, the cap only drops.
        let free = plan().max_concurrent(usize::MAX).try_expand(4000).unwrap();
        let capped = plan().max_concurrent(2).try_expand(4000).unwrap();
        for iv in &capped {
            assert!(free.contains(iv), "{iv:?} not in uncapped expansion");
        }
        assert!(capped.len() <= free.len());
    }

    #[test]
    fn on_off_splits_lifetimes_into_phases() {
        let base = plan().max_concurrent(usize::MAX).try_expand(4000).unwrap();
        let split = plan()
            .max_concurrent(usize::MAX)
            .on_off(50, 50)
            .try_expand(4000)
            .unwrap();
        assert!(split.len() >= base.len());
        for iv in &split {
            assert!(iv.len() <= 50, "{iv:?}");
        }
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(ChurnPlan::poisson(0.0, 300.0).try_expand(100).is_err());
        assert!(ChurnPlan::poisson(0.01, -1.0).try_expand(100).is_err());
        assert!(ChurnPlan::poisson(0.01, 300.0)
            .max_concurrent(0)
            .try_expand(100)
            .is_err());
        assert!(ChurnPlan::poisson(0.01, 300.0)
            .on_off(0, 5)
            .try_expand(100)
            .is_err());
        assert!(ChurnPlan::poisson(f64::NAN, 300.0).try_expand(100).is_err());
    }

    #[test]
    #[should_panic(expected = "arrival_rate")]
    fn expand_panics_with_the_error_message() {
        ChurnPlan::poisson(-1.0, 300.0).expand(100);
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let base = plan().digest();
        assert_ne!(plan().seed(99).digest(), base);
        assert_ne!(ChurnPlan::poisson(0.02, 300.0).seed(7).digest(), base);
        assert_ne!(ChurnPlan::poisson(0.01, 301.0).seed(7).digest(), base);
        assert_ne!(plan().max_concurrent(9).digest(), base);
        assert_ne!(plan().on_off(10, 10).digest(), base);
        assert_ne!(
            plan().on_off(10, 10).digest(),
            plan().on_off(10, 11).digest()
        );
        assert_eq!(plan().digest(), plan().digest());
    }

    #[test]
    fn flow_interval_queries() {
        let iv = FlowInterval { start: 5, stop: 8 };
        assert!(!iv.contains(4));
        assert!(iv.contains(5));
        assert!(iv.contains(7));
        assert!(!iv.contains(8));
        assert_eq!(iv.len(), 3);
        assert!(!iv.is_empty());
    }
}
