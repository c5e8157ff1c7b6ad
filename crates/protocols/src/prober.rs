//! The Claim-1 counterexample protocol: 0-loss but not fast-utilizing.
//!
//! Paper, Section 4: *"consider a protocol P that slowly increases its rate
//! until encountering loss for the first time and then slightly decreases
//! the rate so as to not exceed the link's capacity. While both 0-loss
//! (from some point in time no loss occurs) and almost fully-utilizing the
//! link, this protocol is not α-fast-utilizing for any α > 0."*
//!
//! [`CautiousProber`] is exactly that protocol: additive increase by `a`
//! until the first loss, then **freeze** at a backed-off window forever.
//! It demonstrates why Claim 1 is not vacuous — 0-loss and high efficiency
//! are simultaneously achievable — and the registry's `theorems` experiment
//! verifies that it indeed scores 0 on fast-utilization while being 0-loss.

use axcc_core::{Observation, Protocol};

/// A protocol that probes additively until its first loss, then parks just
/// below the level that caused it.
#[derive(Debug, Clone)]
pub struct CautiousProber {
    /// Additive increase while probing (MSS/RTT).
    a: f64,
    /// Back-off factor applied once, at the first loss.
    b: f64,
    /// The frozen window, set at the first loss.
    parked: Option<f64>,
}

impl CautiousProber {
    /// A prober increasing by `a` per RTT until first loss, then parking at
    /// `b`× the window that lost.
    ///
    /// # Panics
    ///
    /// Panics unless `a > 0` and `b ∈ (0, 1)`.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(a > 0.0, "probe increment must be positive");
        assert!(b > 0.0 && b < 1.0, "park factor must be in (0,1)");
        CautiousProber { a, b, parked: None }
    }

    /// The default prober: +1 MSS/RTT, park at 95% of the lossy window.
    pub fn default_probe() -> Self {
        CautiousProber::new(1.0, 0.95)
    }

    /// Whether the prober has parked (seen its first loss).
    pub fn parked(&self) -> bool {
        self.parked.is_some()
    }
}

impl Protocol for CautiousProber {
    fn name(&self) -> String {
        format!("Prober({},{})", self.a, self.b)
    }

    fn next_window(&mut self, obs: &Observation) -> f64 {
        if let Some(w) = self.parked {
            return w;
        }
        if obs.loss_rate > 0.0 {
            let w = self.b * obs.window;
            self.parked = Some(w);
            w
        } else {
            obs.window + self.a
        }
    }

    fn loss_based(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.parked = None;
    }

    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_until_first_loss() {
        let mut p = CautiousProber::default_probe();
        let mut w = 1.0;
        for t in 0..10 {
            w = p.next_window(&Observation::loss_only(t, w, 0.0));
        }
        assert_eq!(w, 11.0);
        assert!(!p.parked());
    }

    #[test]
    fn parks_after_first_loss_and_never_moves() {
        let mut p = CautiousProber::default_probe();
        let w = p.next_window(&Observation::loss_only(0, 100.0, 0.1));
        assert!((w - 95.0).abs() < 1e-12);
        assert!(p.parked());
        // Later observations — even losses — do not move it.
        assert_eq!(p.next_window(&Observation::loss_only(1, 95.0, 0.0)), 95.0);
        assert_eq!(p.next_window(&Observation::loss_only(2, 95.0, 0.5)), 95.0);
    }

    #[test]
    fn reset_resumes_probing() {
        let mut p = CautiousProber::default_probe();
        p.next_window(&Observation::loss_only(0, 100.0, 0.1));
        p.reset();
        assert!(!p.parked());
        assert_eq!(p.next_window(&Observation::loss_only(0, 10.0, 0.0)), 11.0);
    }

    #[test]
    #[should_panic(expected = "park factor")]
    fn rejects_bad_park_factor() {
        CautiousProber::new(1.0, 1.0);
    }
}
