//! AIMD(a, b) — Additive-Increase-Multiplicative-Decrease.
//!
//! Paper, Section 2: *"AIMD(a, b) increases the window size `x_i^(t)`
//! additively by a (MSS) if the loss `L^(t)` at time t is 0 … \[and\]
//! multiplicatively decrease\[s\] the window size by a factor of b if
//! `L^(t) > 0`."*
//!
//! TCP Reno in congestion-avoidance mode is AIMD(1, 0.5); TCP Scalable in
//! its AIMD incarnation is AIMD(1, 0.875).

use axcc_core::theory::ProtocolSpec;
use axcc_core::{Observation, Protocol};

/// The AIMD(a, b) protocol.
///
/// ```
/// use axcc_protocols::Aimd;
/// use axcc_core::{Observation, Protocol};
///
/// let mut reno = Aimd::reno();
/// // No loss: additive increase by 1 MSS.
/// let w = reno.next_window(&Observation::loss_only(0, 10.0, 0.0));
/// assert_eq!(w, 11.0);
/// // Loss: multiplicative decrease to half.
/// let w = reno.next_window(&Observation::loss_only(1, 11.0, 0.1));
/// assert_eq!(w, 5.5);
/// ```
#[derive(Debug, Clone)]
pub struct Aimd {
    a: f64,
    b: f64,
}

impl Aimd {
    /// AIMD(a, b) with additive increase `a > 0` MSS/RTT and decrease
    /// factor `b ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics on parameters outside those domains.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(a > 0.0, "AIMD increase must be positive");
        assert!(
            (0.0..1.0).contains(&b) && b > 0.0,
            "AIMD decrease factor must be in (0,1)"
        );
        Aimd { a, b }
    }

    /// TCP Reno: AIMD(1, 0.5) — the reference protocol of Metric VII.
    pub fn reno() -> Self {
        Aimd::new(1.0, 0.5)
    }

    /// TCP Scalable's AIMD incarnation: AIMD(1, 0.875).
    pub fn scalable() -> Self {
        Aimd::new(1.0, 0.875)
    }

    /// Additive-increase parameter `a`.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Multiplicative-decrease factor `b`.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The analytic spec of this instance (for Table 1 formulas).
    pub fn spec(&self) -> ProtocolSpec {
        ProtocolSpec::Aimd {
            a: self.a,
            b: self.b,
        }
    }
}

impl Protocol for Aimd {
    fn name(&self) -> String {
        self.spec().name()
    }

    fn next_window(&mut self, obs: &Observation) -> f64 {
        if obs.loss_rate > 0.0 {
            self.b * obs.window
        } else {
            obs.window + self.a
        }
    }

    fn loss_based(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        // AIMD is memoryless: the window *is* the state, and the engine
        // owns it.
    }

    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_increase_on_no_loss() {
        let mut p = Aimd::new(2.0, 0.5);
        assert_eq!(p.next_window(&Observation::loss_only(0, 10.0, 0.0)), 12.0);
    }

    #[test]
    fn multiplicative_decrease_on_any_loss() {
        let mut p = Aimd::new(1.0, 0.7);
        for loss in [1e-9, 0.01, 0.5, 0.99] {
            let w = p.next_window(&Observation::loss_only(0, 10.0, loss));
            assert!((w - 7.0).abs() < 1e-12, "loss {loss} -> {w}");
        }
    }

    #[test]
    fn reno_parameters() {
        let p = Aimd::reno();
        assert_eq!(p.a(), 1.0);
        assert_eq!(p.b(), 0.5);
        assert_eq!(p.name(), "AIMD(1,0.5)");
        assert!(p.loss_based());
    }

    #[test]
    fn rtt_invariance() {
        // Loss-based: the same loss history must give the same windows
        // regardless of RTT values.
        let mut p1 = Aimd::reno();
        let mut p2 = Aimd::reno();
        let mut w1 = 10.0;
        let mut w2 = 10.0;
        for t in 0..50 {
            let loss = if t % 7 == 6 { 0.1 } else { 0.0 };
            w1 = p1.next_window(&Observation {
                tick: t,
                window: w1,
                loss_rate: loss,
                rtt: 0.01,
                min_rtt: 0.01,
            });
            w2 = p2.next_window(&Observation {
                tick: t,
                window: w2,
                loss_rate: loss,
                rtt: 10.0 + t as f64,
                min_rtt: 0.5,
            });
            assert_eq!(w1, w2, "diverged at t={t}");
        }
    }

    #[test]
    fn sawtooth_shape() {
        // Climb from 8 for 4 steps, lose, halve.
        let mut p = Aimd::reno();
        let mut w = 8.0;
        for t in 0..4 {
            w = p.next_window(&Observation::loss_only(t, w, 0.0));
        }
        assert_eq!(w, 12.0);
        w = p.next_window(&Observation::loss_only(4, w, 0.2));
        assert_eq!(w, 6.0);
    }

    #[test]
    #[should_panic(expected = "increase must be positive")]
    fn rejects_zero_increase() {
        Aimd::new(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "decrease factor")]
    fn rejects_b_of_one() {
        Aimd::new(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "decrease factor")]
    fn rejects_b_of_zero() {
        Aimd::new(1.0, 0.0);
    }
}
