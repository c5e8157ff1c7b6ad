//! MIMD(a, b) — Multiplicative-Increase-Multiplicative-Decrease.
//!
//! Paper, Section 2: *"MIMD(a, b) increases the window size multiplicatively
//! by a factor of a \[on no loss\]. Both protocols multiplicatively decrease
//! the window size by a factor of b if `L^(t) > 0`."*
//!
//! TCP Scalable is MIMD(1.01, 0.875) "in some environments". MIMD's
//! signature properties in Table 1: ∞-fast-utilizing (superlinear growth)
//! but 0-fair in the worst case (multiplicative increase preserves initial
//! imbalances between senders — both windows grow by the same *factor*, so
//! their ratio never changes).

use axcc_core::theory::ProtocolSpec;
use axcc_core::{Observation, Protocol};

/// The MIMD(a, b) protocol.
///
/// Note that MIMD cannot grow a zero window (`a · 0 = 0`); scenarios must
/// start MIMD senders with a positive window, as the paper's model does
/// (initial windows are chosen in `{0, 1, …, M}` and a zero start simply
/// models a sender that never enters).
#[derive(Debug, Clone)]
pub struct Mimd {
    a: f64,
    b: f64,
}

impl Mimd {
    /// MIMD(a, b) with increase factor `a > 1` and decrease factor
    /// `b ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics on parameters outside those domains.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(a > 1.0, "MIMD increase factor must exceed 1");
        assert!(b > 0.0 && b < 1.0, "MIMD decrease factor must be in (0,1)");
        Mimd { a, b }
    }

    /// TCP Scalable's MIMD incarnation: MIMD(1.01, 0.875).
    pub fn scalable() -> Self {
        Mimd::new(1.01, 0.875)
    }

    /// The aggressiveness envelope the paper uses for PCC:
    /// MIMD(1.01, 0.99) — PCC's behaviour "is strictly more aggressive
    /// than MIMD(1.01, 0.99)".
    pub fn pcc_envelope() -> Self {
        Mimd::new(1.01, 0.99)
    }

    /// Increase factor `a`.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Decrease factor `b`.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The analytic spec of this instance.
    pub fn spec(&self) -> ProtocolSpec {
        ProtocolSpec::Mimd {
            a: self.a,
            b: self.b,
        }
    }
}

impl Protocol for Mimd {
    fn name(&self) -> String {
        self.spec().name()
    }

    fn next_window(&mut self, obs: &Observation) -> f64 {
        if obs.loss_rate > 0.0 {
            self.b * obs.window
        } else {
            self.a * obs.window
        }
    }

    fn loss_based(&self) -> bool {
        true
    }

    fn reset(&mut self) {}

    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplicative_increase() {
        let mut p = Mimd::new(2.0, 0.5);
        assert_eq!(p.next_window(&Observation::loss_only(0, 10.0, 0.0)), 20.0);
    }

    #[test]
    fn multiplicative_decrease() {
        let mut p = Mimd::new(2.0, 0.25);
        assert_eq!(p.next_window(&Observation::loss_only(0, 16.0, 0.3)), 4.0);
    }

    #[test]
    fn zero_window_is_absorbing() {
        let mut p = Mimd::scalable();
        assert_eq!(p.next_window(&Observation::loss_only(0, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn growth_is_superlinear() {
        // After k loss-free steps the window is a^k × the start: the gain
        // over any additive protocol grows without bound.
        let mut p = Mimd::new(1.1, 0.5);
        let mut w = 1.0;
        for t in 0..100 {
            w = p.next_window(&Observation::loss_only(t, w, 0.0));
        }
        assert!((w - 1.1f64.powi(100)).abs() < 1e-6 * w);
        assert!(w > 1000.0);
    }

    #[test]
    fn ratio_preservation_breaks_fairness() {
        // Two MIMD senders with 4:1 initial windows keep the 4:1 ratio
        // through any synchronized loss pattern — Table 1's <0> fairness.
        let mut p1 = Mimd::scalable();
        let mut p2 = Mimd::scalable();
        let mut w1 = 40.0;
        let mut w2 = 10.0;
        for t in 0..200 {
            let loss = if t % 11 == 10 { 0.05 } else { 0.0 };
            w1 = p1.next_window(&Observation::loss_only(t, w1, loss));
            w2 = p2.next_window(&Observation::loss_only(t, w2, loss));
            assert!((w1 / w2 - 4.0).abs() < 1e-9, "ratio drifted at t={t}");
        }
    }

    #[test]
    fn paper_presets() {
        assert_eq!(Mimd::scalable().name(), "MIMD(1.01,0.875)");
        let env = Mimd::pcc_envelope();
        assert_eq!(env.a(), 1.01);
        assert_eq!(env.b(), 0.99);
    }

    #[test]
    #[should_panic(expected = "increase factor must exceed 1")]
    fn rejects_non_increasing_factor() {
        Mimd::new(1.0, 0.5);
    }
}
