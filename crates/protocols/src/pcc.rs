//! A PCC-style monitor-interval, utility-gradient rate controller.
//!
//! PCC (Dong, Li, Zarchy, Godfrey, Schapira — NSDI'15) divides time into
//! monitor intervals (MIs) of roughly one RTT, observes the loss rate each
//! MI produced, scores it with a utility function, and moves its rate in
//! the direction that empirically increases utility. The paper uses PCC as
//! the robustness/aggressiveness comparator for Robust-AIMD in Table 2 and
//! characterizes its competitive behaviour as *"strictly more aggressive
//! than MIMD(1.01, 0.99)"*.
//!
//! This module implements a **deterministic** in-model PCC: the fluid
//! model's time step is the MI and the per-step loss rate is the
//! SACK-learned MI loss rate. The utility is PCC v1's loss-based utility
//!
//! ```text
//! u(x, L) = x·(1 − L)·σ(L) − x·L,    σ(L) = 1 / (1 + e^{α(L − 0.05)})
//! ```
//!
//! (throughput, gated by a sigmoid cliff at 5% loss, minus a loss penalty),
//! and the controller hill-climbs: keep moving the rate in the current
//! direction while utility improves, amplifying the step; reverse and reset
//! the step when utility drops. The base step is `δ₀ = 0.01`, so the
//! controller's moves envelope MIMD(1.01, 0.99) exactly as the paper
//! assumes: while utility improves it multiplies its window by ≥ 1.01, and
//! a down-step multiplies by ≤ 0.99.
//!
//! The qualitative property Table 2 relies on: against AIMD cross-traffic,
//! loss below the 5% utility cliff barely dents `u`, so PCC keeps pushing —
//! far more aggressive than Reno — whereas Robust-AIMD backs off at its 1%
//! threshold.

use axcc_core::{Observation, Protocol};

/// Default base step size δ₀ (rate change per MI): 1%.
pub const DEFAULT_BASE_STEP: f64 = 0.01;
/// Default amplification per consecutive same-direction improving MI.
pub const DEFAULT_AMPLIFIER: f64 = 0.5;
/// Default cap on the per-MI rate change: 8%.
pub const DEFAULT_MAX_STEP: f64 = 0.08;
/// Default sigmoid steepness α of the 5% loss cliff.
pub const DEFAULT_SIGMOID_STEEPNESS: f64 = 100.0;
/// Loss rate at which the sigmoid penalty is centered (PCC v1 uses 5%).
pub const LOSS_CLIFF: f64 = 0.05;
/// Minimum window: PCC never stops probing entirely.
const MIN_WINDOW: f64 = 1.0;

/// The PCC-style protocol.
#[derive(Debug, Clone)]
pub struct Pcc {
    base_step: f64,
    amplifier: f64,
    max_step: f64,
    steepness: f64,
    // --- controller state ---
    direction: f64,
    step: f64,
    prev_utility: Option<f64>,
}

impl Pcc {
    /// PCC with the default (paper-faithful) controller constants.
    pub fn new() -> Self {
        Pcc::with_params(
            DEFAULT_BASE_STEP,
            DEFAULT_AMPLIFIER,
            DEFAULT_MAX_STEP,
            DEFAULT_SIGMOID_STEEPNESS,
        )
    }

    /// PCC with explicit controller constants (for ablation benches).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < base_step ≤ max_step < 1` and
    /// `amplifier ≥ 0`, `steepness > 0`.
    pub fn with_params(base_step: f64, amplifier: f64, max_step: f64, steepness: f64) -> Self {
        assert!(
            base_step > 0.0 && base_step <= max_step,
            "0 < base_step <= max_step"
        );
        assert!(max_step < 1.0, "max_step must be < 1");
        assert!(amplifier >= 0.0, "amplifier must be non-negative");
        assert!(steepness > 0.0, "sigmoid steepness must be positive");
        Pcc {
            base_step,
            amplifier,
            max_step,
            steepness,
            direction: 1.0,
            step: base_step,
            prev_utility: None,
        }
    }

    /// PCC v1's loss-based utility of sending window `x` under loss `l`.
    pub fn utility(&self, x: f64, l: f64) -> f64 {
        let sigmoid = 1.0 / (1.0 + (self.steepness * (l - LOSS_CLIFF)).exp());
        x * (1.0 - l) * sigmoid - x * l
    }
}

impl Default for Pcc {
    fn default() -> Self {
        Pcc::new()
    }
}

impl Protocol for Pcc {
    fn name(&self) -> String {
        "PCC".to_string()
    }

    fn next_window(&mut self, obs: &Observation) -> f64 {
        let u = self.utility(obs.window, obs.loss_rate);
        match self.prev_utility {
            None => {
                // First MI: probe upward.
                self.direction = 1.0;
                self.step = self.base_step;
            }
            Some(prev) => {
                if u > prev {
                    // Same direction, amplified step (rate-change
                    // amplification, as in PCC's default controller).
                    self.step = (self.step * (1.0 + self.amplifier)).min(self.max_step);
                } else {
                    // Utility dropped: reverse, reset amplification.
                    self.direction = -self.direction;
                    self.step = self.base_step;
                }
            }
        }
        self.prev_utility = Some(u);
        (obs.window * (1.0 + self.direction * self.step)).max(MIN_WINDOW)
    }

    fn loss_based(&self) -> bool {
        // This PCC variant's utility uses only throughput and loss.
        true
    }

    fn reset(&mut self) {
        self.direction = 1.0;
        self.step = self.base_step;
        self.prev_utility = None;
    }

    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utility_rewards_throughput_without_loss() {
        let p = Pcc::new();
        assert!(p.utility(100.0, 0.0) > p.utility(50.0, 0.0));
        assert!(p.utility(100.0, 0.0) > 0.0);
    }

    #[test]
    fn utility_cliff_at_five_percent() {
        let p = Pcc::new();
        // Just under the cliff: utility still clearly positive.
        assert!(p.utility(100.0, 0.04) > 0.0);
        // Past the cliff: sigmoid collapses, loss penalty dominates.
        assert!(p.utility(100.0, 0.10) < 0.0);
    }

    #[test]
    fn climbs_on_clean_link() {
        let mut p = Pcc::new();
        let mut w = 10.0;
        for t in 0..100 {
            let next = p.next_window(&Observation::loss_only(t, w, 0.0));
            assert!(next >= w, "t={t}: {next} < {w}");
            w = next;
        }
        assert!(w > 20.0, "climbed to {w}");
    }

    #[test]
    fn keeps_climbing_under_sub_cliff_random_loss() {
        // The robustness scenario that kills TCP: constant 1% loss.
        // PCC's utility still improves with rate, so it climbs.
        let mut p = Pcc::new();
        let mut w = 10.0;
        for t in 0..300 {
            w = p.next_window(&Observation::loss_only(t, w, 0.01));
        }
        assert!(w > 100.0, "climbed to {w}");
    }

    #[test]
    fn retreats_past_the_cliff() {
        // Heavy loss: utility is negative and decreasing in rate, so the
        // controller hunts downward.
        let mut p = Pcc::new();
        let mut w = 1000.0;
        for t in 0..200 {
            w = p.next_window(&Observation::loss_only(t, w, 0.20));
        }
        assert!(w < 1000.0, "retreated to {w}");
    }

    #[test]
    fn step_amplifies_and_resets() {
        let mut p = Pcc::new();
        let mut w = 10.0;
        // Clean link: utility improves every MI, step amplifies to the cap.
        for t in 0..20 {
            w = p.next_window(&Observation::loss_only(t, w, 0.0));
        }
        assert!((p.step - DEFAULT_MAX_STEP).abs() < 1e-12);
        // One bad MI (utility crash): direction flips, step resets.
        p.next_window(&Observation::loss_only(20, w, 0.5));
        assert_eq!(p.step, DEFAULT_BASE_STEP);
        assert_eq!(p.direction, -1.0);
    }

    #[test]
    fn never_below_min_window() {
        let mut p = Pcc::new();
        let mut w = 1.0;
        for t in 0..50 {
            w = p.next_window(&Observation::loss_only(t, w, 0.9));
            assert!(w >= 1.0);
        }
    }

    #[test]
    fn envelope_is_mimd_1_01_0_99() {
        // A single step never moves the rate by more than ±max_step, and
        // the first probing step is exactly +1% — the MIMD(1.01, 0.99)
        // envelope the paper cites.
        let mut p = Pcc::new();
        let w = p.next_window(&Observation::loss_only(0, 100.0, 0.0));
        assert!((w - 101.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_after_reset() {
        let mut p = Pcc::new();
        let run = |p: &mut Pcc| {
            let mut w = 10.0;
            let mut out = Vec::new();
            for t in 0..60 {
                let loss = if t % 17 == 16 { 0.08 } else { 0.0 };
                w = p.next_window(&Observation::loss_only(t, w, loss));
                out.push(w);
            }
            out
        };
        let a = run(&mut p);
        p.reset();
        let b = run(&mut p);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "base_step <= max_step")]
    fn rejects_inverted_steps() {
        Pcc::with_params(0.1, 0.5, 0.05, 100.0);
    }
}
