//! **Extension metrics** — beyond the paper's eight.
//!
//! Section 6 of the paper explicitly invites this: *"What other metrics of
//! performance, fairness, etc., should be incorporated into our axiomatic
//! approach (see \[12\] for a discussion of evaluation metrics)?"* — \[12\] is
//! RFC 5166, *Metrics for the Evaluation of Congestion Control
//! Mechanisms*, whose list includes **smoothness** (magnitude of rate
//! oscillations) and **responsiveness** (reaction time to changes in
//! network conditions). This module formalizes both in the paper's
//! parameterized style. They are *extensions*: no Table 1 column, theorem,
//! or experiment in the paper depends on them, and the experiment harness
//! reports them separately.
//!
//! **Smoothness.** A protocol P is α-smooth, α ∈ \[0, 1\], if when all
//! senders employ P, for any initial configuration, there is some T such
//! that from T onwards every sender's window satisfies
//! `x^(t+1) ≥ α·x^(t)` — no step cuts the rate by more than a factor α.
//! AIMD(a, b) is exactly b-smooth; equation-based protocols motivated
//! their design by scoring high here.
//!
//! **Responsiveness.** After the link's capacity changes at a known step,
//! a protocol is (β, T)-responsive if within T steps its total window
//! re-attains a β-fraction of the *new* capacity. This metric needs the
//! time-varying links provided by `axcc-fluidsim`'s
//! `Scenario::bandwidth_change`.

use crate::trace::RunTrace;

/// The largest `α` such that `x^(t+1) ≥ α·x^(t)` holds for every sender
/// over the tail: the worst single-step retain ratio. 1.0 when no window
/// ever decreases (or the tail is too short to have a transition).
pub fn measured_smoothness(trace: &RunTrace, tail_start: usize) -> f64 {
    let from = tail_start.min(trace.len());
    let mut worst = 1.0_f64;
    for s in &trace.senders {
        for t in from.max(1)..s.len() {
            let prev = s.window[t - 1];
            if prev > 0.0 {
                worst = worst.min(s.window[t] / prev);
            }
        }
    }
    worst.clamp(0.0, 1.0)
}

/// Whether the trace witnesses `α`-smoothness over its tail.
pub fn satisfies_smoothness(trace: &RunTrace, tail_start: usize, alpha: f64) -> bool {
    measured_smoothness(trace, tail_start) >= alpha - 1e-12
}

/// Steps from `event_step` until the total window first reaches
/// `beta · c_new` (the β-fraction of the post-change capacity).
///
/// Returns `None` if it never does within the trace — the protocol was
/// not (β, T)-responsive for any T the run can witness.
pub fn steps_to_reclaim(
    trace: &RunTrace,
    event_step: usize,
    c_new: f64,
    beta: f64,
) -> Option<usize> {
    let target = beta * c_new;
    trace.total_window[event_step.min(trace.len())..]
        .iter()
        .position(|&x| x >= target)
}

/// Whether the trace witnesses (β, T)-responsiveness for the capacity
/// change at `event_step`.
pub fn satisfies_responsiveness(
    trace: &RunTrace,
    event_step: usize,
    c_new: f64,
    beta: f64,
    t_max: usize,
) -> bool {
    matches!(steps_to_reclaim(trace, event_step, c_new, beta), Some(t) if t <= t_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::testutil::{small_link, trace_from_windows};

    #[test]
    fn aimd_sawtooth_smoothness_is_b() {
        // Sawtooth halving at the peak: worst step ratio is 0.5.
        let w: Vec<f64> = (0..40)
            .map(|t| {
                let phase = t % 10;
                if phase == 0 {
                    50.0
                } else {
                    50.0 + phase as f64 * 5.0
                }
            })
            .collect();
        let tr = trace_from_windows(small_link(), &[w]);
        // Peak 95 → 50: ratio 50/95 ≈ 0.526.
        let s = measured_smoothness(&tr, 0);
        assert!((s - 50.0 / 95.0).abs() < 1e-9, "smoothness {s}");
        assert!(satisfies_smoothness(&tr, 0, 0.5));
        assert!(!satisfies_smoothness(&tr, 0, 0.6));
    }

    #[test]
    fn monotone_growth_is_perfectly_smooth() {
        let w: Vec<f64> = (0..20).map(|t| 10.0 + t as f64).collect();
        let tr = trace_from_windows(small_link(), &[w]);
        assert_eq!(measured_smoothness(&tr, 0), 1.0);
    }

    #[test]
    fn worst_sender_dominates_smoothness() {
        let smooth = vec![50.0; 20];
        let mut rough = vec![50.0; 20];
        rough[10] = 10.0; // one deep cut: 10/50 = 0.2
        let tr = trace_from_windows(small_link(), &[smooth, rough]);
        assert!((measured_smoothness(&tr, 0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tail_excludes_transient_cuts() {
        let mut w = vec![100.0, 1.0]; // brutal early cut
        w.extend(vec![50.0; 18]);
        let tr = trace_from_windows(small_link(), &[w]);
        assert!(measured_smoothness(&tr, 0) < 0.05);
        assert_eq!(measured_smoothness(&tr, 5), 1.0);
    }

    #[test]
    fn reclaim_counting() {
        // Capacity "doubles" at step 5; window climbs 10/step from 60.
        let w: Vec<f64> = (0..30)
            .map(|t| {
                if t < 5 {
                    60.0
                } else {
                    60.0 + (t - 5) as f64 * 10.0
                }
            })
            .collect();
        let tr = trace_from_windows(small_link(), &[w]);
        // Target 0.8 × 200 = 160: reached at offset 10 past the event
        // (60 + 10·10 = 160).
        assert_eq!(steps_to_reclaim(&tr, 5, 200.0, 0.8), Some(10));
        assert!(satisfies_responsiveness(&tr, 5, 200.0, 0.8, 10));
        assert!(!satisfies_responsiveness(&tr, 5, 200.0, 0.8, 9));
    }

    #[test]
    fn reclaim_never_reached() {
        let tr = trace_from_windows(small_link(), &[vec![60.0; 20]]);
        assert_eq!(steps_to_reclaim(&tr, 5, 500.0, 0.8), None);
        assert!(!satisfies_responsiveness(&tr, 5, 500.0, 0.8, 1000));
    }

    #[test]
    fn zero_windows_do_not_poison_smoothness() {
        let w = vec![0.0, 0.0, 5.0, 6.0];
        let tr = trace_from_windows(small_link(), &[w]);
        assert_eq!(measured_smoothness(&tr, 0), 1.0);
    }
}
