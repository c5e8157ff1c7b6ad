//! CUBIC(c, b) — the paper's model of TCP Cubic (Ha–Rhee–Xu):
//!
//! ```text
//! x^(t+1) = x_max + c·(T − K)³    if L^(t) = 0,  K = (x_max(1−b)/c)^{1/3}
//!         = x_max · b             if L^(t) > 0
//! ```
//!
//! where `x_max` is the window at the last loss and `T` counts time steps
//! since that loss. The cubic is anchored so that immediately after a loss
//! (`T = 0`) the window is `x_max − c·K³ = b·x_max` — consistent with the
//! loss branch — and it re-crosses `x_max` exactly at `T = K`, growing
//! slowly near the previous saturation point and fast beyond it.
//!
//! Linux's Cubic corresponds to CUBIC(0.4, 0.8) in this parameterization
//! (the paper's Emulab experiments use exactly that instance).

use axcc_core::theory::ProtocolSpec;
use axcc_core::{Observation, Protocol};

/// The CUBIC(c, b) protocol.
#[derive(Debug, Clone)]
pub struct Cubic {
    c: f64,
    b: f64,
    /// Window at the last loss (`x_max`); `None` until the first
    /// observation anchors the cubic.
    x_max: Option<f64>,
    /// `plateau(x_max)` for the current anchor. The cube root is the
    /// protocol's only expensive operation and its input changes only
    /// when the anchor moves, so it is computed once per anchor here
    /// rather than once per step (same input bits, same result bits).
    /// It pays: without it a Reno-vs-Cubic evaluation miss in the serve
    /// daemon took about 23% longer (DESIGN.md §8).
    k: f64,
    /// Time steps since the last loss.
    t_since_loss: u64,
}

impl Cubic {
    /// CUBIC(c, b) with scaling factor `c > 0` and decrease factor
    /// `b ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics on parameters outside those domains.
    pub fn new(c: f64, b: f64) -> Self {
        assert!(c > 0.0, "CUBIC scaling factor must be positive");
        assert!(b > 0.0 && b < 1.0, "CUBIC decrease factor must be in (0,1)");
        Cubic {
            c,
            b,
            x_max: None,
            k: 0.0,
            t_since_loss: 0,
        }
    }

    /// Linux Cubic as the paper parameterizes it: CUBIC(0.4, 0.8).
    pub fn linux() -> Self {
        Cubic::new(0.4, 0.8)
    }

    /// The plateau distance `K = (x_max(1−b)/c)^{1/3}`: the number of steps
    /// after a loss at which the window re-reaches `x_max`.
    fn plateau(&self, x_max: f64) -> f64 {
        (x_max * (1.0 - self.b) / self.c).powf(1.0 / 3.0)
    }

    /// The analytic spec of this instance.
    pub fn spec(&self) -> ProtocolSpec {
        ProtocolSpec::Cubic {
            c: self.c,
            b: self.b,
        }
    }
}

impl Protocol for Cubic {
    fn name(&self) -> String {
        self.spec().name()
    }

    fn next_window(&mut self, obs: &Observation) -> f64 {
        if obs.loss_rate > 0.0 {
            // Anchor the cubic at the window that just saturated the link.
            self.x_max = Some(obs.window);
            self.k = self.plateau(obs.window);
            self.t_since_loss = 0;
            self.b * obs.window
        } else {
            // Before the first loss there is no anchor; grow from the
            // current window as if it were the anchor's floor (this mirrors
            // real Cubic's behaviour of tracking a synthetic x_max when none
            // has been recorded yet).
            let x_max = match self.x_max {
                Some(x) => x,
                None => {
                    let x = obs.window.max(1.0) / self.b;
                    self.x_max = Some(x);
                    self.k = self.plateau(x);
                    x
                }
            };
            self.t_since_loss += 1;
            let t = self.t_since_loss as f64;
            x_max + self.c * (t - self.k).powi(3)
        }
    }

    fn loss_based(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.x_max = None;
        self.k = 0.0;
        self.t_since_loss = 0;
    }

    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_sets_anchor_and_backs_off() {
        let mut p = Cubic::linux();
        let w = p.next_window(&Observation::loss_only(0, 100.0, 0.1));
        assert!((w - 80.0).abs() < 1e-12);
        assert_eq!(p.x_max, Some(100.0));
    }

    #[test]
    fn window_recrosses_x_max_at_plateau() {
        let mut p = Cubic::linux();
        // Loss at x = 100 anchors the cubic; K = (100·0.2/0.4)^{1/3} ≈ 3.68.
        let mut w = p.next_window(&Observation::loss_only(0, 100.0, 0.1));
        let k = p.plateau(100.0);
        for t in 1..=20 {
            w = p.next_window(&Observation::loss_only(t, w, 0.0));
            let tt = t as f64;
            if tt < k - 1.0 {
                assert!(w < 100.0, "below plateau at t={t}: {w}");
            }
            if tt > k + 1.0 {
                assert!(w > 100.0, "past plateau at t={t}: {w}");
            }
        }
    }

    #[test]
    fn growth_is_concave_then_convex() {
        let mut p = Cubic::linux();
        let mut w = p.next_window(&Observation::loss_only(0, 1000.0, 0.1));
        let mut gains = Vec::new();
        let mut prev = w;
        for t in 1..=25 {
            w = p.next_window(&Observation::loss_only(t, w, 0.0));
            gains.push(w - prev);
            prev = w;
        }
        let k = p.plateau(1000.0) as usize; // ≈ 7.9
                                            // Gains shrink approaching the plateau and grow after it.
        assert!(gains[0] > gains[k - 2], "{gains:?}");
        assert!(gains[gains.len() - 1] > gains[k], "{gains:?}");
    }

    #[test]
    fn first_step_without_loss_grows() {
        let mut p = Cubic::linux();
        let w = p.next_window(&Observation::loss_only(0, 10.0, 0.0));
        assert!(w > 0.0);
        // Deterministic continuation exists.
        let w2 = p.next_window(&Observation::loss_only(1, w, 0.0));
        assert!(w2 > w * 0.5);
    }

    #[test]
    fn reset_clears_anchor() {
        let mut p = Cubic::linux();
        p.next_window(&Observation::loss_only(0, 100.0, 0.1));
        assert!(p.x_max.is_some());
        p.reset();
        assert!(p.x_max.is_none());
        assert_eq!(p.t_since_loss, 0);
    }

    #[test]
    fn deterministic_after_reset() {
        let mut p = Cubic::linux();
        let run = |p: &mut Cubic| -> Vec<f64> {
            let mut w = 50.0;
            let mut out = Vec::new();
            for t in 0..40 {
                let loss = if t % 13 == 12 { 0.05 } else { 0.0 };
                w = p.next_window(&Observation::loss_only(t, w, loss));
                out.push(w);
            }
            out
        };
        let first = run(&mut p);
        p.reset();
        let second = run(&mut p);
        assert_eq!(first, second);
    }

    #[test]
    fn name_and_flags() {
        let p = Cubic::linux();
        assert_eq!(p.name(), "CUBIC(0.4,0.8)");
        assert!(p.loss_based());
    }

    #[test]
    #[should_panic(expected = "scaling factor must be positive")]
    fn rejects_zero_scaling() {
        Cubic::new(0.0, 0.8);
    }
}
