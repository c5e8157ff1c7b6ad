//! The fluid engine's sampler for non-congestion ("wire") loss.
//!
//! The loss model itself, [`LossModel`], lives in `axcc-core` and is
//! shared with the packet engine. The fluid model carries loss as a
//! per-step *rate*, so wire loss composes with congestion loss
//! independently:
//!
//! ```text
//! L_eff = 1 − (1 − L_congestion) · (1 − L_wire)
//! ```
//!
//! Per step and per sender, the models sample as:
//!
//! * [`LossModel::Constant`] — exactly the given rate; this is the literal
//!   reading of the axiom and is fully deterministic.
//! * [`LossModel::Bernoulli`] — the loss fraction `k/⌈w⌉` with
//!   `k ~ Binomial(⌈w⌉, rate)`: the packet-level reality the rate
//!   abstracts. Small windows then see *bursty* loss (often 0,
//!   occasionally ≥ 1 packet), which is exactly what breaks TCP in
//!   practice and makes the robustness experiments more faithful.
//! * [`LossModel::GilbertElliott`] — a two-state Markov chain per sender
//!   whose state emits the step's rate: the classic model of *correlated*
//!   loss (wireless fades, interference bursts) and the substrate of the
//!   adverse-network gauntlet.
//!
//! Gilbert–Elliott is *stateful* (the chain's state persists across
//! steps), so sampling goes through [`LossProcess`], which owns one chain
//! per sender.

pub use axcc_core::LossModel;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

/// The runtime sampler for a [`LossModel`]: owns the per-sender
/// Gilbert–Elliott chain states (all chains start in the good state).
///
/// For the stateless variants this is a zero-state pass-through whose RNG
/// consumption exactly matches the historical engine: `None`/`Constant`
/// never draw, `Bernoulli` draws per packet. Gilbert–Elliott draws exactly
/// one transition uniform per sampled step.
#[derive(Debug, Clone)]
pub struct LossProcess {
    model: LossModel,
    /// Per-sender "currently in bad state" flags (Gilbert–Elliott only).
    in_bad: Vec<bool>,
}

impl LossProcess {
    /// A process for `model` serving `n_senders` independent chains.
    pub fn new(model: LossModel, n_senders: usize) -> Self {
        let mut process = LossProcess {
            model,
            in_bad: Vec::new(),
        };
        process.reset(model, n_senders);
        process
    }

    /// Re-arm the process for a new run, reusing its flag storage: every
    /// chain restarts in the good state. Only Gilbert–Elliott carries
    /// per-sender state, so the other models allocate nothing.
    pub fn reset(&mut self, model: LossModel, n_senders: usize) {
        // A zero Bernoulli rate never draws and always samples 0.0, so it
        // runs as `None`: the same bits without a sampling call per step.
        self.model = match model {
            LossModel::Bernoulli { rate: 0.0 } => LossModel::None,
            model => model,
        };
        self.in_bad.clear();
        if matches!(model, LossModel::GilbertElliott { .. }) {
            self.in_bad.resize(n_senders, false);
        }
    }

    /// The wire-loss fraction sender `sender` with window `window`
    /// experiences this step.
    pub fn sample(&mut self, rng: &mut ChaCha8Rng, sender: usize, window: f64) -> f64 {
        match self.model {
            LossModel::None => 0.0,
            LossModel::Constant { rate } => rate,
            LossModel::Bernoulli { rate } => sample_loss_fraction(rng, window, rate),
            LossModel::GilbertElliott {
                p_enter,
                p_exit,
                loss_good,
                loss_bad,
            } => {
                let bad = self.in_bad[sender];
                let emitted = if bad { loss_bad } else { loss_good };
                let u = rng.gen::<f64>();
                self.in_bad[sender] = if bad { u >= p_exit } else { u < p_enter };
                emitted
            }
        }
    }
}

impl Default for LossProcess {
    /// A lossless process with no chains.
    fn default() -> Self {
        LossProcess::new(LossModel::None, 0)
    }
}

/// Compose congestion loss and wire loss as independent drop processes.
///
/// The model's loss rates are strictly below 1 (`1 − (C+τ)/X` and the
/// samplers both are), but composing two near-1 rates can *round* to
/// exactly 1.0 in `f64`; the result is clamped back under 1 so traces
/// always satisfy the `L ∈ [0, 1)` invariant.
pub fn compose_loss(congestion: f64, wire: f64) -> f64 {
    (1.0 - (1.0 - congestion) * (1.0 - wire)).min(1.0 - f64::EPSILON)
}

/// Sample the loss *fraction* a window of `window` MSS experiences when
/// each of its packets is dropped independently with probability `rate`:
/// `k/⌈window⌉` with `k ~ Binomial(⌈window⌉, rate)`.
///
/// Shared by the Bernoulli wire-loss model and the per-packet
/// (unsynchronized) congestion-feedback mode.
pub fn sample_loss_fraction(rng: &mut ChaCha8Rng, window: f64, rate: f64) -> f64 {
    if window <= 0.0 || rate <= 0.0 {
        return 0.0;
    }
    let n = window.ceil() as u64;
    let k = sample_binomial(rng, n, rate.min(1.0 - f64::EPSILON));
    (k as f64 / n as f64).min(1.0 - f64::EPSILON)
}

/// Draw from Binomial(n, p).
///
/// Exact Bernoulli summation for small `n` (one uniform draw per packet,
/// counted in place by [`RngCore::count_below`]); for large `n` a normal
/// approximation (clamped to `[0, n]`) keeps steps O(1) — at `n·p ≫ 10` the
/// approximation error is far below the model's own fidelity.
fn sample_binomial(rng: &mut ChaCha8Rng, n: u64, p: f64) -> u64 {
    if n <= 1024 {
        rng.count_below(n, p)
    } else {
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        // Box-Muller from two uniforms.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + sd * z).round().clamp(0.0, n as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn one(model: LossModel, r: &mut ChaCha8Rng, window: f64) -> f64 {
        LossProcess::new(model, 1).sample(r, 0, window)
    }

    #[test]
    fn none_is_zero() {
        let mut r = rng(1);
        assert_eq!(one(LossModel::None, &mut r, 100.0), 0.0);
    }

    #[test]
    fn constant_is_exact() {
        let mut r = rng(1);
        let m = LossModel::Constant { rate: 0.01 };
        for w in [0.5, 1.0, 100.0, 1e6] {
            assert_eq!(one(m, &mut r, w), 0.01);
        }
    }

    #[test]
    fn bernoulli_mean_converges_to_rate() {
        let mut r = rng(42);
        let mut p = LossProcess::new(LossModel::Bernoulli { rate: 0.05 }, 1);
        let trials = 4000;
        let mean: f64 =
            (0..trials).map(|_| p.sample(&mut r, 0, 100.0)).sum::<f64>() / trials as f64;
        assert!((mean - 0.05).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn bernoulli_large_window_normal_path() {
        let mut r = rng(7);
        let mut p = LossProcess::new(LossModel::Bernoulli { rate: 0.01 }, 1);
        let trials = 2000;
        let mean: f64 = (0..trials)
            .map(|_| p.sample(&mut r, 0, 50_000.0))
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 0.01).abs() < 0.001, "mean {mean}");
    }

    #[test]
    fn bernoulli_zero_window_is_lossless() {
        let mut r = rng(3);
        assert_eq!(one(LossModel::Bernoulli { rate: 0.5 }, &mut r, 0.0), 0.0);
    }

    #[test]
    fn bernoulli_small_window_is_bursty() {
        // With w = 2 and rate 0.05 most steps see zero loss, a few see 50%+.
        let mut r = rng(9);
        let mut p = LossProcess::new(LossModel::Bernoulli { rate: 0.05 }, 1);
        let samples: Vec<f64> = (0..500).map(|_| p.sample(&mut r, 0, 2.0)).collect();
        let zeros = samples.iter().filter(|&&s| s == 0.0).count();
        let bursts = samples.iter().filter(|&&s| s >= 0.5).count();
        assert!(zeros > 400, "zeros {zeros}");
        assert!(bursts > 5, "bursts {bursts}");
    }

    #[test]
    fn sample_never_reaches_one() {
        let mut r = rng(11);
        let mut p = LossProcess::new(LossModel::Bernoulli { rate: 0.99 }, 1);
        for _ in 0..200 {
            assert!(p.sample(&mut r, 0, 3.0) < 1.0);
        }
    }

    #[test]
    fn composition_algebra() {
        assert_eq!(compose_loss(0.0, 0.0), 0.0);
        assert!((compose_loss(0.5, 0.0) - 0.5).abs() < 1e-12);
        assert!((compose_loss(0.0, 0.01) - 0.01).abs() < 1e-12);
        // Independent composition: 1 − 0.9·0.8 = 0.28.
        assert!((compose_loss(0.1, 0.2) - 0.28).abs() < 1e-12);
    }

    #[test]
    fn determinism_per_seed() {
        let m = LossModel::Bernoulli { rate: 0.1 };
        let mut r1 = rng(5);
        let mut r2 = rng(5);
        let mut p1 = LossProcess::new(m, 1);
        let mut p2 = LossProcess::new(m, 1);
        for _ in 0..100 {
            assert_eq!(p1.sample(&mut r1, 0, 50.0), p2.sample(&mut r2, 0, 50.0));
        }
    }

    #[test]
    fn gilbert_elliott_long_run_rate_matches_stationary() {
        let m = LossModel::bursty(0.02, 8.0, 0.25);
        let mut r = rng(17);
        let mut p = LossProcess::new(m, 1);
        let steps = 200_000;
        let mean: f64 = (0..steps).map(|_| p.sample(&mut r, 0, 100.0)).sum::<f64>() / steps as f64;
        assert!((mean - 0.02).abs() < 0.003, "long-run mean {mean}");
    }

    #[test]
    fn gilbert_elliott_emits_bursts_not_uniform_dust() {
        // With burst_len = 10 the loss arrives in runs of bad-state steps.
        let m = LossModel::bursty(0.02, 10.0, 0.2);
        let mut r = rng(23);
        let mut p = LossProcess::new(m, 1);
        let samples: Vec<f64> = (0..20_000).map(|_| p.sample(&mut r, 0, 50.0)).collect();
        // Count maximal runs of lossy steps and their mean length.
        let mut runs = Vec::new();
        let mut current = 0usize;
        for &s in &samples {
            if s > 0.0 {
                current += 1;
            } else if current > 0 {
                runs.push(current);
                current = 0;
            }
        }
        if current > 0 {
            runs.push(current);
        }
        assert!(!runs.is_empty());
        let mean_run = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        assert!(
            (mean_run - 10.0).abs() < 2.5,
            "mean burst length {mean_run}, expected ~10"
        );
    }

    #[test]
    fn only_gilbert_elliott_allocates_chain_flags() {
        for m in [
            LossModel::None,
            LossModel::Constant { rate: 0.01 },
            LossModel::Bernoulli { rate: 0.01 },
        ] {
            assert_eq!(LossProcess::new(m, 64).in_bad.capacity(), 0, "{m:?}");
        }
        let mut p = LossProcess::new(LossModel::bursty(0.05, 5.0, 0.5), 8);
        assert_eq!(p.in_bad, vec![false; 8]);
        // A reset restarts every chain in the good state on the same storage.
        p.in_bad[3] = true;
        let storage = p.in_bad.as_ptr();
        p.reset(LossModel::bursty(0.05, 5.0, 0.5), 8);
        assert_eq!(p.in_bad, vec![false; 8]);
        assert_eq!(p.in_bad.as_ptr(), storage);
    }

    #[test]
    fn gilbert_elliott_chains_are_per_sender() {
        // Two senders' chains evolve independently: their loss sequences
        // must differ (each consumes its own transition draws).
        let m = LossModel::bursty(0.05, 5.0, 0.5);
        let mut r = rng(31);
        let mut p = LossProcess::new(m, 2);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..5000 {
            a.push(p.sample(&mut r, 0, 10.0));
            b.push(p.sample(&mut r, 1, 10.0));
        }
        assert_ne!(a, b);
        assert!(a.iter().any(|&x| x > 0.0));
        assert!(b.iter().any(|&x| x > 0.0));
    }
}
