//! Non-congestion ("wire") loss: the one impairment of the paper's model.
//!
//! Metric VI quantifies robustness against *"constant random packet loss
//! rate of at most α"* on a link of infinite capacity — loss that does not
//! signal congestion (wireless corruption, shallow-buffered middleboxes,
//! etc.; the scenario PCC's authors use to motivate that protocol).
//!
//! [`LossModel`] describes that loss once for both engines; each engine
//! samples it in its own unit:
//!
//! * the fluid engine (`axcc-fluidsim`'s `LossProcess`) per RTT step and
//!   per sender — one Gilbert–Elliott chain per sender, and a
//!   `Bernoulli` step loses `k/⌈w⌉` of a `w`-MSS window with
//!   `k ~ Binomial(⌈w⌉, rate)`;
//! * the packet engine (`axcc-packetsim`) per departing packet — one
//!   Gilbert–Elliott chain per link, and a `Bernoulli` coin per packet.
//!   It refuses [`LossModel::Constant`]: a per-step rate has no
//!   per-packet meaning.
//!
//! Both draw from the scenario's seeded ChaCha8 stream, so a run is a
//! pure function of its scenario and seed.

use crate::error::ScenarioError;
use serde::{Deserialize, Serialize};

/// A non-congestion loss model on the data path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossModel {
    /// No wire loss (the paper's deterministic core model).
    None,
    /// Constant loss rate each step — the literal Metric VI scenario.
    /// Fluid engine only.
    Constant {
        /// The loss rate applied every step, in `[0, 1)`.
        rate: f64,
    },
    /// Independent per-packet loss.
    Bernoulli {
        /// Per-packet drop probability, in `[0, 1)`.
        rate: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) bursty loss: a mostly-clean
    /// *good* state and a lossy *bad* state with geometric sojourns. Each
    /// sample, the chain's current state emits its loss rate, then the
    /// chain transitions; `1/p_exit` is the mean burst length in samples
    /// (steps in the fluid engine, packets in the packet engine).
    GilbertElliott {
        /// P(good → bad) per sample, in `[0, 1]`.
        p_enter: f64,
        /// P(bad → good) per sample, in `(0, 1]`.
        p_exit: f64,
        /// Loss rate emitted in the good state, in `[0, 1)` (usually 0).
        loss_good: f64,
        /// Loss rate emitted in the bad state, in `[0, 1)`.
        loss_bad: f64,
    },
}

impl LossModel {
    /// A Gilbert–Elliott model parameterized the way experiments think
    /// about it: a long-run `mean_rate`, a mean burst length of
    /// `burst_len` samples, and a bad-state loss rate `loss_bad`
    /// (good state is clean).
    ///
    /// Solving the stationary distribution `π_bad = p_enter/(p_enter+p_exit)`:
    /// `π_bad = mean_rate/loss_bad`, `p_exit = 1/burst_len`, and
    /// `p_enter = π_bad·p_exit/(1−π_bad)`.
    ///
    /// With `burst_len = 1` the chain has no memory beyond a single
    /// sample — the closest GE analogue of uniform loss — so sweeping
    /// `burst_len` at fixed `mean_rate` isolates *burstiness* as the
    /// experimental variable.
    pub fn bursty(mean_rate: f64, burst_len: f64, loss_bad: f64) -> Self {
        let pi_bad = if loss_bad > 0.0 {
            mean_rate / loss_bad
        } else {
            f64::NAN
        };
        let p_exit = if burst_len > 0.0 {
            1.0 / burst_len
        } else {
            f64::NAN
        };
        let p_enter = pi_bad * p_exit / (1.0 - pi_bad);
        LossModel::GilbertElliott {
            p_enter,
            p_exit,
            loss_good: 0.0,
            loss_bad,
        }
    }

    /// The model's long-run mean rate (0 for [`LossModel::None`]).
    pub fn nominal_rate(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Constant { rate } | LossModel::Bernoulli { rate } => rate,
            LossModel::GilbertElliott {
                p_enter,
                p_exit,
                loss_good,
                loss_bad,
            } => {
                let pi_bad = p_enter / (p_enter + p_exit);
                pi_bad * loss_bad + (1.0 - pi_bad) * loss_good
            }
        }
    }

    /// Check the model's parameter domains: the typed refusal both
    /// engines' `validate` return.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let rate_ok = |r: f64| (0.0..1.0).contains(&r);
        let refuse = |msg: String| Err(ScenarioError::InvalidLossModel(msg));
        match *self {
            LossModel::None => Ok(()),
            LossModel::Constant { rate } | LossModel::Bernoulli { rate } => {
                if rate_ok(rate) {
                    Ok(())
                } else {
                    refuse(format!("wire loss rate {rate} outside [0,1)"))
                }
            }
            LossModel::GilbertElliott {
                p_enter,
                p_exit,
                loss_good,
                loss_bad,
            } => {
                if !(0.0..=1.0).contains(&p_enter) {
                    refuse(format!("Gilbert-Elliott p_enter {p_enter} outside [0,1]"))
                } else if !(p_exit > 0.0 && p_exit <= 1.0) {
                    refuse(format!("Gilbert-Elliott p_exit {p_exit} outside (0,1]"))
                } else if !rate_ok(loss_good) {
                    refuse(format!(
                        "Gilbert-Elliott loss_good {loss_good} outside [0,1)"
                    ))
                } else if !rate_ok(loss_bad) {
                    refuse(format!("Gilbert-Elliott loss_bad {loss_bad} outside [0,1)"))
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(LossModel::None.validate().is_ok());
        assert_eq!(LossModel::None.nominal_rate(), 0.0);
        assert!(LossModel::Constant { rate: 0.5 }.validate().is_ok());
        assert!(LossModel::Constant { rate: 1.0 }.validate().is_err());
        assert!(LossModel::Bernoulli { rate: -0.1 }.validate().is_err());
        assert_eq!(
            LossModel::Bernoulli { rate: f64::NAN }.validate(),
            Err(ScenarioError::InvalidLossModel(
                "wire loss rate NaN outside [0,1)".into()
            ))
        );
    }

    #[test]
    fn gilbert_elliott_validation() {
        assert!(LossModel::bursty(0.01, 8.0, 0.2).validate().is_ok());
        // Mean rate above loss_bad is unrealizable (π_bad would exceed 1).
        assert!(LossModel::bursty(0.3, 8.0, 0.2).validate().is_err());
        assert!(LossModel::GilbertElliott {
            p_enter: 0.1,
            p_exit: 0.0,
            loss_good: 0.0,
            loss_bad: 0.5
        }
        .validate()
        .is_err());
        assert!(LossModel::GilbertElliott {
            p_enter: -0.1,
            p_exit: 0.5,
            loss_good: 0.0,
            loss_bad: 0.5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn bursty_constructor_hits_requested_mean() {
        for (mean, burst) in [(0.01, 1.0), (0.01, 8.0), (0.05, 16.0), (0.05, 10.0)] {
            let m = LossModel::bursty(mean, burst, 0.2);
            m.validate().unwrap();
            assert!(
                (m.nominal_rate() - mean).abs() < 1e-12,
                "nominal {} vs requested {mean}",
                m.nominal_rate()
            );
        }
    }
}
