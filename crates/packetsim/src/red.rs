//! RED — Random Early Detection (Floyd–Jacobson 1993), the second classic
//! in-network queueing discipline (§6's "in-network queueing" direction,
//! alongside the step-marking ECN in [`crate::queue`]).
//!
//! RED tracks an EWMA of the queue depth and, between two thresholds,
//! drops (or marks) arriving packets with a probability that rises
//! linearly from 0 to `max_p`; above the upper threshold everything is
//! dropped/marked. Early, *randomized* congestion signals desynchronize
//! flows and keep the average queue short — the property the droptail
//! experiments in this repository conspicuously lack (synchronized burst
//! drops are exactly what the recovery-discounting logic has to clean up
//! after).
//!
//! The implementation is deterministic per scenario seed (the drop
//! decisions draw from the engine's ChaCha8 stream).

use serde::{Deserialize, Serialize};

/// RED parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RedConfig {
    /// Lower average-depth threshold (packets): below it, never signal.
    pub min_th: f64,
    /// Upper average-depth threshold (packets): above it, always signal.
    pub max_th: f64,
    /// Signal probability at `max_th` (the linear ramp's top).
    pub max_p: f64,
    /// EWMA weight for the average queue depth (classic value: 0.002;
    /// this simulator updates per arrival like the original).
    pub weight: f64,
    /// Whether the signal is an ECN mark (`true`) or an early drop.
    pub mark: bool,
}

impl RedConfig {
    /// The classic "gentle-ish" configuration for a buffer of `tau`
    /// packets: thresholds at τ/4 and 3τ/4, `max_p` = 10%, weight 0.02
    /// (scaled up from the wire-speed classic 0.002 because this model's
    /// arrivals are MSS-sized), dropping.
    pub fn classic(tau: f64) -> Self {
        RedConfig {
            min_th: tau / 4.0,
            max_th: 3.0 * tau / 4.0,
            max_p: 0.1,
            weight: 0.02,
            mark: false,
        }
    }

    /// The same thresholds but marking instead of dropping (RED + ECN).
    pub fn classic_marking(tau: f64) -> Self {
        RedConfig {
            mark: true,
            ..Self::classic(tau)
        }
    }

    /// Check parameter domains — `0 ≤ min_th < max_th`, `0 < max_p ≤ 1`,
    /// `0 < weight ≤ 1` — returning a typed error naming the first
    /// violated one.
    pub fn check(&self) -> Result<(), axcc_core::ScenarioError> {
        use axcc_core::error::require;
        let min_th_ok = self.min_th >= 0.0 && self.min_th < self.max_th;
        require(min_th_ok, "red.min_th", self.min_th, "0 <= min_th < max_th")?;
        let unit = |v: f64| v > 0.0 && v <= 1.0;
        require(unit(self.max_p), "red.max_p", self.max_p, "in (0,1]")?;
        require(unit(self.weight), "red.weight", self.weight, "in (0,1]")
    }
}

/// RED's per-arrival decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedVerdict {
    /// Admit the packet untouched.
    Pass,
    /// Admit the packet with an ECN mark.
    Mark,
    /// Drop the packet early.
    EarlyDrop,
}

/// RED state: the averaged queue depth.
#[derive(Debug, Clone)]
pub struct Red {
    config: RedConfig,
    avg: f64,
}

impl Red {
    /// A RED instance with the given configuration, which
    /// [`RedConfig::check`] must accept (`PacketScenario::validate` runs
    /// it before the engine builds one).
    pub fn new(config: RedConfig) -> Self {
        debug_assert!(config.check().is_ok());
        Red { config, avg: 0.0 }
    }

    /// The current averaged depth.
    pub fn avg_depth(&self) -> f64 {
        self.avg
    }

    /// Decide the fate of an arriving packet given the *instantaneous*
    /// queue depth and a uniform random draw `u ∈ [0, 1)` (supplied by the
    /// caller so the engine's single seeded stream stays the only source
    /// of randomness).
    pub fn on_arrival(&mut self, instantaneous_depth: usize, u: f64) -> RedVerdict {
        let cfg = self.config;
        self.avg = (1.0 - cfg.weight) * self.avg + cfg.weight * instantaneous_depth as f64;
        let p = if self.avg < cfg.min_th {
            0.0
        } else if self.avg >= cfg.max_th {
            1.0
        } else {
            cfg.max_p * (self.avg - cfg.min_th) / (cfg.max_th - cfg.min_th)
        };
        if u < p {
            if cfg.mark {
                RedVerdict::Mark
            } else {
                RedVerdict::EarlyDrop
            }
        } else {
            RedVerdict::Pass
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn red(min_th: f64, max_th: f64, max_p: f64, weight: f64) -> Red {
        Red::new(RedConfig {
            min_th,
            max_th,
            max_p,
            weight,
            mark: false,
        })
    }

    #[test]
    fn below_min_th_never_signals() {
        let mut r = red(5.0, 15.0, 0.1, 1.0); // weight 1: avg = instantaneous
        for depth in 0..5 {
            assert_eq!(r.on_arrival(depth, 0.0), RedVerdict::Pass);
        }
    }

    #[test]
    fn above_max_th_always_signals() {
        let mut r = red(5.0, 15.0, 0.1, 1.0);
        assert_eq!(r.on_arrival(20, 0.999), RedVerdict::EarlyDrop);
    }

    #[test]
    fn linear_ramp_between_thresholds() {
        // At avg exactly halfway: p = max_p/2.
        let mut r = red(5.0, 15.0, 0.2, 1.0);
        // depth 10 => p = 0.1.
        assert_eq!(r.on_arrival(10, 0.0999), RedVerdict::EarlyDrop);
        let mut r = red(5.0, 15.0, 0.2, 1.0);
        assert_eq!(r.on_arrival(10, 0.1001), RedVerdict::Pass);
    }

    #[test]
    fn marking_variant_marks() {
        let mut r = Red::new(RedConfig {
            mark: true,
            min_th: 5.0,
            max_th: 15.0,
            max_p: 0.1,
            weight: 1.0, // avg = instantaneous for the test
        });
        assert_eq!(r.on_arrival(100, 0.0), RedVerdict::Mark);
    }

    #[test]
    fn ewma_smooths_bursts() {
        let mut r = red(5.0, 15.0, 0.1, 0.02);
        // One instantaneous burst to depth 100 barely moves the average.
        r.on_arrival(100, 0.999);
        assert!(r.avg_depth() < 3.0, "avg {}", r.avg_depth());
        // Sustained depth does move it.
        for _ in 0..200 {
            r.on_arrival(100, 0.999);
        }
        assert!(r.avg_depth() > 90.0, "avg {}", r.avg_depth());
    }

    #[test]
    fn classic_config_shapes() {
        let c = RedConfig::classic(100.0);
        assert_eq!(c.min_th, 25.0);
        assert_eq!(c.max_th, 75.0);
        assert!(!c.mark);
        assert!(RedConfig::classic_marking(100.0).mark);
    }

    #[test]
    fn check_refuses_each_constraint() {
        use axcc_core::ScenarioError::InvalidParameter;
        let good = RedConfig::classic(100.0);
        assert_eq!(good.check(), Ok(()));
        let field = |c: RedConfig| match c.check() {
            Err(InvalidParameter { field, .. }) => field,
            other => panic!("{c:?}: expected InvalidParameter, got {other:?}"),
        };
        for bad in [
            RedConfig {
                min_th: 10.0,
                max_th: 5.0,
                ..good
            },
            RedConfig {
                min_th: -1.0,
                ..good
            },
            RedConfig {
                min_th: f64::NAN,
                ..good
            },
        ] {
            assert_eq!(field(bad), "red.min_th");
        }
        for max_p in [0.0, 1.5, f64::NAN] {
            assert_eq!(field(RedConfig { max_p, ..good }), "red.max_p");
        }
        for weight in [0.0, -0.1, 2.0, f64::NAN] {
            assert_eq!(field(RedConfig { weight, ..good }), "red.weight");
        }
    }
}
