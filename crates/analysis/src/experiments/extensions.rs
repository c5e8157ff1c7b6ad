//! **Extension experiments** — the future-work directions of Section 6,
//! realized in-model:
//!
//! * **smoothness** (RFC 5166): worst single-step rate cut per protocol;
//! * **responsiveness**: steps to reclaim 80% of a doubled capacity
//!   (uses `axcc-fluidsim`'s time-varying links);
//! * **latency-avoidance across classes**: the Metric VIII column the
//!   paper omits (its protocols are all loss-based) becomes meaningful
//!   once Vegas and BBR join the lineup;
//! * **TFRC**: the equation-based design point (reference \[13\]) whose
//!   whole purpose is the smoothness column.

use crate::estimators::replay;
use crate::report::{fmt_score, TextTable};
use axcc_core::axioms::extensions::{measured_smoothness, steps_to_reclaim};
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::{LinkParams, Protocol};
use axcc_fluidsim::{MetricSet, Scenario, SenderConfig};
use axcc_protocols::{presets, Bbr, HighSpeed, Tfrc};
use axcc_sweep::{Cacheable, Record, SweepJob, SweepRunner};

/// One protocol's extension-metric measurements.
#[derive(Debug, Clone)]
pub struct ExtensionRow {
    /// Protocol name.
    pub protocol: String,
    /// Worst single-step retain ratio over the steady tail (1 = no cuts).
    pub smoothness: f64,
    /// Steps to reach 80% of the doubled capacity (`None`: never within
    /// the run).
    pub reclaim_steps: Option<usize>,
    /// Metric VIII inflation over the steady tail (∞ for protocols that
    /// keep overflowing the buffer).
    pub latency_inflation: f64,
}

/// The full extension report.
#[derive(Debug, Clone)]
pub struct ExtensionReport {
    /// One row per protocol.
    pub rows: Vec<ExtensionRow>,
}

/// The extended lineup: the paper's protocols plus the two non-loss-based
/// extensions.
pub fn extension_lineup() -> Vec<Box<dyn Protocol>> {
    vec![
        presets::reno(),
        presets::cubic(),
        presets::scalable_mimd(),
        presets::robust_aimd(0.01),
        presets::pcc(),
        presets::vegas(),
        Box::new(Bbr::new()),
        Box::new(Tfrc::new()),
        Box::new(HighSpeed::new()),
    ]
}

/// Standard link: the [`LinkParams::reference`] link (C = 100 MSS, τ = 20 MSS).
fn link() -> LinkParams {
    LinkParams::reference()
}

impl Cacheable for ExtensionRow {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push_str(&self.protocol);
        r.push_f64(self.smoothness);
        r.push_opt_usize(self.reclaim_steps);
        r.push_f64(self.latency_inflation);
        r
    }
    fn from_record(record: &Record) -> Option<Self> {
        let mut rd = record.reader();
        let row = ExtensionRow {
            protocol: rd.str()?.to_string(),
            smoothness: rd.f64()?,
            reclaim_steps: rd.opt_usize()?,
            latency_inflation: rd.f64()?,
        };
        rd.exhausted().then_some(row)
    }
}

/// One protocol's two extension runs (steady + capacity doubling).
/// Protocols are rebuilt from the lineup index inside `run`.
struct ExtensionJob {
    // tidy-allow: fingerprint-coverage — redundant with name: the lineup is fixed and names embed every constructor parameter, so equal names imply equal indices.
    index: usize,
    name: String,
    steps: usize,
}

impl Fingerprint for ExtensionJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str(&self.name);
        fp.write_usize(self.steps);
    }
}

impl SweepJob for ExtensionJob {
    type Output = ExtensionRow;
    fn run(&self) -> ExtensionRow {
        let lineup = extension_lineup();
        let proto = lineup[self.index].as_ref();
        let steps = self.steps;
        let event = (steps / 2) as u64;

        // Steady solo run for smoothness + latency.
        let steady = Scenario::new(link())
            .sender(SenderConfig::new(proto.clone_box()).initial_window(1.0))
            .steps(steps)
            .run();
        let tail = steady.tail_start(0.5);
        let smoothness = measured_smoothness(&steady, tail);
        let latency = replay(&steady, MetricSet::LATENCY).measured_latency_inflation();

        // Capacity-doubling run for responsiveness.
        let dynamic = Scenario::new(link())
            .sender(SenderConfig::new(proto.clone_box()).initial_window(1.0))
            .bandwidth_change(event, 2000.0)
            .steps(steps)
            .run();
        let c_new = 2000.0 * link().min_rtt();
        let reclaim = steps_to_reclaim(&dynamic, event as usize, c_new, 0.8);

        ExtensionRow {
            protocol: proto.name(),
            smoothness,
            reclaim_steps: reclaim,
            latency_inflation: latency,
        }
    }
}

/// Run the extension experiments with `steps` fluid steps per run
/// through a sweep runner: one job per lineup protocol.
pub fn run_extension_report_with(runner: &SweepRunner, steps: usize) -> ExtensionReport {
    let jobs: Vec<ExtensionJob> = extension_lineup()
        .iter()
        .enumerate()
        .map(|(index, proto)| ExtensionJob {
            index,
            name: proto.name(),
            steps,
        })
        .collect();
    let rows = runner.run_jobs("extensions/rows", &jobs);
    ExtensionReport { rows }
}

impl ExtensionReport {
    /// Render as a text table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "protocol",
            "smoothness",
            "reclaim (steps to 80% of 2C)",
            "latency inflation",
        ]);
        for r in &self.rows {
            t.row([
                r.protocol.clone(),
                fmt_score(r.smoothness),
                r.reclaim_steps
                    .map_or("never".to_string(), |s| s.to_string()),
                fmt_score(r.latency_inflation),
            ]);
        }
        format!(
            "Section 6 extensions — smoothness (RFC 5166), responsiveness to a capacity\n\
             doubling, and Metric VIII for the non-loss-based lineup\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothness_orders_by_backoff_factor() {
        let rep = run_extension_report_with(&SweepRunner::serial(), 1500);
        let get = |n: &str| {
            rep.rows
                .iter()
                .find(|r| r.protocol.starts_with(n))
                .unwrap_or_else(|| panic!("{n}"))
        };
        // Steady-state smoothness tracks the multiplicative-decrease
        // factor: Scalable (0.875) ≥ Cubic (0.8) ≥ Reno (0.5).
        let reno = get("AIMD(1,0.5)").smoothness;
        let cubic = get("CUBIC").smoothness;
        let scalable = get("MIMD").smoothness;
        assert!(
            scalable >= cubic - 0.02,
            "scalable {scalable} cubic {cubic}"
        );
        assert!(cubic >= reno - 0.02, "cubic {cubic} reno {reno}");
        assert!((reno - 0.5).abs() < 0.05, "reno {reno}");
    }

    #[test]
    fn tfrc_is_the_smoothest_loss_based_protocol() {
        let rep = run_extension_report_with(&SweepRunner::serial(), 1500);
        let tfrc = rep.rows.iter().find(|r| r.protocol == "TFRC").unwrap();
        let reno = rep
            .rows
            .iter()
            .find(|r| r.protocol == "AIMD(1,0.5)")
            .unwrap();
        assert!(tfrc.smoothness > 0.8, "TFRC smoothness {}", tfrc.smoothness);
        assert!(tfrc.smoothness > reno.smoothness + 0.2);
    }

    #[test]
    fn everyone_reclaims_doubled_capacity_eventually() {
        let rep = run_extension_report_with(&SweepRunner::serial(), 2000);
        for r in &rep.rows {
            // Vegas's fixed backlog target tracks capacity automatically;
            // window-based protocols climb. All must get there.
            assert!(
                r.reclaim_steps.is_some(),
                "{} never reclaimed: {:?}",
                r.protocol,
                r.reclaim_steps
            );
        }
    }

    #[test]
    fn mimd_reclaims_faster_than_reno() {
        // The flip side of MIMD's aggression: superlinear growth reclaims
        // new capacity quickly; Reno needs ~C/a steps.
        let rep = run_extension_report_with(&SweepRunner::serial(), 2500);
        let get = |n: &str| {
            rep.rows
                .iter()
                .find(|r| r.protocol.starts_with(n))
                .and_then(|r| r.reclaim_steps)
                .unwrap()
        };
        assert!(get("MIMD") < get("AIMD(1,0.5)"));
    }

    #[test]
    fn latency_column_separates_classes() {
        let rep = run_extension_report_with(&SweepRunner::serial(), 1500);
        let vegas = rep
            .rows
            .iter()
            .find(|r| r.protocol.starts_with("Vegas"))
            .unwrap();
        let reno = rep
            .rows
            .iter()
            .find(|r| r.protocol == "AIMD(1,0.5)")
            .unwrap();
        assert!(vegas.latency_inflation.is_finite());
        assert!(vegas.latency_inflation < 0.2, "{}", vegas.latency_inflation);
        assert!(reno.latency_inflation.is_infinite());
    }

    #[test]
    fn render_has_all_rows() {
        let rep = run_extension_report_with(&SweepRunner::serial(), 800);
        let s = rep.render();
        for r in &rep.rows {
            assert!(s.contains(&r.protocol), "{s}");
        }
    }
}
