//! **AQM comparison** — §6's "in-network queueing" direction, as a table.
//!
//! The same senders on the same link score very differently depending on
//! the bottleneck's queue discipline; the axiomatic framework prices that
//! difference in its own currency. For each discipline — droptail (the
//! paper's model), step-marking ECN, RED (early drop), RED+ECN (early
//! mark) — and each protocol, the packet-level simulator measures:
//!
//! * the Metric III loss bound and the raw drop/mark counts,
//! * mean RTT and the Metric VIII latency inflation,
//! * aggregate utilization,
//! * Jain fairness across the flows.
//!
//! The headline (pinned by tests): marking disciplines eliminate drops and
//! cut the standing queue severalfold at equal utilization — they move a
//! loss-based protocol along the Metric III and VIII axes without touching
//! Metric I.

use crate::estimators::stream_options_for;
use crate::report::{fmt_score, TextTable};
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::units::Bandwidth;
use axcc_core::{LinkParams, Protocol};
use axcc_fluidsim::{metric_accumulator_for, MetricSet, StepBlock};
use axcc_packetsim::{PacketScenario, RedConfig};
use axcc_protocols::presets;
use axcc_sweep::{Cacheable, Record, SweepJob, SweepRunner};

/// The disciplines compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Discipline {
    /// FIFO droptail (the paper's model).
    DropTail,
    /// Step-marking ECN at a fixed threshold.
    EcnStep {
        /// Marking threshold (packets).
        threshold: usize,
    },
    /// Classic RED, dropping early.
    RedDrop,
    /// Classic RED thresholds, marking instead of dropping.
    RedMark,
}

impl Discipline {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            Discipline::DropTail => "droptail".into(),
            Discipline::EcnStep { threshold } => format!("ECN@{threshold}"),
            Discipline::RedDrop => "RED(drop)".into(),
            Discipline::RedMark => "RED(mark)".into(),
        }
    }
}

/// One (protocol, discipline) measurement.
#[derive(Debug, Clone)]
pub struct AqmCell {
    /// Protocol name.
    pub protocol: String,
    /// Discipline label.
    pub discipline: String,
    /// Queue drops over the run.
    pub drops: u64,
    /// ECN marks over the run.
    pub marks: u64,
    /// Metric III bound over the tail.
    pub loss_bound: f64,
    /// Metric VIII inflation over the tail (∞ if the tail has drops).
    pub latency_inflation: f64,
    /// Mean RTT over the tail (seconds).
    pub mean_rtt: f64,
    /// Aggregate goodput / link rate over the tail.
    pub utilization: f64,
    /// Jain fairness index over tail goodputs.
    pub jain: f64,
}

/// The comparison result.
#[derive(Debug, Clone)]
pub struct AqmComparison {
    /// All cells, protocol-major.
    pub cells: Vec<AqmCell>,
}

/// The default discipline set (ECN threshold and RED tuned for a τ-MSS
/// buffer).
pub fn disciplines_for(tau: f64) -> Vec<Discipline> {
    vec![
        Discipline::DropTail,
        Discipline::EcnStep {
            threshold: (tau / 5.0).max(1.0) as usize,
        },
        Discipline::RedDrop,
        Discipline::RedMark,
    ]
}

impl Cacheable for AqmCell {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push_str(&self.protocol);
        r.push_str(&self.discipline);
        r.push_usize(self.drops as usize);
        r.push_usize(self.marks as usize);
        r.push_f64(self.loss_bound);
        r.push_f64(self.latency_inflation);
        r.push_f64(self.mean_rtt);
        r.push_f64(self.utilization);
        r.push_f64(self.jain);
        r
    }
    fn from_record(record: &Record) -> Option<Self> {
        let mut rd = record.reader();
        let c = AqmCell {
            protocol: rd.str()?.to_string(),
            discipline: rd.str()?.to_string(),
            drops: rd.usize()? as u64,
            marks: rd.usize()? as u64,
            loss_bound: rd.f64()?,
            latency_inflation: rd.f64()?,
            mean_rtt: rd.f64()?,
            utilization: rd.f64()?,
            jain: rd.f64()?,
        };
        rd.exhausted().then_some(c)
    }
}

/// One (protocol × discipline) packet-level run.
struct AqmJob {
    proto: Box<dyn Protocol>,
    discipline: Discipline,
    n: usize,
    duration_secs: f64,
}

impl Fingerprint for AqmJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        self.proto.fingerprint(fp);
        fp.write_str(&self.discipline.label());
        fp.write_usize(self.n);
        fp.write_f64(self.duration_secs);
    }
}

impl SweepJob for AqmJob {
    type Output = AqmCell;
    fn run(&self) -> AqmCell {
        let link = aqm_link();
        let proto = self.proto.as_ref();
        let mut sc = PacketScenario::new(link)
            .homogeneous(proto, self.n)
            .duration_secs(self.duration_secs)
            .seed(4);
        sc = match self.discipline {
            Discipline::DropTail => sc,
            Discipline::EcnStep { threshold } => sc.ecn_threshold(threshold),
            Discipline::RedDrop => sc.red(RedConfig::classic(link.buffer)),
            Discipline::RedMark => sc.red(RedConfig::classic_marking(link.buffer)),
        };
        let metrics = MetricSet::LOSS_AVOIDANCE
            .with(MetricSet::LATENCY)
            .with(MetricSet::FAIRNESS);
        let mut acc = metric_accumulator_for(&sc, &stream_options_for(metrics));
        // Flow 0's RTT summed over the scores' tail, one sample at a time
        // in step order.
        let (samples, tail, mut rtt_sum) = (acc.steps_expected(), acc.tail_start(), 0.0);
        let out = sc
            .try_run_with(&mut |block: &StepBlock| {
                acc.push_block(block);
                let skip = tail.saturating_sub(block.start_step()).min(block.len());
                for &rtt in &block.sender_rtts(0)[skip..] {
                    rtt_sum += rtt;
                }
            })
            // tidy-allow: panic-freedom — the AQM grid's scenarios are validated experiment constants
            .unwrap_or_else(|e| panic!("{e}"));
        let goodput: f64 = (0..acc.num_senders())
            .map(|i| acc.tail_mean_goodput(i))
            .sum();
        AqmCell {
            protocol: proto.name(),
            discipline: self.discipline.label(),
            drops: out.queue.dropped,
            marks: out.queue.marked,
            loss_bound: acc.measured_loss_bound(),
            latency_inflation: acc.measured_latency_inflation(),
            mean_rtt: rtt_sum / (samples - tail).max(1) as f64,
            utilization: goodput / link.bandwidth,
            jain: acc.jain_index(),
        }
    }
}

/// The paper-grade 20 Mbps / 42 ms / 100 MSS comparison link.
fn aqm_link() -> LinkParams {
    LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0)
}

/// The protocols compared (the two loss-based Linux defaults).
fn aqm_lineup() -> Vec<Box<dyn Protocol>> {
    vec![presets::reno(), presets::cubic()]
}

/// Run the comparison: each protocol × discipline, `n` flows for
/// `duration_secs` on the paper-grade 20 Mbps / 42 ms / 100 MSS link,
/// one sweep job per (protocol, discipline) pair.
pub fn run_aqm_comparison_with(
    runner: &SweepRunner,
    n: usize,
    duration_secs: f64,
) -> AqmComparison {
    let link = aqm_link();
    let mut jobs = Vec::new();
    for proto in aqm_lineup() {
        for discipline in disciplines_for(link.buffer) {
            jobs.push(AqmJob {
                proto: proto.clone(),
                discipline,
                n,
                duration_secs,
            });
        }
    }
    let cells = runner.run_jobs("aqm/cells", &jobs);
    AqmComparison { cells }
}

impl AqmComparison {
    /// Render as a text table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "protocol",
            "discipline",
            "drops",
            "marks",
            "loss bound",
            "latency",
            "meanRTT(ms)",
            "util",
            "jain",
        ]);
        for c in &self.cells {
            t.row([
                c.protocol.clone(),
                c.discipline.clone(),
                c.drops.to_string(),
                c.marks.to_string(),
                fmt_score(c.loss_bound),
                fmt_score(c.latency_inflation),
                format!("{:.1}", axcc_core::units::sec_to_ms(c.mean_rtt)),
                fmt_score(c.utilization),
                fmt_score(c.jain),
            ]);
        }
        format!(
            "§6 in-network queueing — the same protocols under four disciplines\n\
             (20 Mbps, 42 ms RTT, 100-MSS buffer)\n\n{}",
            t.render()
        )
    }

    /// Cells for one (protocol, discipline) pair.
    pub fn cell(&self, protocol_prefix: &str, discipline: &str) -> Option<&AqmCell> {
        self.cells
            .iter()
            .find(|c| c.protocol.starts_with(protocol_prefix) && c.discipline == discipline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> AqmComparison {
        run_aqm_comparison_with(&SweepRunner::serial(), 2, 20.0)
    }

    #[test]
    fn marking_disciplines_are_loss_free_and_low_latency() {
        let a = quick();
        for d in ["ECN@20", "RED(mark)"] {
            let cell = a.cell("AIMD", d).unwrap();
            assert_eq!(cell.drops, 0, "{d} dropped");
            assert!(cell.marks > 0, "{d} never marked");
            let droptail = a.cell("AIMD", "droptail").unwrap();
            assert!(
                cell.mean_rtt < droptail.mean_rtt,
                "{d} rtt {} vs droptail {}",
                cell.mean_rtt,
                droptail.mean_rtt
            );
            // Utilization within 25% of droptail.
            assert!(cell.utilization > 0.75 * droptail.utilization, "{d}");
        }
    }

    #[test]
    fn red_drop_shortens_queue_at_some_loss_cost() {
        let a = quick();
        let red = a.cell("AIMD", "RED(drop)").unwrap();
        let droptail = a.cell("AIMD", "droptail").unwrap();
        assert!(red.mean_rtt < droptail.mean_rtt);
        assert!(red.drops > 0);
    }

    #[test]
    fn table_covers_all_pairs() {
        let a = quick();
        assert_eq!(a.cells.len(), 2 * 4);
        let s = a.render();
        for c in &a.cells {
            assert!(s.contains(&c.discipline), "{s}");
        }
    }
}
