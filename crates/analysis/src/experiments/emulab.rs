//! **Section 5.1 validation** — the Emulab experiment grid, on the
//! packet-level simulator.
//!
//! Paper: *"We experimented with protocols implemented in the Linux kernel,
//! namely, TCP Reno (AIMD(1,0.5)), TCP Cubic (CUBIC(0.4,0.8)), and TCP
//! Scalable (MIMD(1.01,0.875)…). Our experiments investigated the
//! interaction of a varying number of connections (2-4) on a single link,
//! for varying bandwidths (20Mbps, 30Mbps, 60Mbps, and 100Mbps) and buffer
//! sizes (10 MSS / 100 MSS), and a fixed RTT of 42ms. Our preliminary
//! findings establish, for each metric, the same hierarchy over protocols
//! (from 'worst' to 'best') as induced by the theoretical results."*
//!
//! This module reruns exactly that grid on `axcc-packetsim` and reports,
//! per metric, the agreement between the measured protocol hierarchy and
//! the hierarchy induced by Table 1 — the paper's own success criterion
//! (trends, not absolute numbers).

use crate::estimators::{measure_solo_packet, SoloMetrics};
use crate::experiments::hierarchy::{pairwise_agreement, rank, LabeledScore};
use crate::report::{fmt_score, TextTable};
use axcc_core::axioms::Metric;
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::theory::ProtocolSpec;
use axcc_core::units::Bandwidth;
use axcc_core::LinkParams;
use axcc_protocols::{build_protocol, SlowStart};
use axcc_sweep::{SweepJob, SweepRunner};

/// The three Linux protocols of the validation, as analytic specs.
pub fn emulab_specs() -> Vec<ProtocolSpec> {
    vec![
        ProtocolSpec::RENO,
        ProtocolSpec::CUBIC_LINUX,
        ProtocolSpec::SCALABLE_MIMD,
    ]
}

/// The metrics whose hierarchy the validation checks (the homogeneous-run
/// metrics of Table 1; friendliness/robustness have their own experiments).
pub const VALIDATED_METRICS: [Metric; 5] = [
    Metric::Efficiency,
    Metric::LossAvoidance,
    Metric::FastUtilization,
    Metric::Fairness,
    Metric::Convergence,
];

/// Grid configuration.
#[derive(Debug, Clone)]
pub struct EmulabConfig {
    /// Connection counts (paper: 2, 3, 4).
    pub ns: Vec<usize>,
    /// Link bandwidths in Mbps (paper: 20, 30, 60, 100).
    pub bandwidths_mbps: Vec<f64>,
    /// Buffer sizes in MSS (paper: 10, 100).
    pub buffers_mss: Vec<f64>,
    /// Round-trip propagation delay in ms (paper: 42).
    pub rtt_ms: f64,
    /// Per-run simulated duration (seconds).
    pub duration_secs: f64,
    /// Stagger between flow starts (seconds): flow `i` starts at
    /// `i · stagger_secs`, probing late-joiner convergence.
    pub stagger_secs: f64,
    /// RNG seed (the runs are loss-model-free, but the engine API takes
    /// one; kept for forward compatibility).
    pub seed: u64,
}

impl EmulabConfig {
    /// The paper's full grid.
    pub fn paper() -> Self {
        EmulabConfig {
            ns: vec![2, 3, 4],
            bandwidths_mbps: vec![20.0, 30.0, 60.0, 100.0],
            buffers_mss: vec![10.0, 100.0],
            rtt_ms: 42.0,
            duration_secs: 40.0,
            stagger_secs: 2.0,
            seed: 0,
        }
    }

    /// A reduced grid for tests and smoke runs.
    pub fn quick() -> Self {
        EmulabConfig {
            ns: vec![2],
            bandwidths_mbps: vec![20.0],
            buffers_mss: vec![100.0],
            rtt_ms: 42.0,
            duration_secs: 20.0,
            stagger_secs: 2.0,
            seed: 0,
        }
    }

    /// Number of (protocol × cell) runs the grid will execute.
    pub fn total_runs(&self) -> usize {
        self.ns.len() * self.bandwidths_mbps.len() * self.buffers_mss.len() * emulab_specs().len()
    }
}

/// Measured metrics of one protocol in one grid cell.
#[derive(Debug, Clone)]
pub struct EmulabCell {
    /// Protocol name.
    pub protocol: String,
    /// Number of connections.
    pub n: usize,
    /// Bandwidth (Mbps).
    pub bw_mbps: f64,
    /// Buffer (MSS).
    pub buffer_mss: f64,
    /// Measured homogeneous-run metrics.
    pub metrics: SoloMetrics,
}

/// The validation result: all cells plus per-metric hierarchy agreement.
#[derive(Debug, Clone)]
pub struct EmulabValidation {
    /// Per-cell measurements.
    pub cells: Vec<EmulabCell>,
    /// `(metric, theory ranking, measured ranking, agreement ∈ [0,1])`.
    pub hierarchies: Vec<HierarchyResult>,
}

/// Per-metric hierarchy comparison.
#[derive(Debug, Clone)]
pub struct HierarchyResult {
    /// Metric label.
    pub metric: String,
    /// Theory-induced ranking, best → worst.
    pub theory_ranking: Vec<String>,
    /// Measured ranking (grid-mean scores), best → worst.
    pub measured_ranking: Vec<String>,
    /// Fraction of theory-ordered pairs the measurement agrees with.
    pub agreement: f64,
}

/// One (cell × protocol) packet-level run of the Emulab grid.
struct CellJob {
    spec: ProtocolSpec,
    n: usize,
    bw_mbps: f64,
    buffer_mss: f64,
    rtt_ms: f64,
    duration_secs: f64,
    stagger_secs: f64,
    seed: u64,
}

impl Fingerprint for CellJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str(&self.spec.name());
        fp.write_usize(self.n);
        fp.write_f64(self.bw_mbps);
        fp.write_f64(self.buffer_mss);
        fp.write_f64(self.rtt_ms);
        fp.write_f64(self.duration_secs);
        fp.write_f64(self.stagger_secs);
        fp.write_u64(self.seed);
    }
}

impl SweepJob for CellJob {
    type Output = SoloMetrics;
    fn run(&self) -> SoloMetrics {
        let link = LinkParams::from_experiment(
            Bandwidth::Mbps(self.bw_mbps),
            self.rtt_ms,
            self.buffer_mss,
        );
        // Real kernel connections begin in slow start; the model's
        // congestion-avoidance rules take over at the first loss. Without
        // this, MIMD(1.01, ·)'s 1%-per-RTT ramp from a 1-MSS window never
        // reaches capacity within any realistic run.
        let proto: Box<dyn axcc_core::Protocol> =
            Box::new(SlowStart::new(build_protocol(&self.spec), f64::INFINITY));
        measure_solo_packet(
            proto.as_ref(),
            link,
            self.n,
            self.duration_secs,
            self.stagger_secs,
            self.seed,
        )
    }
}

/// Run the grid and compare hierarchies: one sweep job per
/// (cell × protocol) packet-level run.
pub fn run_emulab_validation_with(runner: &SweepRunner, cfg: &EmulabConfig) -> EmulabValidation {
    let specs = emulab_specs();
    let mut jobs = Vec::with_capacity(cfg.total_runs());
    for &n in &cfg.ns {
        for &bw in &cfg.bandwidths_mbps {
            for &buf in &cfg.buffers_mss {
                for spec in &specs {
                    jobs.push(CellJob {
                        spec: *spec,
                        n,
                        bw_mbps: bw,
                        buffer_mss: buf,
                        rtt_ms: cfg.rtt_ms,
                        duration_secs: cfg.duration_secs,
                        stagger_secs: cfg.stagger_secs,
                        seed: cfg.seed,
                    });
                }
            }
        }
    }
    let measured = runner.run_jobs("emulab/cells", &jobs);
    let cells: Vec<EmulabCell> = jobs
        .iter()
        .zip(measured)
        .map(|(job, metrics)| EmulabCell {
            protocol: job.spec.name(),
            n: job.n,
            bw_mbps: job.bw_mbps,
            buffer_mss: job.buffer_mss,
            metrics,
        })
        .collect();

    // Aggregate measured scores per protocol (grid mean) and compare the
    // hierarchy per metric against the theory at a representative cell.
    let mid_bw = cfg.bandwidths_mbps[cfg.bandwidths_mbps.len() / 2];
    let mid_buf = cfg.buffers_mss[cfg.buffers_mss.len() / 2];
    let mid_n = cfg.ns[cfg.ns.len() / 2];
    let mid_link = LinkParams::from_experiment(Bandwidth::Mbps(mid_bw), cfg.rtt_ms, mid_buf);

    let hierarchies = VALIDATED_METRICS
        .iter()
        .map(|&metric| {
            let theory: Vec<LabeledScore> = specs
                .iter()
                .map(|s| {
                    LabeledScore::new(
                        s.name(),
                        s.scores(mid_link.capacity(), mid_link.buffer, mid_n as f64)
                            .get(metric),
                    )
                })
                .collect();
            let measured: Vec<LabeledScore> = specs
                .iter()
                .map(|s| {
                    let name = s.name();
                    let scores: Vec<f64> = cells
                        .iter()
                        .filter(|c| c.protocol == name)
                        .map(|c| metric_of(&c.metrics, metric))
                        .collect();
                    LabeledScore::new(name, finite_mean(&scores))
                })
                .collect();
            HierarchyResult {
                metric: metric.label().to_string(),
                theory_ranking: rank(metric, &theory),
                measured_ranking: rank(metric, &measured),
                agreement: pairwise_agreement(metric, &theory, &measured, 1e-9, 1e-6),
            }
        })
        .collect();

    EmulabValidation { cells, hierarchies }
}

/// Extract one metric from the solo measurements.
fn metric_of(m: &SoloMetrics, metric: Metric) -> f64 {
    match metric {
        Metric::Efficiency => m.efficiency,
        Metric::LossAvoidance => m.loss_bound,
        Metric::FastUtilization => m.fast_utilization.unwrap_or(f64::NAN),
        Metric::Fairness => m.fairness,
        Metric::Convergence => m.convergence,
        Metric::LatencyAvoidance => m.latency_inflation,
        // Not produced by homogeneous runs:
        Metric::Robustness | Metric::TcpFriendliness => f64::NAN,
    }
}

/// Mean of the finite entries (∞ measured fast-utilization etc. would
/// otherwise poison the aggregate); NaN entries are skipped. Returns NaN
/// only when nothing is finite.
fn finite_mean(xs: &[f64]) -> f64 {
    let finite: Vec<f64> = xs.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        // All-infinite (e.g. MIMD fast-utilization in theory): propagate a
        // large value so rankings still see it as "best".
        if xs.iter().any(|v| v.is_infinite() && *v > 0.0) {
            f64::INFINITY
        } else {
            f64::NAN
        }
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

impl EmulabValidation {
    /// Render the hierarchy comparison as text.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "Metric",
            "Theory (best→worst)",
            "Measured (best→worst)",
            "Agreement",
        ]);
        for h in &self.hierarchies {
            t.row([
                h.metric.clone(),
                h.theory_ranking.join(" > "),
                h.measured_ranking.join(" > "),
                fmt_score(h.agreement),
            ]);
        }
        let mut out = String::from("Section 5.1 — Emulab-grid validation (packet-level)\n\n");
        out.push_str(&t.render());
        out.push('\n');
        let mut cells = TextTable::new([
            "Protocol", "n", "BW(Mbps)", "Buf(MSS)", "Eff", "Loss", "Fair", "Conv", "MeanUtil",
        ]);
        for c in &self.cells {
            cells.row([
                c.protocol.clone(),
                c.n.to_string(),
                format!("{}", c.bw_mbps),
                format!("{}", c.buffer_mss),
                fmt_score(c.metrics.efficiency),
                fmt_score(c.metrics.loss_bound),
                fmt_score(c.metrics.fairness),
                fmt_score(c.metrics.convergence),
                fmt_score(c.metrics.mean_utilization),
            ]);
        }
        out.push_str(&cells.render());
        out
    }

    /// Mean hierarchy agreement across the validated metrics.
    pub fn mean_agreement(&self) -> f64 {
        if self.hierarchies.is_empty() {
            return 1.0;
        }
        self.hierarchies.iter().map(|h| h.agreement).sum::<f64>() / self.hierarchies.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_runs_and_agrees_reasonably() {
        let v = run_emulab_validation_with(&SweepRunner::serial(), &EmulabConfig::quick());
        assert_eq!(v.cells.len(), 3); // 1 cell × 3 protocols
        assert_eq!(v.hierarchies.len(), VALIDATED_METRICS.len());
        // The paper's claim: hierarchies match. On the quick grid we demand
        // a clear majority of pairwise orderings.
        let mean = v.mean_agreement();
        assert!(
            mean >= 0.6,
            "mean hierarchy agreement {mean}\n{}",
            v.render()
        );
    }

    #[test]
    fn efficiency_hierarchy_matches_theory_on_quick_grid() {
        let v = run_emulab_validation_with(&SweepRunner::serial(), &EmulabConfig::quick());
        let eff = v
            .hierarchies
            .iter()
            .find(|h| h.metric == "efficiency")
            .unwrap();
        // Theory (worst-case retain factor): Scalable 0.875 > Cubic 0.8 >
        // Reno 0.5 — though at 100-MSS buffers the parameterized scores may
        // saturate; require at least half agreement.
        assert!(eff.agreement >= 0.5, "{}", v.render());
    }

    #[test]
    fn total_runs_accounting() {
        assert_eq!(EmulabConfig::paper().total_runs(), 3 * 4 * 2 * 3);
        assert_eq!(EmulabConfig::quick().total_runs(), 3);
    }

    #[test]
    fn render_mentions_all_protocols() {
        let v = run_emulab_validation_with(&SweepRunner::serial(), &EmulabConfig::quick());
        let s = v.render();
        for spec in emulab_specs() {
            assert!(s.contains(&spec.name()), "{s}");
        }
    }

    #[test]
    fn finite_mean_handles_infinities() {
        assert_eq!(finite_mean(&[1.0, 3.0]), 2.0);
        assert_eq!(finite_mean(&[f64::INFINITY]), f64::INFINITY);
        assert!(finite_mean(&[]).is_nan());
        assert_eq!(finite_mean(&[f64::NAN, 4.0]), 4.0);
    }
}
