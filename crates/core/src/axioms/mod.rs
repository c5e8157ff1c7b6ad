//! The eight axioms ("metrics") of Section 3, as executable definitions.
//!
//! Each metric is defined once, as a single-pass fold in [`streaming`]:
//! the paper's parameterized predicate ("P is α-efficient if …"), with
//! the existential "there is some time step T such that from T onwards"
//! read as "over the tail of the run", yields a **best score** — the
//! largest (or, for loss and latency, smallest) α the run supports. That
//! is the quantity the experiment builders place in the empirical
//! Table 1. Simulation engines fold each step into the accumulators as
//! they run; a recorded [`RunTrace`](crate::trace::RunTrace) is scored by
//! replaying its columns through the same fold
//! ([`MetricAccumulator::replay`](streaming::MetricAccumulator::replay)).
//!
//! | Metric | Paper | Fold |
//! |---|---|---|
//! | I    | link-utilization (`α`-efficient)     | [`EfficiencyAcc`](streaming::EfficiencyAcc) |
//! | II   | fast-utilization                     | [`FastUtilizationAcc`](streaming::FastUtilizationAcc) |
//! | III  | loss-avoidance                       | [`LossAvoidanceAcc`](streaming::LossAvoidanceAcc) |
//! | IV   | fairness                             | [`FairnessAcc`](streaming::FairnessAcc) |
//! | V    | convergence                          | [`ConvergenceAcc`](streaming::ConvergenceAcc) |
//! | VI   | robustness to non-congestion loss    | [`RobustnessAcc`](streaming::RobustnessAcc) |
//! | VII  | TCP-friendliness                     | [`FairnessAcc`](streaming::FairnessAcc) |
//! | VIII | latency-avoidance                    | [`LatencyAcc`](streaming::LatencyAcc) |
//!
//! Metrics VI and VII quantify over *scenarios* (all initial window
//! configurations; all mixes of senders), not single runs. The folds
//! score a single run; the scenario sweeps that realize the universal
//! quantifiers live in `axcc-analysis`. [`churn`] re-poses the metrics
//! for runs whose sender population changes mid-run, and [`extensions`]
//! adds two metrics beyond the paper's eight.

pub mod churn;
pub mod extensions;
pub mod streaming;

/// Fraction of a run treated as transient by default: axioms are evaluated
/// on the final half of the run unless the caller says otherwise.
pub const DEFAULT_TAIL_FRACTION: f64 = 0.5;

/// Minimum horizon `T` (in RTT steps) of the fast-utilization score. The
/// axiom allows any finite `T`; the score requires the gain condition only
/// for ascents longer than this, which filters out quantization noise at
/// the start of an ascent.
pub const DEFAULT_MIN_HORIZON: usize = 8;

/// Default window threshold β (MSS) the robustness fold tracks escape
/// above.
pub const DEFAULT_ESCAPE_BETA: f64 = 50.0;

/// Identifier for one of the paper's eight metrics, used by the analysis
/// crate to build tables keyed by metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    /// Metric I: link-utilization (efficiency).
    Efficiency,
    /// Metric II: fast-utilization.
    FastUtilization,
    /// Metric III: loss-avoidance.
    LossAvoidance,
    /// Metric IV: fairness.
    Fairness,
    /// Metric V: convergence.
    Convergence,
    /// Metric VI: robustness to non-congestion loss.
    Robustness,
    /// Metric VII: TCP-friendliness.
    TcpFriendliness,
    /// Metric VIII: latency-avoidance.
    LatencyAvoidance,
}

impl Metric {
    /// All metrics, in the paper's order.
    pub const ALL: [Metric; 8] = [
        Metric::Efficiency,
        Metric::FastUtilization,
        Metric::LossAvoidance,
        Metric::Fairness,
        Metric::Convergence,
        Metric::Robustness,
        Metric::TcpFriendliness,
        Metric::LatencyAvoidance,
    ];

    /// Short human-readable name used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Efficiency => "efficiency",
            Metric::FastUtilization => "fast-util",
            Metric::LossAvoidance => "loss-avoid",
            Metric::Fairness => "fairness",
            Metric::Convergence => "convergence",
            Metric::Robustness => "robustness",
            Metric::TcpFriendliness => "tcp-friendly",
            Metric::LatencyAvoidance => "latency-avoid",
        }
    }

    /// Whether a *larger* score is better for this metric. True for all of
    /// the paper's metrics except loss-avoidance and latency-avoidance,
    /// whose α parameterizes a bound to stay *under*.
    pub fn higher_is_better(self) -> bool {
        !matches!(self, Metric::LossAvoidance | Metric::LatencyAvoidance)
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Hand-built traces for axiom unit tests.

    use crate::link::LinkParams;
    use crate::trace::{RunTrace, SenderTrace};

    /// Build a consistent [`RunTrace`] from per-sender window trajectories,
    /// deriving loss/RTT/goodput from the link equations (exactly what the
    /// fluid engine does).
    pub fn trace_from_windows(link: LinkParams, windows: &[Vec<f64>]) -> RunTrace {
        let steps = windows[0].len();
        assert!(windows.iter().all(|w| w.len() == steps));
        let mut senders: Vec<SenderTrace> = windows
            .iter()
            .enumerate()
            .map(|(i, _)| SenderTrace::with_capacity(format!("S{i}"), true, steps))
            .collect();
        let mut total = Vec::with_capacity(steps);
        let mut rtts = Vec::with_capacity(steps);
        let mut losses = Vec::with_capacity(steps);
        for t in 0..steps {
            let x: f64 = windows.iter().map(|w| w[t]).sum();
            let rtt = link.rtt(x);
            let loss = link.loss_rate(x);
            total.push(x);
            rtts.push(rtt);
            losses.push(loss);
            for (s, w) in senders.iter_mut().zip(windows.iter()) {
                s.window.push(w[t]);
                s.loss.push(loss);
                s.goodput.push(w[t] * (1.0 - loss) / rtt);
            }
        }
        RunTrace {
            link,
            senders,
            total_window: total,
            rtt: rtts,
            loss: losses,
            seed: 0,
        }
    }

    /// A link with capacity C = 100 MSS and buffer 20 MSS, convenient for
    /// hand-written trajectories.
    pub fn small_link() -> LinkParams {
        // B = 1000 MSS/s, Θ = 50 ms  =>  C = 100 MSS.
        LinkParams::new(1000.0, 0.05, 20.0)
    }

    #[test]
    fn testutil_traces_validate() {
        let link = small_link();
        let tr = trace_from_windows(link, &[vec![10.0, 50.0, 130.0], vec![5.0, 5.0, 5.0]]);
        tr.validate(1e9).unwrap();
        assert_eq!(tr.len(), 3);
        // Third step exceeds C+τ = 120 => loss.
        assert!(tr.loss[2] > 0.0);
        assert_eq!(tr.loss[0], 0.0);
    }
}
