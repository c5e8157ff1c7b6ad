//! Execution traces — the interface between simulators and axiom evaluation.
//!
//! Both simulation engines (`axcc-fluidsim`, `axcc-packetsim`) record a
//! [`RunTrace`]: per time step, each sender's window, experienced loss rate,
//! RTT, and goodput. All eight axioms of the paper are statements about such
//! trajectories ("there is some time step T such that from T onwards …"),
//! so their empirical evaluation is a pure function of the trace.

use crate::link::LinkParams;
use serde::{Deserialize, Serialize};

/// The per-time-step record of a single sender.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SenderTrace {
    /// Display name of the protocol driving this sender.
    pub protocol: String,
    /// Whether that protocol is loss-based.
    pub loss_based: bool,
    /// Congestion window `x_i^(t)` (MSS) at each step.
    pub window: Vec<f64>,
    /// Loss rate experienced at each step.
    pub loss: Vec<f64>,
    /// RTT experienced at each step (seconds), **only when it differs from
    /// the run's shared link RTT column**. In the synchronized fluid model
    /// every sender sees the identical per-step RTT, so storing a copy per
    /// sender multiplied the dominant trace column for nothing; engines now
    /// leave this `None` and readers go through
    /// [`RunTrace::sender_rtt`], which falls back to the shared column.
    /// Engines with genuinely heterogeneous RTTs (packet-level simulation,
    /// multi-path topologies) attach their own column via [`own_rtt_mut`].
    ///
    /// [`own_rtt_mut`]: SenderTrace::own_rtt_mut
    pub rtt: Option<Vec<f64>>,
    /// Goodput at each step (MSS/s): delivered window over RTT.
    pub goodput: Vec<f64>,
}

impl SenderTrace {
    /// Create an empty trace with capacity for `steps` entries. The RTT
    /// column starts shared (`None`); call [`own_rtt_mut`] to record a
    /// per-sender one.
    ///
    /// [`own_rtt_mut`]: SenderTrace::own_rtt_mut
    pub fn with_capacity(protocol: String, loss_based: bool, steps: usize) -> Self {
        SenderTrace {
            protocol,
            loss_based,
            window: Vec::with_capacity(steps),
            loss: Vec::with_capacity(steps),
            rtt: None,
            goodput: Vec::with_capacity(steps),
        }
    }

    /// The per-sender RTT column, materializing it (empty) on first use.
    /// Only engines whose senders see RTTs different from the shared link
    /// column should call this; everyone else keeps the shared column and
    /// reads through [`RunTrace::sender_rtt`].
    pub fn own_rtt_mut(&mut self) -> &mut Vec<f64> {
        self.rtt.get_or_insert_with(Vec::new)
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Mean window over `[from, len)`.
    pub fn mean_window_from(&self, from: usize) -> f64 {
        mean(&self.window[from.min(self.len())..])
    }

    /// Mean goodput over `[from, len)`.
    pub fn mean_goodput_from(&self, from: usize) -> f64 {
        mean(&self.goodput[from.min(self.len())..])
    }
}

/// The full record of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// The link the run executed on.
    pub link: LinkParams,
    /// One trace per sender, in sender order.
    pub senders: Vec<SenderTrace>,
    /// Total window `X^(t) = Σ_i x_i^(t)` at each step.
    pub total_window: Vec<f64>,
    /// Link-level RTT at each step (equals each sender's RTT in the
    /// synchronized fluid model; a per-sender average in packetsim).
    pub rtt: Vec<f64>,
    /// Link-level loss rate at each step.
    pub loss: Vec<f64>,
    /// RNG seed the run used (0 when the run was fully deterministic).
    pub seed: u64,
}

impl RunTrace {
    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.total_window.len()
    }

    /// Whether no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.total_window.is_empty()
    }

    /// Number of senders.
    pub fn num_senders(&self) -> usize {
        self.senders.len()
    }

    /// Index marking the start of the "tail" of the run: the suffix over
    /// which the axioms' "from some time T onwards" clauses are evaluated.
    ///
    /// We use the last `1 − fraction` of the run; callers pick the fraction
    /// (the experiment builders use 0.5, i.e. the second half, which is
    /// comfortably past every protocol's transient for the run lengths
    /// used).
    pub fn tail_start(&self, fraction: f64) -> usize {
        let f = fraction.clamp(0.0, 1.0);
        (self.len() as f64 * f).floor() as usize
    }

    /// Sender `i`'s RTT column: its own if it recorded one, otherwise the
    /// run's shared link column (the synchronized-feedback case, where
    /// every sender's RTT is identical by construction and stored once).
    pub fn sender_rtt(&self, i: usize) -> &[f64] {
        self.senders[i].rtt.as_deref().unwrap_or(&self.rtt)
    }

    /// Utilization `X^(t) / C` at each step of the tail.
    pub fn tail_utilization(&self, fraction: f64) -> impl Iterator<Item = f64> + '_ {
        let c = self.link.capacity();
        self.total_window[self.tail_start(fraction)..]
            .iter()
            .map(move |x| x / c)
    }

    /// Render the trace as CSV (one row per step; per-sender
    /// window/loss/rtt/goodput columns followed by the link columns),
    /// suitable for plotting with any external tool.
    ///
    /// Column layout:
    /// `step, s<i>_window, s<i>_loss, s<i>_rtt, s<i>_goodput …, total_window, link_rtt, link_loss`.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("step");
        for (i, s) in self.senders.iter().enumerate() {
            let name = s.protocol.replace(',', ";");
            let _ = write!(out, ",s{i}_window({name}),s{i}_loss,s{i}_rtt,s{i}_goodput");
        }
        out.push_str(",total_window,link_rtt,link_loss\n");
        for t in 0..self.len() {
            let _ = write!(out, "{t}");
            for (i, s) in self.senders.iter().enumerate() {
                let _ = write!(
                    out,
                    ",{},{},{},{}",
                    s.window[t],
                    s.loss[t],
                    self.sender_rtt(i)[t],
                    s.goodput[t]
                );
            }
            let _ = writeln!(
                out,
                ",{},{},{}",
                self.total_window[t], self.rtt[t], self.loss[t]
            );
        }
        out
    }

    /// Check the structural invariants every engine must maintain:
    /// rectangular shape, windows within `[0, M]`, loss within `[0, 1)`,
    /// RTTs at least `2Θ`, and the total-window column consistent with the
    /// per-sender columns. Returns a description of the first violation.
    pub fn validate(&self, max_window: f64) -> Result<(), String> {
        let steps = self.len();
        if self.rtt.len() != steps || self.loss.len() != steps {
            return Err(format!(
                "ragged link columns: total={} rtt={} loss={}",
                steps,
                self.rtt.len(),
                self.loss.len()
            ));
        }
        for (i, s) in self.senders.iter().enumerate() {
            if s.len() != steps {
                return Err(format!("sender {i} has {} steps, run has {steps}", s.len()));
            }
            for (t, &w) in s.window.iter().enumerate() {
                if !(0.0..=max_window).contains(&w) {
                    return Err(format!(
                        "sender {i} window {w} out of [0,{max_window}] at t={t}"
                    ));
                }
            }
            for (t, &l) in s.loss.iter().enumerate() {
                // NaN fails `contains` and is rejected here too.
                if !(0.0..1.0).contains(&l) {
                    return Err(format!("sender {i} loss {l} out of [0,1) at t={t}"));
                }
            }
            if let Some(own) = &s.rtt {
                if own.len() != steps {
                    return Err(format!(
                        "sender {i} has {} rtt entries, run has {steps}",
                        own.len()
                    ));
                }
            }
            for (t, &r) in self.sender_rtt(i).iter().enumerate() {
                if r < self.link.min_rtt() - 1e-12 {
                    return Err(format!("sender {i} rtt {r} below 2Θ at t={t}"));
                }
            }
        }
        for t in 0..steps {
            let sum: f64 = self.senders.iter().map(|s| s.window[t]).sum();
            if (sum - self.total_window[t]).abs() > 1e-6 * (1.0 + sum) {
                return Err(format!(
                    "total window mismatch at t={t}: column {} vs sum {sum}",
                    self.total_window[t]
                ));
            }
        }
        Ok(())
    }
}

/// Arithmetic mean of a slice (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> RunTrace {
        let link = LinkParams::new(1000.0, 0.021, 100.0);
        let mut s0 = SenderTrace::with_capacity("A".into(), true, 4);
        let mut s1 = SenderTrace::with_capacity("B".into(), true, 4);
        let windows0 = [10.0, 20.0, 30.0, 40.0];
        let windows1 = [5.0, 5.0, 5.0, 5.0];
        let mut total = Vec::new();
        let mut rtts = Vec::new();
        let mut losses = Vec::new();
        for t in 0..4 {
            let x = windows0[t] + windows1[t];
            total.push(x);
            let rtt = link.rtt(x);
            let loss = link.loss_rate(x);
            rtts.push(rtt);
            losses.push(loss);
            for (s, w) in [(&mut s0, windows0[t]), (&mut s1, windows1[t])] {
                s.window.push(w);
                s.loss.push(loss);
                s.goodput.push(w * (1.0 - loss) / rtt);
            }
        }
        RunTrace {
            link,
            senders: vec![s0, s1],
            total_window: total,
            rtt: rtts,
            loss: losses,
            seed: 0,
        }
    }

    #[test]
    fn validate_accepts_consistent_trace() {
        toy_trace().validate(1e9).unwrap();
    }

    #[test]
    fn validate_rejects_window_out_of_range() {
        let mut t = toy_trace();
        t.senders[0].window[2] = -1.0;
        assert!(t.validate(1e9).is_err());
    }

    #[test]
    fn validate_rejects_total_mismatch() {
        let mut t = toy_trace();
        t.total_window[1] += 5.0;
        assert!(t.validate(1e9).is_err());
    }

    #[test]
    fn validate_rejects_ragged_sender() {
        let mut t = toy_trace();
        t.senders[1].window.pop();
        assert!(t.validate(1e9).is_err());
    }

    #[test]
    fn sender_rtt_falls_back_to_the_shared_column() {
        let t = toy_trace();
        assert!(t.senders[0].rtt.is_none());
        assert_eq!(t.sender_rtt(0), &t.rtt[..]);
        assert_eq!(t.sender_rtt(1), &t.rtt[..]);
    }

    #[test]
    fn sender_rtt_prefers_an_own_column() {
        let mut t = toy_trace();
        let own: Vec<f64> = t.rtt.iter().map(|r| r * 2.0).collect();
        *t.senders[1].own_rtt_mut() = own.clone();
        assert_eq!(t.sender_rtt(0), &t.rtt[..]);
        assert_eq!(t.sender_rtt(1), &own[..]);
        t.validate(1e9).unwrap();
    }

    #[test]
    fn validate_rejects_ragged_own_rtt() {
        let mut t = toy_trace();
        t.senders[0].own_rtt_mut().push(1.0);
        assert!(t.validate(1e9).is_err());
    }

    #[test]
    fn tail_start_fractions() {
        let t = toy_trace();
        assert_eq!(t.tail_start(0.0), 0);
        assert_eq!(t.tail_start(0.5), 2);
        assert_eq!(t.tail_start(1.0), 4);
    }

    #[test]
    fn mean_window_from_tail() {
        let t = toy_trace();
        assert!((t.senders[0].mean_window_from(2) - 35.0).abs() < 1e-12);
        assert!((t.senders[1].mean_window_from(0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn csv_export_shape_and_values() {
        let t = toy_trace();
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + t.len());
        // Header: step + 4 per sender + 3 link columns.
        assert_eq!(lines[0].split(',').count(), 1 + 4 * 2 + 3);
        assert!(lines[0].starts_with("step,s0_window(A)"));
        // First data row starts with step 0 and sender 0's window 10.
        assert!(lines[1].starts_with("0,10,"), "{}", lines[1]);
        // Every data row has the header's arity.
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), 1 + 4 * 2 + 3, "{l}");
        }
    }

    #[test]
    fn csv_escapes_commas_in_protocol_names() {
        let mut t = toy_trace();
        t.senders[0].protocol = "AIMD(1,0.5)".into();
        let csv = t.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.contains("AIMD(1;0.5)"));
        assert_eq!(header.split(',').count(), 1 + 4 * 2 + 3);
    }

    #[test]
    fn tail_utilization_values() {
        let t = toy_trace();
        let c = t.link.capacity();
        let u: Vec<f64> = t.tail_utilization(0.5).collect();
        assert_eq!(u.len(), 2);
        assert!((u[0] - 35.0 / c).abs() < 1e-12);
    }
}
