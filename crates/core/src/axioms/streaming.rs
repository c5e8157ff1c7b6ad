//! The axioms of Section 3 as single-pass folds — the one place an axiom
//! score is computed.
//!
//! Every axiom is a statement about a trajectory of the form "there is
//! some time step T such that from T onwards …", and every empirical score
//! is an in-order fold over the step columns: min/max folds (efficiency,
//! loss-avoidance, convergence, latency), sequential sums (fairness and
//! friendliness tail averages, fast-utilization cumulative gains), or a
//! last-index scan (robustness). None of them needs the trajectory
//! materialized — each step's values are needed exactly once, in order.
//!
//! This module provides one online accumulator per axiom plus a combined
//! [`MetricAccumulator`] that consumes [`StepBlock`]s of up to 128 steps
//! in O(senders) memory, independent of run length. Either simulation
//! engine drives it directly from its hot loop (it is a
//! [`StepSink`](crate::sink::StepSink)); a finished trace — a run kept
//! for plotting — is scored by [`MetricAccumulator::replay`], which
//! feeds the trace's columns through the very same block fold. A streamed
//! run and the replay of its recorded trace therefore agree to the bit by
//! construction: there is no second implementation to drift.
//!
//! Tail boundaries and the robustness quartiles are precomputable because
//! the run length is known up front ([`MetricConfig::steps`]), mirroring
//! [`RunTrace::tail_start`]. Blocks are the only way a step enters a fold:
//! each fold consumes its columns in step order and hoists every boundary
//! to a slice cut, so how a run is split into blocks cannot change a bit.
//! The tests here pin every score to hand-computed values, including
//! boundaries that land mid-block and on a block edge, and check that
//! block capacities 1, 7 and 128 give the same bits.

use crate::axioms::{DEFAULT_ESCAPE_BETA, DEFAULT_MIN_HORIZON, DEFAULT_TAIL_FRACTION};
use crate::link::LinkParams;
use crate::sink::RunShape;
use crate::trace::RunTrace;

/// One sender's observation at one step: exactly the four values a
/// recorded trace appends to its per-sender columns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepRecord {
    /// Congestion window `x_i^(t)` (MSS); 0 for a not-yet-started sender.
    pub window: f64,
    /// Loss rate the sender experienced this step.
    pub loss: f64,
    /// RTT the sender experienced this step (seconds).
    pub rtt: f64,
    /// Goodput this step (MSS/s): delivered window over RTT.
    pub goodput: f64,
}

/// A fixed-capacity column-major batch of simulation steps — the unit of
/// the batched sink path
/// ([`StepSink::on_steps`](crate::sink::StepSink::on_steps)).
///
/// An engine stages each step's shared link state and per-sender values
/// into the block and flushes it to the sink when full, so short runs pay
/// one virtual dispatch (and one accumulator tail-boundary check) per
/// block instead of per step. Columns are stored sender-major: sender
/// `i`'s windows occupy one contiguous slice, which is what every
/// accumulator reads (each consumes its column in step order) and what
/// the trace sink extends from.
///
/// Idle senders hold staged zeros. Every sender's RTT is the shared
/// column, as in the synchronized fluid model, unless the block tracks
/// per-sender RTTs
/// ([`track_sender_rtts`](StepBlock::track_sender_rtts)) — what a
/// packet-level run or a multi-link topology needs, where each flow sees
/// its own RTT.
#[derive(Debug, Clone, Default)]
pub struct StepBlock {
    n: usize,
    cap: usize,
    len: usize,
    start: usize,
    totals: Vec<f64>,
    rtts: Vec<f64>,
    link_losses: Vec<f64>,
    windows: Vec<f64>,
    losses: Vec<f64>,
    goodputs: Vec<f64>,
    /// Per-sender RTT columns; empty unless tracked.
    sender_rtts: Vec<f64>,
}

fn resize_zeroed(v: &mut Vec<f64>, len: usize) {
    v.clear();
    v.resize(len, 0.0);
}

impl StepBlock {
    /// Default number of steps per block: small enough that the staged
    /// columns stay cache-resident, large enough to amortize the
    /// per-block dispatch down to noise.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// An empty block for `n` senders holding up to `cap` rows.
    pub fn new(n: usize, cap: usize) -> Self {
        let mut block = StepBlock {
            n: 0,
            cap: 0,
            len: 0,
            start: 0,
            totals: Vec::new(),
            rtts: Vec::new(),
            link_losses: Vec::new(),
            windows: Vec::new(),
            losses: Vec::new(),
            goodputs: Vec::new(),
            sender_rtts: Vec::new(),
        };
        block.reshape(n, cap);
        block
    }

    /// Resize for a run shape, zeroing every column, resetting the cursor
    /// and dropping per-sender RTT tracking. Reusable workspaces call this
    /// once per run; when the shape matches the previous run the buffers
    /// are reused in place.
    pub fn reshape(&mut self, n: usize, cap: usize) {
        self.n = n;
        self.cap = cap.max(1);
        self.len = 0;
        self.start = 0;
        resize_zeroed(&mut self.totals, self.cap);
        resize_zeroed(&mut self.rtts, self.cap);
        resize_zeroed(&mut self.link_losses, self.cap);
        resize_zeroed(&mut self.windows, n * self.cap);
        resize_zeroed(&mut self.losses, n * self.cap);
        resize_zeroed(&mut self.goodputs, n * self.cap);
        self.sender_rtts.clear();
    }

    /// Give every sender its own RTT column, staged with
    /// [`stage_sender_rtt`](StepBlock::stage_sender_rtt), instead of the
    /// shared link column.
    pub fn track_sender_rtts(&mut self) {
        resize_zeroed(&mut self.sender_rtts, self.n * self.cap);
    }

    /// Start a new (empty) block whose first row is absolute step `start`.
    pub fn begin(&mut self, start: usize) {
        self.len = 0;
        self.start = start;
    }

    /// Zero the per-sender columns. Engines whose step loop stages only
    /// the currently-active senders call this at block start so idle
    /// senders read as exact zeros; a run whose senders are all active
    /// throughout writes every slot and may skip it.
    pub fn zero_senders(&mut self) {
        self.windows.fill(0.0);
        self.losses.fill(0.0);
        self.goodputs.fill(0.0);
    }

    /// Stage the current row's shared link state (total window, link RTT,
    /// link loss).
    #[inline]
    pub fn stage_shared(&mut self, total: f64, rtt: f64, loss: f64) {
        self.totals[self.len] = total;
        self.rtts[self.len] = rtt;
        self.link_losses[self.len] = loss;
    }

    /// Stage sender `i`'s values for the current row.
    #[inline]
    pub fn stage_sender(&mut self, i: usize, window: f64, loss: f64, goodput: f64) {
        let at = i * self.cap + self.len;
        self.windows[at] = window;
        self.losses[at] = loss;
        self.goodputs[at] = goodput;
    }

    /// Stage sender `i`'s own RTT for the current row (the block must
    /// [track](StepBlock::track_sender_rtts) per-sender RTTs).
    #[inline]
    pub fn stage_sender_rtt(&mut self, i: usize, rtt: f64) {
        self.sender_rtts[i * self.cap + self.len] = rtt;
    }

    /// Commit the current row; returns `true` when the block is full —
    /// the caller flushes it to the sink and calls
    /// [`begin`](StepBlock::begin) for the next row.
    #[inline]
    pub fn advance(&mut self) -> bool {
        self.len += 1;
        self.len == self.cap
    }

    /// Committed rows in the block.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row has been committed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of senders per row.
    pub fn num_senders(&self) -> usize {
        self.n
    }

    /// Maximum rows the block holds.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Absolute step index of row 0.
    pub fn start_step(&self) -> usize {
        self.start
    }

    /// The committed slice of the total-window column.
    pub fn totals(&self) -> &[f64] {
        &self.totals[..self.len]
    }

    /// The committed slice of the shared link-RTT column.
    pub fn rtts(&self) -> &[f64] {
        &self.rtts[..self.len]
    }

    /// The committed slice of the link-loss column.
    pub fn link_losses(&self) -> &[f64] {
        &self.link_losses[..self.len]
    }

    /// Sender `i`'s committed window column.
    pub fn windows(&self, i: usize) -> &[f64] {
        &self.windows[i * self.cap..i * self.cap + self.len]
    }

    /// Sender `i`'s committed loss column.
    pub fn sender_losses(&self, i: usize) -> &[f64] {
        &self.losses[i * self.cap..i * self.cap + self.len]
    }

    /// Sender `i`'s committed goodput column.
    pub fn goodputs(&self, i: usize) -> &[f64] {
        &self.goodputs[i * self.cap..i * self.cap + self.len]
    }

    /// Sender `i`'s committed RTT column: its own when the block tracks
    /// per-sender RTTs, the shared link column otherwise.
    pub fn sender_rtts(&self, i: usize) -> &[f64] {
        if self.sender_rtts.is_empty() {
            self.rtts()
        } else {
            &self.sender_rtts[i * self.cap..i * self.cap + self.len]
        }
    }
}

/// A set of metric families for [`MetricAccumulator`] to maintain —
/// the sink-specialization knob of the streaming path.
///
/// Every streaming call site reads a small, statically-known subset of
/// the axiom scores (a robustness sweep only ever calls
/// [`MetricAccumulator::window_escapes`]; a friendliness job only the
/// fairness-family tail means), yet the combined accumulator pays every
/// family's per-step fold. Restricting the set skips the disabled
/// families' block passes entirely; the enabled families' folds are
/// untouched, so every score that *is* maintained keeps the bit-identity
/// contract. Reading a disabled family is a logic error (caught by
/// `debug_assert!` in the accessors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSet(u8);

impl MetricSet {
    /// Metric I (efficiency) and its mean-utilization companion.
    pub const EFFICIENCY: MetricSet = MetricSet(1 << 0);
    /// Metric III (loss-avoidance) and the zero-loss predicate.
    pub const LOSS_AVOIDANCE: MetricSet = MetricSet(1 << 1);
    /// Metric VIII (latency-avoidance).
    pub const LATENCY: MetricSet = MetricSet(1 << 2);
    /// Metric IV (fairness), Metric VII (friendliness), Jain's index,
    /// and the per-sender tail-mean window/goodput readers.
    pub const FAIRNESS: MetricSet = MetricSet(1 << 3);
    /// Metric V (convergence).
    pub const CONVERGENCE: MetricSet = MetricSet(1 << 4);
    /// Metric VI (robustness): escape, divergence, and last window.
    pub const ROBUSTNESS: MetricSet = MetricSet(1 << 5);
    /// Metric II (fast-utilization).
    pub const FAST_UTILIZATION: MetricSet = MetricSet(1 << 6);
    /// Every family — the default, and the set the equivalence suites run.
    pub const ALL: MetricSet = MetricSet(0x7f);
    /// Metrics I–V and VIII: what a homogeneous ("solo") sweep reads.
    pub const SOLO: MetricSet = MetricSet(
        Self::EFFICIENCY.0
            | Self::LOSS_AVOIDANCE.0
            | Self::LATENCY.0
            | Self::FAIRNESS.0
            | Self::CONVERGENCE.0
            | Self::FAST_UTILIZATION.0,
    );

    /// Does this set include every family in `other`?
    pub fn contains(self, other: MetricSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// The union of two sets.
    #[must_use]
    pub fn with(self, other: MetricSet) -> MetricSet {
        MetricSet(self.0 | other.0)
    }
}

impl Default for MetricSet {
    fn default() -> Self {
        MetricSet::ALL
    }
}

/// Static shape of the run the accumulators will consume — the link, the
/// length and the per-sender flags a `RunTrace` records as metadata —
/// plus the evaluation parameters and the [`MetricSet`] selecting which
/// families to maintain.
#[derive(Debug, Clone)]
pub struct MetricConfig {
    /// The (nominal) link of the run; capacity and RTT floor come from
    /// here.
    pub link: LinkParams,
    /// Total number of steps the run will execute.
    pub steps: usize,
    /// Per-sender `loss_based` flags (drives the fast-utilization RTT
    /// eligibility check, like `SenderTrace::loss_based`).
    pub loss_based: Vec<bool>,
    /// Fraction of the run treated as transient; the tail boundary is
    /// `floor(steps · fraction)`, mirroring `RunTrace::tail_start`.
    pub tail_fraction: f64,
    /// Minimum fast-utilization segment horizon (steps).
    pub min_horizon: usize,
    /// Escape threshold β tracked by the robustness accumulator.
    pub escape_beta: f64,
    /// Which metric families to maintain ([`MetricSet::ALL`] for the
    /// full evaluator).
    pub metrics: MetricSet,
}

impl MetricConfig {
    /// The shape of a finished trace — its link, length and per-sender
    /// `loss_based` flags — with the default evaluation parameters: the
    /// [`DEFAULT_TAIL_FRACTION`], [`DEFAULT_MIN_HORIZON`] and
    /// [`DEFAULT_ESCAPE_BETA`], and every metric family. Override fields
    /// with struct-update syntax.
    pub fn for_trace(trace: &RunTrace) -> Self {
        MetricConfig {
            link: trace.link,
            steps: trace.len(),
            loss_based: trace.senders.iter().map(|s| s.loss_based).collect(),
            tail_fraction: DEFAULT_TAIL_FRACTION,
            min_horizon: DEFAULT_MIN_HORIZON,
            escape_beta: DEFAULT_ESCAPE_BETA,
            metrics: MetricSet::ALL,
        }
    }

    /// The tail boundary this configuration implies — identical to
    /// `RunTrace::tail_start` on the finished trace.
    pub fn tail_start(&self) -> usize {
        let f = self.tail_fraction.clamp(0.0, 1.0);
        (self.steps as f64 * f).floor() as usize
    }
}

/// Evaluation parameters for a run folded as it goes: the tail, horizon
/// and escape threshold of the axiom folds, and the metric families to
/// keep.
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Fraction of the run treated as transient (`RunTrace::tail_start`).
    pub tail_fraction: f64,
    /// Minimum fast-utilization segment horizon.
    pub min_horizon: usize,
    /// Escape threshold β for the robustness accumulator.
    pub escape_beta: f64,
    /// Which metric families the accumulator maintains. Sweeps that read
    /// a known subset of scores (a robustness cell only asks
    /// "did the window escape?") restrict this so the sink skips every
    /// other family's per-block fold; [`MetricSet::ALL`] keeps the full
    /// evaluator.
    pub metrics: MetricSet,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            tail_fraction: DEFAULT_TAIL_FRACTION,
            min_horizon: DEFAULT_MIN_HORIZON,
            escape_beta: DEFAULT_ESCAPE_BETA,
            metrics: MetricSet::ALL,
        }
    }
}

/// The [`MetricAccumulator`] matching `run`'s shape — the link, row count
/// and per-sender `loss_based` flags its recorded trace would carry — with
/// `options`' evaluation parameters. Either engine's scenario serves.
pub fn metric_accumulator_for<S: RunShape + ?Sized>(
    run: &S,
    options: &StreamOptions,
) -> MetricAccumulator {
    MetricAccumulator::new(&MetricConfig {
        link: run.trace_link(),
        steps: run.trace_len(),
        loss_based: run.trace_protocols().map(|p| p.loss_based()).collect(),
        tail_fraction: options.tail_fraction,
        min_horizon: options.min_horizon,
        escape_beta: options.escape_beta,
        metrics: options.metrics,
    })
}

/// **Metric I: link-utilization.** Paper, Section 3: *"P is α-efficient
/// if when all senders employ P, for any initial configuration of
/// senders' window sizes, there is some time step T such that from T
/// onwards `X^(t) ≥ αC`."*
///
/// On a finite run the existential over `T` is read as "over the tail":
/// the score is the min-fold of `X^(t)/C` over the tail, capped at 1 —
/// mirroring Table 1's `min(1, ·)` forms: a total window that never drops
/// below capacity is fully efficient; buffer occupancy beyond `C` is not
/// extra efficiency. The universal quantifier over initial configurations
/// is realized by the scenario sweeps in `axcc-analysis`. The
/// mean-utilization companion sum rides along.
#[derive(Debug, Clone)]
pub struct EfficiencyAcc {
    capacity: f64,
    tail_start: usize,
    t: usize,
    worst_ratio: f64,
    sum: f64,
    tail_len: usize,
}

impl EfficiencyAcc {
    /// Accumulator for a run on `link` with the given tail boundary.
    pub fn new(link: &LinkParams, tail_start: usize) -> Self {
        EfficiencyAcc {
            capacity: link.capacity(),
            tail_start,
            t: 0,
            worst_ratio: f64::INFINITY,
            sum: 0.0,
            tail_len: 0,
        }
    }

    /// Consume a batch of total windows `X^(t)` in step order (the tail
    /// check hoists to one slice boundary).
    pub fn push_block(&mut self, totals: &[f64]) {
        let from = self.tail_start.saturating_sub(self.t).min(totals.len());
        let mut worst = self.worst_ratio;
        let mut sum = self.sum;
        for &total in &totals[from..] {
            worst = f64::min(worst, total / self.capacity);
            sum += total;
        }
        self.worst_ratio = worst;
        self.sum = sum;
        self.tail_len += totals.len() - from;
        self.t += totals.len();
    }

    /// The largest `α` with `X^(t) ≥ αC` on every tail step, capped at 1;
    /// 0 for an empty tail.
    pub fn measured(&self) -> f64 {
        let worst = if self.worst_ratio.is_finite() {
            self.worst_ratio
        } else {
            0.0
        };
        worst.min(1.0)
    }

    /// Mean utilization `X/C` over the tail (0 for an empty tail) — a
    /// companion statistic, not the paper's worst-case metric.
    pub fn mean_utilization(&self) -> f64 {
        if self.tail_len == 0 {
            return 0.0;
        }
        self.sum / (self.tail_len as f64 * self.capacity)
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.worst_ratio = f64::INFINITY;
        self.sum = 0.0;
        self.tail_len = 0;
    }
}

/// **Metric III: loss-avoidance.** Paper, Section 3: *"P is
/// α-loss-avoiding if when all senders employ P, for any initial
/// configuration of senders' window sizes, there is some time step T such
/// that from T onwards the loss rate `L^(t)` is bounded by α."* Protocols
/// that are 0-loss-avoiding are "0-loss".
///
/// The score is the max-fold of the link loss column over the tail (smaller
/// is better); the sum feeds the mean-loss companion.
#[derive(Debug, Clone)]
pub struct LossAvoidanceAcc {
    tail_start: usize,
    t: usize,
    worst: f64,
    sum: f64,
    tail_len: usize,
}

impl LossAvoidanceAcc {
    /// Accumulator with the given tail boundary.
    pub fn new(tail_start: usize) -> Self {
        LossAvoidanceAcc {
            tail_start,
            t: 0,
            worst: 0.0,
            sum: 0.0,
            tail_len: 0,
        }
    }

    /// Consume a batch of link loss rates `L^(t)` in step order.
    pub fn push_block(&mut self, losses: &[f64]) {
        let from = self.tail_start.saturating_sub(self.t).min(losses.len());
        let mut worst = self.worst;
        let mut sum = self.sum;
        for &loss in &losses[from..] {
            worst = f64::max(worst, loss);
            sum += loss;
        }
        self.worst = worst;
        self.sum = sum;
        self.tail_len += losses.len() - from;
        self.t += losses.len();
    }

    /// The smallest `α` the tail supports: its maximum link loss rate.
    pub fn measured(&self) -> f64 {
        self.worst
    }

    /// Mean link loss rate over the tail (0 for an empty tail).
    pub fn mean(&self) -> f64 {
        if self.tail_len == 0 {
            0.0
        } else {
            self.sum / self.tail_len as f64
        }
    }

    /// Whether the tail is 0-loss (no loss event after the transient).
    pub fn is_zero_loss(&self) -> bool {
        self.measured() <= 1e-12
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.worst = 0.0;
        self.sum = 0.0;
        self.tail_len = 0;
    }
}

/// **Metric VIII: latency-avoidance.** Paper, Section 3: *"P is
/// α-latency-avoiding if for sufficiently large link capacity C and buffer
/// size τ, and regardless of sender's initial window sizes, when all
/// senders on the link employ P, there is some time step T such that from
/// T onwards `RTT(t) < (1 + α)·2Θ`."*
///
/// The score is the max-fold of `RTT/(2Θ) − 1` over the tail (smaller is
/// better), and unbounded (`INFINITY`) as soon as a tail step shows loss:
/// a timeout-capped step has no meaningful latency bound, which is why
/// Table 1 calls loss-based protocols' latency scores "unbounded". The
/// fold latches a flag on the first lossy tail step and discards `worst`
/// from then on.
#[derive(Debug, Clone)]
pub struct LatencyAcc {
    floor: f64,
    tail_start: usize,
    t: usize,
    saw_tail_loss: bool,
    worst: f64,
}

impl LatencyAcc {
    /// Accumulator for a run on `link` with the given tail boundary.
    pub fn new(link: &LinkParams, tail_start: usize) -> Self {
        LatencyAcc {
            floor: link.min_rtt(),
            tail_start,
            t: 0,
            saw_tail_loss: false,
            worst: 0.0,
        }
    }

    /// Consume a batch of link RTT and loss rows in step order.
    pub fn push_block(&mut self, rtts: &[f64], losses: &[f64]) {
        debug_assert_eq!(rtts.len(), losses.len());
        let from = self.tail_start.saturating_sub(self.t).min(rtts.len());
        for k in from..rtts.len() {
            if losses[k] > 0.0 {
                self.saw_tail_loss = true;
            } else if !self.saw_tail_loss {
                self.worst = f64::max(self.worst, rtts[k] / self.floor - 1.0);
            }
        }
        self.t += rtts.len();
    }

    /// The smallest `α` with `RTT(t) < (1 + α)·2Θ` over the tail, or
    /// `INFINITY` if the tail saw loss.
    pub fn measured(&self) -> f64 {
        if self.saw_tail_loss {
            return f64::INFINITY;
        }
        self.worst.max(0.0)
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.saw_tail_loss = false;
        self.worst = 0.0;
    }
}

/// **Metrics IV and VII: fairness and TCP-friendliness.** Paper, Section
/// 3: *"P is α-fair if when all senders use P and for any configuration
/// of senders' window sizes, from some time T > 0 onwards, the average
/// window size of each sender i is at least an α-fraction that of any
/// other sender j"*; *"P is α-friendly to another protocol Q if, for any
/// combination of sender-protocols such that some senders use P and
/// others use Q, … for every P-sender i and Q-sender j, from some point in
/// time T > 0 onwards j's average window size is at least an α-fraction
/// of i's average window size"* — and α-TCP-friendly when Q is AIMD(1,
/// 0.5), TCP Reno.
///
/// Both are ratios of tail-average windows, so the fold keeps per-sender
/// tail sums of window and goodput (the same sums as
/// `SenderTrace::mean_window_from` / `mean_goodput_from`). Jain's index
/// over tail goodputs (RFC 5166's standard fairness measure) is reported
/// as a companion; it is not the axiom.
#[derive(Debug, Clone)]
pub struct FairnessAcc {
    tail_start: usize,
    t: usize,
    tail_len: usize,
    win_sums: Vec<f64>,
    goodput_sums: Vec<f64>,
}

impl FairnessAcc {
    /// Accumulator for `n` senders with the given tail boundary.
    pub fn new(n: usize, tail_start: usize) -> Self {
        FairnessAcc {
            tail_start,
            t: 0,
            tail_len: 0,
            win_sums: vec![0.0; n],
            goodput_sums: vec![0.0; n],
        }
    }

    /// Consume a batch of steps: each per-sender sum folds its own
    /// window and goodput columns in step order.
    pub fn push_block(&mut self, block: &StepBlock) {
        let len = block.len();
        let from = self.tail_start.saturating_sub(self.t).min(len);
        if from < len {
            for i in 0..self.win_sums.len() {
                let mut ws = self.win_sums[i];
                for &w in &block.windows(i)[from..] {
                    ws += w;
                }
                self.win_sums[i] = ws;
                let mut gs = self.goodput_sums[i];
                for &g in &block.goodputs(i)[from..] {
                    gs += g;
                }
                self.goodput_sums[i] = gs;
            }
            self.tail_len += len - from;
        }
        self.t += len;
    }

    /// Sender `i`'s tail-average window (`mean_window_from(tail)`).
    pub fn tail_mean_window(&self, i: usize) -> f64 {
        if self.tail_len == 0 {
            0.0
        } else {
            self.win_sums[i] / self.tail_len as f64
        }
    }

    /// Sender `i`'s tail-average goodput (`mean_goodput_from(tail)`).
    pub fn tail_mean_goodput(&self, i: usize) -> f64 {
        if self.tail_len == 0 {
            0.0
        } else {
            self.goodput_sums[i] / self.tail_len as f64
        }
    }

    /// Metric IV: `min_i avg_i / max_j avg_j` over tail-average windows.
    /// 1 for fewer than two senders (the axiom quantifies over pairs) or
    /// when all are idle; 0 when one starves while another sends.
    pub fn measured(&self) -> f64 {
        let n = self.win_sums.len();
        if n < 2 {
            return 1.0;
        }
        let avgs = (0..n).map(|i| self.tail_mean_window(i));
        let max = avgs.clone().fold(0.0, f64::max);
        let min = avgs.fold(f64::INFINITY, f64::min);
        if max <= 0.0 {
            return 1.0;
        }
        (min / max).clamp(0.0, 1.0)
    }

    /// Jain's index `(Σ g_i)² / (n · Σ g_i²)` over tail-average goodputs:
    /// from `1/n` (one sender hogs everything) to 1 (perfect equality).
    pub fn jain_index(&self) -> f64 {
        let n = self.goodput_sums.len() as f64;
        let g = (0..self.goodput_sums.len()).map(|i| self.tail_mean_goodput(i));
        let sum: f64 = g.clone().sum();
        let sum_sq: f64 = g.map(|x| x * x).sum();
        if sum_sq <= 0.0 {
            return 1.0;
        }
        (sum * sum) / (n * sum_sq)
    }

    /// Metric VII for P-senders `p` and Q-senders `q` (indices into the
    /// sender order): `(min_{j∈Q} avg_j) / (max_{i∈P} avg_i)`. 1 if either
    /// set is empty or all P-senders are idle; not clamped above 1 (Q
    /// out-competing P is reported as such).
    pub fn friendliness(&self, p: &[usize], q: &[usize]) -> f64 {
        if p.is_empty() || q.is_empty() {
            return 1.0;
        }
        let p_max = p
            .iter()
            .map(|&i| self.tail_mean_window(i))
            .fold(0.0, f64::max);
        let q_min = q
            .iter()
            .map(|&j| self.tail_mean_window(j))
            .fold(f64::INFINITY, f64::min);
        if p_max <= 0.0 {
            return 1.0;
        }
        (q_min / p_max).max(0.0)
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.tail_len = 0;
        self.win_sums.fill(0.0);
        self.goodput_sums.fill(0.0);
    }
}

/// **Metric V: convergence.** Paper, Section 3: *"P is α-convergent, for
/// α ∈ [0, 1], if there is a configuration of window sizes
/// `(x*_1, …, x*_n) ∈ [0, M]^n` and time step T such that for any t > T
/// and sender i, `α·x*_i ≤ x_i^(t) ≤ (2 − α)·x*_i`."*
///
/// The fold keeps each sender's `[lo, hi]` window excursion over the
/// tail. The definition lets the protocol pick `x*`, so the score
/// optimizes it per sender: for a band `[lo, hi]` the optimum has
/// `α·x* = lo` and `(2−α)·x* = hi`, i.e. `x* = (lo + hi)/2` and
/// `α = 2·lo/(lo + hi)`.
#[derive(Debug, Clone)]
pub struct ConvergenceAcc {
    steps: usize,
    tail_start: usize,
    t: usize,
    los: Vec<f64>,
    his: Vec<f64>,
}

impl ConvergenceAcc {
    /// Accumulator for `n` senders over a `steps`-long run.
    pub fn new(n: usize, steps: usize, tail_start: usize) -> Self {
        ConvergenceAcc {
            steps,
            tail_start,
            t: 0,
            los: vec![f64::INFINITY; n],
            his: vec![0.0; n],
        }
    }

    /// Consume a batch of steps: each sender's `[lo, hi]` fold consumes
    /// its own window column in step order.
    pub fn push_block(&mut self, block: &StepBlock) {
        let len = block.len();
        let from = self.tail_start.saturating_sub(self.t).min(len);
        if from < len {
            for i in 0..self.los.len() {
                let mut lo = self.los[i];
                let mut hi = self.his[i];
                for &w in &block.windows(i)[from..] {
                    lo = f64::min(lo, w);
                    hi = f64::max(hi, w);
                }
                self.los[i] = lo;
                self.his[i] = hi;
            }
        }
        self.t += len;
    }

    /// `min_i 2·lo_i / (lo_i + hi_i)`; 1 for an empty tail or a sender
    /// constant at zero (the all-zeros fixed point satisfies the
    /// definition exactly).
    pub fn measured(&self) -> f64 {
        if self.tail_start.min(self.steps) >= self.steps {
            return 1.0;
        }
        let mut worst = 1.0_f64;
        for i in 0..self.los.len() {
            let (lo, hi) = (self.los[i], self.his[i]);
            let alpha = if hi <= 0.0 { 1.0 } else { 2.0 * lo / (lo + hi) };
            worst = worst.min(alpha);
        }
        worst.clamp(0.0, 1.0)
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.los.fill(f64::INFINITY);
        self.his.fill(0.0);
    }
}

/// **Metric VI: robustness to non-congestion loss.** Paper, Section 3:
/// *"Suppose that a single sender i sends on a link of infinite capacity
/// … P is α-robust if when the sender experiences constant random packet
/// loss rate of at most α ∈ [0, 1], then, for any choice of initial
/// senders' window sizes and value β > 0, there is some T > 0 such that
/// for every t > T, `x_i^(t) ≥ β`."*
///
/// A single run can only witness escape for the β it reaches; the search
/// over loss rates lives in `axcc-analysis`. The fold keeps each sender's
/// last dip below β, its third/fourth-quarter window sums (the "still
/// growing" witness of divergence) and its final window.
#[derive(Debug, Clone)]
pub struct RobustnessAcc {
    beta: f64,
    steps: usize,
    t: usize,
    last_dips: Vec<Option<usize>>,
    q3_sums: Vec<f64>,
    q4_sums: Vec<f64>,
    last_windows: Vec<f64>,
}

impl RobustnessAcc {
    /// Accumulator for `n` senders over a `steps`-long run, tracking
    /// escape above `beta`.
    pub fn new(n: usize, steps: usize, beta: f64) -> Self {
        RobustnessAcc {
            beta,
            steps,
            t: 0,
            last_dips: vec![None; n],
            q3_sums: vec![0.0; n],
            q4_sums: vec![0.0; n],
            last_windows: vec![0.0; n],
        }
    }

    /// Consume a batch of steps. The quartile boundaries `h = steps/2`
    /// and `q = 3·steps/4` hoist to slice boundaries (every row in
    /// `[h_from, q_from)` satisfies `h <= t < q`, and rows from `q_from`
    /// satisfy `t >= q`), and each per-sender sum folds its column in
    /// step order.
    pub fn push_block(&mut self, block: &StepBlock) {
        let len = block.len();
        if len == 0 {
            return;
        }
        let (h, q) = (self.steps / 2, 3 * self.steps / 4);
        let h_from = h.saturating_sub(self.t).min(len);
        let q_from = q.saturating_sub(self.t).min(len).max(h_from);
        for i in 0..self.last_dips.len() {
            let col = block.windows(i);
            let mut dip = self.last_dips[i];
            for (k, &w) in col.iter().enumerate() {
                if w < self.beta {
                    dip = Some(self.t + k);
                }
            }
            self.last_dips[i] = dip;
            let mut q3 = self.q3_sums[i];
            for &w in &col[h_from..q_from] {
                q3 += w;
            }
            self.q3_sums[i] = q3;
            let mut q4 = self.q4_sums[i];
            for &w in &col[q_from..] {
                q4 += w;
            }
            self.q4_sums[i] = q4;
            self.last_windows[i] = col[len - 1];
        }
        self.t += len;
    }

    /// Whether sender `i`'s window escapes to β: after its last dip below
    /// β the window stays at or above β for the rest of the run, and that
    /// suffix is non-empty and at least `min_suffix_frac` of the run (a
    /// single final sample does not count).
    pub fn escapes(&self, i: usize, min_suffix_frac: f64) -> bool {
        let n = self.t;
        if n == 0 {
            return false;
        }
        let suffix_start = match self.last_dips[i] {
            None => 0,
            Some(d) => d + 1,
        };
        let suffix_len = n - suffix_start;
        suffix_len as f64 >= min_suffix_frac * n as f64 && suffix_len > 0
    }

    /// Whether sender `i`'s window is still growing at the end: its mean
    /// over the last quarter exceeds the third quarter's by
    /// `growth_margin`. Under the axiom's infinite-capacity link a robust
    /// protocol diverges, so a finite run of it ends in growth; a
    /// non-robust one stalls. False for runs shorter than 8 steps.
    pub fn diverging(&self, i: usize, growth_margin: f64) -> bool {
        let n = self.steps;
        if n < 8 {
            return false;
        }
        let q3_len = 3 * n / 4 - n / 2;
        let q4_len = n - 3 * n / 4;
        let q3 = if q3_len == 0 {
            0.0
        } else {
            self.q3_sums[i] / q3_len as f64
        };
        let q4 = if q4_len == 0 {
            0.0
        } else {
            self.q4_sums[i] / q4_len as f64
        };
        q4 > q3 + growth_margin
    }

    /// Sender `i`'s final window (`senders[i].window.last()`), 0 before
    /// any step.
    pub fn last_window(&self, i: usize) -> f64 {
        self.last_windows[i]
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.last_dips.fill(None);
        self.q3_sums.fill(0.0);
        self.q4_sums.fill(0.0);
        self.last_windows.fill(0.0);
    }
}

/// Per-sender state for Metric II (fast-utilization): the eligible-segment
/// scan fused with the per-segment cumulative-gain fold, using one step of
/// lookback.
#[derive(Debug, Clone)]
struct FastUtilSender {
    check_rtt: bool,
    prev_window: f64,
    prev_rtt: f64,
    seg_start: Option<usize>,
    x1: f64,
    cum_gain: f64,
    worst: Option<f64>,
}

impl FastUtilSender {
    fn new(loss_based: bool) -> Self {
        FastUtilSender {
            check_rtt: !loss_based,
            prev_window: 0.0,
            prev_rtt: 0.0,
            seg_start: None,
            x1: 0.0,
            cum_gain: 0.0,
            worst: None,
        }
    }

    fn finalize_segment(&mut self, start: usize, end: usize, min_horizon: usize) {
        let len = end - start;
        if len <= min_horizon {
            return;
        }
        let final_dt = (len - 1) as f64;
        let alpha = 2.0 * self.cum_gain / (final_dt * final_dt);
        self.worst = Some(match self.worst {
            None => alpha,
            Some(w) => w.min(alpha),
        });
    }

    /// Advance the segment scan by step `t`'s window, loss and RTT.
    fn scan(
        &mut self,
        t: usize,
        from: usize,
        min_horizon: usize,
        window: f64,
        loss: f64,
        rtt: f64,
    ) {
        let lossy = loss > 0.0;
        let has_prev = t > from;
        let backed_off = has_prev && window < self.prev_window * 0.99 - 1e-12;
        let rtt_rose = self.check_rtt && has_prev && rtt > self.prev_rtt + 1e-12;
        if lossy || backed_off || rtt_rose {
            if let Some(s) = self.seg_start.take() {
                self.finalize_segment(s, t, min_horizon);
            }
            // A back-off or RTT rise ends a segment but can begin a new
            // one at the post-event window; a lossy step cannot — its
            // window predates the reaction.
            if !lossy {
                self.seg_start = Some(t);
                self.x1 = window;
                self.cum_gain = 0.0;
            }
        } else if self.seg_start.is_none() {
            self.seg_start = Some(t);
            self.x1 = window;
            self.cum_gain = 0.0;
        } else {
            self.cum_gain += window - self.x1;
        }
        self.prev_window = window;
        self.prev_rtt = rtt;
    }

    fn measured(&self, end: usize, min_horizon: usize) -> Option<f64> {
        // Flush the open segment without mutating (`measured` may be read
        // mid-stream by tests); clone the tiny state instead.
        let mut fin = self.clone();
        if let Some(s) = fin.seg_start.take() {
            if end > s {
                fin.finalize_segment(s, end, min_horizon);
            }
        }
        fin.worst.map(|w| w.max(0.0))
    }

    fn reset(&mut self) {
        self.prev_window = 0.0;
        self.prev_rtt = 0.0;
        self.seg_start = None;
        self.x1 = 0.0;
        self.cum_gain = 0.0;
        self.worst = None;
    }
}

/// **Metric II: fast-utilization**, per sender. Paper, Section 3: *"P is
/// α-fast-utilizing if there exists T > 0 such that if a P-sender i's
/// window size is `x_i^(t1)` at time step `t1` and by time step
/// `t1 + Δt`, for any `Δt ≥ T`, does not experience loss, nor increased
/// RTT (if not loss-based), then
/// `Σ_{t=t1}^{t1+Δt} (x_i^(t) − x_i^(t1)) ≥ αΔt²/2`."*
///
/// The fold scans each sender for *eligible segments* — maximal stretches
/// with zero loss and, for non-loss-based protocols, non-increasing RTT. A
/// window drop of more than 1% also ends a segment: in sampled traces the
/// loss-triggered back-off can land one sample after the interval whose
/// loss column marked the event, and an ascent must not span a back-off.
/// The protocol picks the horizon `T`; on a segment of length `L` the best
/// choice is `T = L − 1`, so each segment scores its normalized cumulative
/// gain at the largest horizon, `2·Σ(x(t) − x(t1)) / (L−1)²` (a minimum
/// over all horizons would under-score back-loaded ascents like MIMD's and
/// CUBIC's, which the axiom permits via `T`). The score is the worst such
/// value over segments longer than the minimum horizon.
#[derive(Debug, Clone)]
pub struct FastUtilizationAcc {
    from: usize,
    min_horizon: usize,
    t: usize,
    senders: Vec<FastUtilSender>,
}

impl FastUtilizationAcc {
    /// Accumulator scanning from step `from` with the given minimum
    /// segment horizon; `loss_based` flags one entry per sender.
    pub fn new(loss_based: &[bool], from: usize, min_horizon: usize) -> Self {
        FastUtilizationAcc {
            from,
            min_horizon,
            t: 0,
            senders: loss_based
                .iter()
                .map(|&lb| FastUtilSender::new(lb))
                .collect(),
        }
    }

    /// Consume a batch of steps. The segment scan is an inherently
    /// sequential state machine, so each sender scans its window, loss
    /// and RTT columns row by row in step order.
    pub fn push_block(&mut self, block: &StepBlock) {
        let len = block.len();
        let start = self.from.saturating_sub(self.t).min(len);
        let (t0, from, min_horizon) = (self.t, self.from, self.min_horizon);
        for (i, s) in self.senders.iter_mut().enumerate() {
            let rtts = block.sender_rtts(i);
            let windows = block.windows(i);
            let losses = block.sender_losses(i);
            for k in start..len {
                s.scan(t0 + k, from, min_horizon, windows[k], losses[k], rtts[k]);
            }
        }
        self.t += len;
    }

    /// The largest `α` consistent with sender `i`'s ascents, or `None`
    /// when no eligible segment was long enough to judge (the axiom is then
    /// vacuous on this run, and the caller should lengthen it).
    pub fn measured(&self, i: usize) -> Option<f64> {
        self.senders[i].measured(self.t, self.min_horizon)
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        for s in &mut self.senders {
            s.reset();
        }
    }
}

/// Stage a finished trace's columns into blocks of up to `cap` steps and
/// hand each block to `ingest` in step order. Per-sender RTT columns are
/// staged when the trace records them (packet-level and multi-link runs).
pub(crate) fn stage_blocks(trace: &RunTrace, cap: usize, mut ingest: impl FnMut(&StepBlock)) {
    let own_rtts = trace.senders.iter().any(|s| s.rtt.is_some());
    let mut block = StepBlock::new(trace.num_senders(), cap);
    if own_rtts {
        block.track_sender_rtts();
    }
    let mut start = 0;
    while start < trace.len() {
        let end = (start + block.capacity()).min(trace.len());
        block.begin(start);
        for t in start..end {
            block.stage_shared(trace.total_window[t], trace.rtt[t], trace.loss[t]);
            for (i, s) in trace.senders.iter().enumerate() {
                block.stage_sender(i, s.window[t], s.loss[t], s.goodput[t]);
                if own_rtts {
                    block.stage_sender_rtt(i, trace.sender_rtt(i)[t]);
                }
            }
            block.advance();
        }
        ingest(&block);
        start = end;
    }
}

/// The combined single-pass evaluator: one instance per run, consuming
/// blocks of shared link-state and per-sender columns, exposing every
/// axiom score. Engines drive it as they run; a finished trace is scored
/// by [`replay`](MetricAccumulator::replay).
#[derive(Debug, Clone)]
pub struct MetricAccumulator {
    steps: usize,
    tail: usize,
    n: usize,
    t: usize,
    metrics: MetricSet,
    efficiency: EfficiencyAcc,
    loss: LossAvoidanceAcc,
    latency: LatencyAcc,
    fairness: FairnessAcc,
    convergence: ConvergenceAcc,
    robustness: RobustnessAcc,
    fast_utilization: FastUtilizationAcc,
}

impl MetricAccumulator {
    /// Build the accumulator for one run shape.
    pub fn new(cfg: &MetricConfig) -> Self {
        let tail = cfg.tail_start();
        let n = cfg.loss_based.len();
        MetricAccumulator {
            steps: cfg.steps,
            tail,
            n,
            t: 0,
            metrics: cfg.metrics,
            efficiency: EfficiencyAcc::new(&cfg.link, tail),
            loss: LossAvoidanceAcc::new(tail),
            latency: LatencyAcc::new(&cfg.link, tail),
            fairness: FairnessAcc::new(n, tail),
            convergence: ConvergenceAcc::new(n, cfg.steps, tail),
            robustness: RobustnessAcc::new(n, cfg.steps, cfg.escape_beta),
            fast_utilization: FastUtilizationAcc::new(&cfg.loss_based, tail, cfg.min_horizon),
        }
    }

    /// Consume a whole block of steps: the shared total window, link RTT
    /// and link loss columns (a trace's `total_window` / `rtt` / `loss`),
    /// plus each sender's columns. Each sub-accumulator walks its columns
    /// in step order, with tail boundaries and quartile cuts computed once
    /// per block, so the scores do not depend on where blocks are cut.
    pub fn push_block(&mut self, block: &StepBlock) {
        debug_assert_eq!(block.num_senders(), self.n);
        let m = self.metrics;
        if m.contains(MetricSet::EFFICIENCY) {
            self.efficiency.push_block(block.totals());
        }
        if m.contains(MetricSet::LOSS_AVOIDANCE) {
            self.loss.push_block(block.link_losses());
        }
        if m.contains(MetricSet::LATENCY) {
            self.latency.push_block(block.rtts(), block.link_losses());
        }
        if m.contains(MetricSet::FAIRNESS) {
            self.fairness.push_block(block);
        }
        if m.contains(MetricSet::CONVERGENCE) {
            self.convergence.push_block(block);
        }
        if m.contains(MetricSet::ROBUSTNESS) {
            self.robustness.push_block(block);
        }
        if m.contains(MetricSet::FAST_UTILIZATION) {
            self.fast_utilization.push_block(block);
        }
        self.t += block.len();
    }

    /// Score a finished trace: feed its columns — per-sender RTT columns
    /// included, for packet-level traces — through the same
    /// [`StepBlock`] fold an engine drives, in blocks of
    /// [`StepBlock::DEFAULT_CAPACITY`] steps. `cfg` must describe the
    /// trace's shape; [`MetricConfig::for_trace`] builds one.
    pub fn replay(trace: &RunTrace, cfg: &MetricConfig) -> Self {
        debug_assert_eq!(cfg.steps, trace.len());
        debug_assert_eq!(cfg.loss_based.len(), trace.num_senders());
        let mut acc = MetricAccumulator::new(cfg);
        stage_blocks(trace, StepBlock::DEFAULT_CAPACITY, |block| {
            acc.push_block(block)
        });
        acc
    }

    /// Steps consumed so far.
    pub fn steps_seen(&self) -> usize {
        self.t
    }

    /// Steps the configuration promised.
    pub fn steps_expected(&self) -> usize {
        self.steps
    }

    /// Number of senders.
    pub fn num_senders(&self) -> usize {
        self.n
    }

    /// First step of the tail the scores are taken over
    /// ([`MetricConfig::tail_start`]).
    pub fn tail_start(&self) -> usize {
        self.tail
    }

    /// Metric I (see [`EfficiencyAcc::measured`]).
    pub fn measured_efficiency(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::EFFICIENCY));
        self.efficiency.measured()
    }

    /// Companion: mean tail utilization.
    pub fn mean_utilization(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::EFFICIENCY));
        self.efficiency.mean_utilization()
    }

    /// Metric III (see [`LossAvoidanceAcc::measured`]).
    pub fn measured_loss_bound(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::LOSS_AVOIDANCE));
        self.loss.measured()
    }

    /// Companion: mean tail loss rate.
    pub fn mean_loss(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::LOSS_AVOIDANCE));
        self.loss.mean()
    }

    /// Whether the tail is 0-loss.
    pub fn is_zero_loss(&self) -> bool {
        debug_assert!(self.metrics.contains(MetricSet::LOSS_AVOIDANCE));
        self.loss.is_zero_loss()
    }

    /// Metric VIII (see [`LatencyAcc::measured`]).
    pub fn measured_latency_inflation(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::LATENCY));
        self.latency.measured()
    }

    /// Metric IV (see [`FairnessAcc::measured`]).
    pub fn measured_fairness(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::FAIRNESS));
        self.fairness.measured()
    }

    /// Companion: Jain's index over tail goodputs.
    pub fn jain_index(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::FAIRNESS));
        self.fairness.jain_index()
    }

    /// Metric V (see [`ConvergenceAcc::measured`]).
    pub fn measured_convergence(&self) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::CONVERGENCE));
        self.convergence.measured()
    }

    /// Metric II per sender (see [`FastUtilizationAcc::measured`]).
    pub fn measured_fast_utilization(&self, i: usize) -> Option<f64> {
        debug_assert!(self.metrics.contains(MetricSet::FAST_UTILIZATION));
        self.fast_utilization.measured(i)
    }

    /// Metric VII for P-set `p` and Q-set `q` (see
    /// [`FairnessAcc::friendliness`]).
    pub fn measured_friendliness(&self, p: &[usize], q: &[usize]) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::FAIRNESS));
        self.fairness.friendliness(p, q)
    }

    /// Metric VI per sender: escape above the configured β (see
    /// [`RobustnessAcc::escapes`]).
    pub fn window_escapes(&self, i: usize, min_suffix_frac: f64) -> bool {
        debug_assert!(self.metrics.contains(MetricSet::ROBUSTNESS));
        self.robustness.escapes(i, min_suffix_frac)
    }

    /// Metric VI per sender: end-of-run growth (see
    /// [`RobustnessAcc::diverging`]).
    pub fn window_diverging(&self, i: usize, growth_margin: f64) -> bool {
        debug_assert!(self.metrics.contains(MetricSet::ROBUSTNESS));
        self.robustness.diverging(i, growth_margin)
    }

    /// Sender `i`'s final window.
    pub fn last_window(&self, i: usize) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::ROBUSTNESS));
        self.robustness.last_window(i)
    }

    /// Sender `i`'s tail-average window.
    pub fn tail_mean_window(&self, i: usize) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::FAIRNESS));
        self.fairness.tail_mean_window(i)
    }

    /// Sender `i`'s tail-average goodput.
    pub fn tail_mean_goodput(&self, i: usize) -> f64 {
        debug_assert!(self.metrics.contains(MetricSet::FAIRNESS));
        self.fairness.tail_mean_goodput(i)
    }

    /// Clear all run state so the accumulator can consume another run of
    /// the same shape (sweep jobs reuse one instance across scenario
    /// variations instead of reallocating per run).
    pub fn reset(&mut self) {
        self.t = 0;
        self.efficiency.reset();
        self.loss.reset();
        self.latency.reset();
        self.fairness.reset();
        self.convergence.reset();
        self.robustness.reset();
        self.fast_utilization.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::testutil::{small_link, trace_from_windows};
    use crate::trace::SenderTrace;

    /// The replay's configuration for a hand-built trace: tail from
    /// `floor(len · tail_fraction)`, escape threshold `beta`.
    fn config(trace: &RunTrace, tail_fraction: f64, beta: f64) -> MetricConfig {
        MetricConfig {
            tail_fraction,
            escape_beta: beta,
            ..MetricConfig::for_trace(trace)
        }
    }

    /// Score a trace through the public replay.
    fn score(trace: &RunTrace, tail_fraction: f64) -> MetricAccumulator {
        MetricAccumulator::replay(trace, &config(trace, tail_fraction, 50.0))
    }

    /// Feed the trace through `StepBlock`s of capacity `cap`.
    fn accumulate_blocks(
        trace: &RunTrace,
        tail_fraction: f64,
        beta: f64,
        cap: usize,
    ) -> MetricAccumulator {
        let mut acc = MetricAccumulator::new(&config(trace, tail_fraction, beta));
        stage_blocks(trace, cap, |block| acc.push_block(block));
        acc
    }

    /// Block capacities every split-sensitive test runs: one step per
    /// block, an odd capacity that cuts boundaries mid-block, and the
    /// engine's default.
    const CAPS: [usize; 3] = [1, 7, StepBlock::DEFAULT_CAPACITY];

    /// A one-sender trace with explicit loss and RTT columns (the link
    /// columns mirror the sender's), for the per-sender metrics.
    fn sender_trace(window: Vec<f64>, loss: Vec<f64>, rtt: Vec<f64>, loss_based: bool) -> RunTrace {
        let n = window.len();
        RunTrace {
            link: small_link(),
            total_window: window.clone(),
            rtt,
            loss: loss.clone(),
            senders: vec![SenderTrace {
                protocol: "test".into(),
                loss_based,
                goodput: vec![0.0; n],
                window,
                loss,
                rtt: None,
            }],
            seed: 0,
        }
    }

    fn lossless_sender(window: Vec<f64>) -> RunTrace {
        let n = window.len();
        sender_trace(window, vec![0.0; n], vec![0.1; n], true)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    // Metric I — efficiency. small_link(): C = 100 MSS, τ = 20 MSS.

    #[test]
    fn efficiency_scores_the_worst_tail_utilization() {
        let full = score(&trace_from_windows(small_link(), &[vec![100.0; 10]]), 0.0);
        assert!(close(full.measured_efficiency(), 1.0));
        let half = score(&trace_from_windows(small_link(), &[vec![50.0; 10]]), 0.0);
        assert!(close(half.measured_efficiency(), 0.5));
        // Sawtooth dipping to 60: α = 0.6 even though the peak is 1.2·C.
        let saw = trace_from_windows(small_link(), &[vec![120.0, 60.0, 120.0, 60.0]]);
        assert!(close(score(&saw, 0.0).measured_efficiency(), 0.6));
        // Senders' windows sum.
        let pair = trace_from_windows(small_link(), &[vec![40.0; 5], vec![40.0; 5]]);
        assert!(close(score(&pair, 0.0).measured_efficiency(), 0.8));
    }

    #[test]
    fn efficiency_tail_skips_the_transient() {
        // Slow start from 1, then steady at 90.
        let mut w = vec![1.0, 2.0, 4.0, 8.0];
        w.extend(vec![90.0; 4]);
        let tr = trace_from_windows(small_link(), &[w]);
        assert!(close(score(&tr, 0.0).measured_efficiency(), 0.01));
        assert!(close(score(&tr, 0.5).measured_efficiency(), 0.9));
    }

    #[test]
    fn efficiency_caps_a_standing_queue_at_one() {
        // Total never dips below 106 (MIMD-style shallow back-off): the
        // score caps at 1 per Table 1's min(1, ·).
        let tr = trace_from_windows(small_link(), &[vec![118.0, 106.0, 118.0, 106.0]]);
        assert_eq!(score(&tr, 0.0).measured_efficiency(), 1.0);
    }

    #[test]
    fn efficiency_of_an_empty_tail_is_zero() {
        let tr = trace_from_windows(small_link(), &[vec![50.0; 4]]);
        let acc = score(&tr, 1.0);
        assert_eq!(acc.measured_efficiency(), 0.0);
        assert_eq!(acc.mean_utilization(), 0.0);
    }

    #[test]
    fn mean_utilization_averages() {
        let tr = trace_from_windows(small_link(), &[vec![50.0, 100.0]]);
        assert!(close(score(&tr, 0.0).mean_utilization(), 0.75));
    }

    // Metric III — loss-avoidance. Loss starts above C + τ = 120.

    #[test]
    fn lossless_tail_is_zero_loss() {
        let acc = score(&trace_from_windows(small_link(), &[vec![50.0; 10]]), 0.0);
        assert_eq!(acc.measured_loss_bound(), 0.0);
        assert!(acc.is_zero_loss());
    }

    #[test]
    fn overflow_loss_is_measured() {
        // X = 150 => L = 1 - 120/150 = 0.2.
        let acc = score(&trace_from_windows(small_link(), &[vec![150.0; 10]]), 0.0);
        assert!(close(acc.measured_loss_bound(), 0.2));
        assert!(!acc.is_zero_loss());
        // L(240) = 0.5 is the worst step.
        let tr = trace_from_windows(small_link(), &[vec![120.0, 240.0, 121.0]]);
        assert!(close(score(&tr, 0.0).measured_loss_bound(), 0.5));
    }

    #[test]
    fn transient_loss_is_excluded_by_the_tail() {
        let mut w = vec![200.0; 5];
        w.extend(vec![100.0; 5]);
        let tr = trace_from_windows(small_link(), &[w]);
        assert!(score(&tr, 0.0).measured_loss_bound() > 0.0);
        assert!(score(&tr, 0.5).is_zero_loss());
    }

    #[test]
    fn mean_loss_averages() {
        let tr = trace_from_windows(small_link(), &[vec![240.0, 120.0]]);
        assert!(close(score(&tr, 0.0).mean_loss(), 0.25));
        assert_eq!(score(&tr, 1.0).mean_loss(), 0.0);
    }

    // Metric VIII — latency-avoidance. B = 1000 MSS/s, 2Θ = 0.1 s.

    #[test]
    fn empty_pipe_has_zero_inflation() {
        let acc = score(&trace_from_windows(small_link(), &[vec![80.0; 10]]), 0.0);
        assert_eq!(acc.measured_latency_inflation(), 0.0);
    }

    #[test]
    fn standing_queue_inflates_rtt() {
        // X = 110 => 10 MSS queued = 10 ms over a 100 ms floor: 10%.
        let acc = score(&trace_from_windows(small_link(), &[vec![110.0; 10]]), 0.0);
        assert!((acc.measured_latency_inflation() - 0.1).abs() < 1e-9);
        // Alternating 100 / 115: the worst step dominates.
        let w: Vec<f64> = (0..10)
            .map(|t| if t % 2 == 0 { 100.0 } else { 115.0 })
            .collect();
        let acc = score(&trace_from_windows(small_link(), &[w]), 0.0);
        assert!((acc.measured_latency_inflation() - 0.15).abs() < 1e-9);
    }

    #[test]
    fn buffer_overflow_makes_latency_unbounded() {
        let acc = score(&trace_from_windows(small_link(), &[vec![150.0; 10]]), 0.0);
        assert_eq!(acc.measured_latency_inflation(), f64::INFINITY);
        // A transient overflow outside the tail does not count.
        let mut w = vec![150.0; 5];
        w.extend(vec![100.0; 5]);
        let tr = trace_from_windows(small_link(), &[w]);
        assert_eq!(score(&tr, 0.0).measured_latency_inflation(), f64::INFINITY);
        assert_eq!(score(&tr, 0.5).measured_latency_inflation(), 0.0);
    }

    // Metric IV — fairness.

    #[test]
    fn fairness_is_the_worst_tail_average_ratio() {
        let equal = score(
            &trace_from_windows(small_link(), &[vec![40.0; 10], vec![40.0; 10]]),
            0.0,
        );
        assert!(close(equal.measured_fairness(), 1.0));
        assert!(close(equal.jain_index(), 1.0));
        let split = trace_from_windows(small_link(), &[vec![60.0; 10], vec![30.0; 10]]);
        assert!(close(score(&split, 0.0).measured_fairness(), 0.5));
        let three = trace_from_windows(
            small_link(),
            &[vec![40.0; 10], vec![40.0; 10], vec![10.0; 10]],
        );
        assert!(close(score(&three, 0.0).measured_fairness(), 0.25));
    }

    #[test]
    fn fairness_uses_averages_not_instantaneous_windows() {
        // Out-of-phase 20/60 alternation: instantaneous ratio 1/3, equal
        // averages.
        let a: Vec<f64> = (0..20)
            .map(|t| if t % 2 == 0 { 20.0 } else { 60.0 })
            .collect();
        let b: Vec<f64> = (0..20)
            .map(|t| if t % 2 == 0 { 60.0 } else { 20.0 })
            .collect();
        let tr = trace_from_windows(small_link(), &[a, b]);
        assert!(close(score(&tr, 0.0).measured_fairness(), 1.0));
    }

    #[test]
    fn starved_sender_scores_zero_and_halves_jain() {
        let tr = trace_from_windows(small_link(), &[vec![80.0; 10], vec![0.0; 10]]);
        let acc = score(&tr, 0.0);
        assert_eq!(acc.measured_fairness(), 0.0);
        assert!(close(acc.jain_index(), 0.5));
    }

    #[test]
    fn lone_or_idle_senders_are_vacuously_fair() {
        let lone = score(&trace_from_windows(small_link(), &[vec![80.0; 10]]), 0.0);
        assert_eq!(lone.measured_fairness(), 1.0);
        let idle = score(
            &trace_from_windows(small_link(), &[vec![0.0; 5], vec![0.0; 5]]),
            0.0,
        );
        assert_eq!(idle.measured_fairness(), 1.0);
        assert_eq!(idle.jain_index(), 1.0);
    }

    // Metric VII — friendliness.

    #[test]
    fn friendliness_is_q_min_over_p_max() {
        let equal = trace_from_windows(small_link(), &[vec![40.0; 10], vec![40.0; 10]]);
        assert!(close(
            score(&equal, 0.0).measured_friendliness(&[0], &[1]),
            1.0
        ));
        // P takes 90, Q is squeezed to 10.
        let greedy = trace_from_windows(small_link(), &[vec![90.0; 10], vec![10.0; 10]]);
        let f = score(&greedy, 0.0).measured_friendliness(&[0], &[1]);
        assert!(close(f, 10.0 / 90.0));
        // A meek P scores above one: not clamped.
        let meek = trace_from_windows(small_link(), &[vec![20.0; 10], vec![80.0; 10]]);
        assert!(close(
            score(&meek, 0.0).measured_friendliness(&[0], &[1]),
            4.0
        ));
        // Two P (50, 70), two Q (30, 60): worst = 30/70.
        let four = trace_from_windows(
            small_link(),
            &[vec![50.0; 8], vec![70.0; 8], vec![30.0; 8], vec![60.0; 8]],
        );
        let f = score(&four, 0.0).measured_friendliness(&[0, 1], &[2, 3]);
        assert!(close(f, 30.0 / 70.0));
    }

    #[test]
    fn friendliness_edge_cases() {
        let starved = trace_from_windows(small_link(), &[vec![100.0; 8], vec![0.0; 8]]);
        assert_eq!(score(&starved, 0.0).measured_friendliness(&[0], &[1]), 0.0);
        let lone = score(&trace_from_windows(small_link(), &[vec![50.0; 8]]), 0.0);
        assert_eq!(lone.measured_friendliness(&[], &[0]), 1.0);
        assert_eq!(lone.measured_friendliness(&[0], &[]), 1.0);
        let idle_p = trace_from_windows(small_link(), &[vec![0.0; 8], vec![50.0; 8]]);
        assert_eq!(score(&idle_p, 0.0).measured_friendliness(&[0], &[1]), 1.0);
    }

    // Metric V — convergence.

    #[test]
    fn constant_windows_are_fully_convergent() {
        let tr = trace_from_windows(small_link(), &[vec![40.0; 10], vec![60.0; 10]]);
        assert!(close(score(&tr, 0.0).measured_convergence(), 1.0));
        let zero = trace_from_windows(small_link(), &[vec![0.0; 10]]);
        assert_eq!(score(&zero, 0.0).measured_convergence(), 1.0);
    }

    #[test]
    fn aimd_sawtooth_scores_2b_over_1_plus_b() {
        // AIMD(·, b) oscillates between b·W and W; the optimal
        // x* = W(1+b)/2 gives α = 2b/(1+b) — Table 1's convergence entry.
        let (b, peak) = (0.5, 80.0);
        let w: Vec<f64> = (0..40)
            .map(|t| b * peak + (1.0 - b) * peak * ((t % 8) as f64 / 7.0))
            .collect();
        let tr = trace_from_windows(small_link(), &[w]);
        let m = score(&tr, 0.0).measured_convergence();
        assert!((m - 2.0 * b / (1.0 + b)).abs() < 1e-9, "measured {m}");
    }

    #[test]
    fn convergence_worst_sender_dominates() {
        let wild: Vec<f64> = (0..20)
            .map(|t| if t % 2 == 0 { 10.0 } else { 90.0 })
            .collect();
        let tr = trace_from_windows(small_link(), &[vec![50.0; 20], wild]);
        // Wild sender: α = 2·10/(10+90) = 0.2.
        assert!(close(score(&tr, 0.0).measured_convergence(), 0.2));
        let dips: Vec<f64> = (0..10)
            .map(|t| if t % 2 == 0 { 0.0 } else { 50.0 })
            .collect();
        let tr = trace_from_windows(small_link(), &[dips]);
        assert_eq!(score(&tr, 0.0).measured_convergence(), 0.0);
    }

    #[test]
    fn convergence_tail_excludes_the_transient() {
        let mut w = vec![1.0, 100.0, 3.0, 90.0];
        w.extend(vec![50.0; 4]);
        let tr = trace_from_windows(small_link(), &[w]);
        assert!(score(&tr, 0.0).measured_convergence() < 0.1);
        assert!(close(score(&tr, 0.5).measured_convergence(), 1.0));
        // An empty tail is vacuous.
        assert_eq!(score(&tr, 1.0).measured_convergence(), 1.0);
    }

    // Metric VI — robustness.

    fn escapes(window: Vec<f64>, beta: f64, min_suffix_frac: f64) -> bool {
        let tr = lossless_sender(window);
        MetricAccumulator::replay(&tr, &config(&tr, 0.5, beta)).window_escapes(0, min_suffix_frac)
    }

    fn diverging(window: Vec<f64>, growth_margin: f64) -> bool {
        score(&lossless_sender(window), 0.5).window_diverging(0, growth_margin)
    }

    #[test]
    fn growing_window_escapes_and_diverges() {
        let w: Vec<f64> = (0..100).map(|t| t as f64).collect();
        assert!(escapes(w.clone(), 50.0, 0.25));
        assert!(diverging(w, 1.0));
    }

    #[test]
    fn collapsed_window_neither_escapes_nor_diverges() {
        // TCP under random loss: a sawtooth pinned near zero.
        let w: Vec<f64> = (0..100).map(|t| 1.0 + (t % 4) as f64).collect();
        assert!(!escapes(w.clone(), 50.0, 0.25));
        assert!(!diverging(w, 1.0));
    }

    #[test]
    fn late_dip_defeats_escape() {
        let mut w: Vec<f64> = (0..100).map(|t| t as f64).collect();
        w[95] = 0.5;
        assert!(!escapes(w, 10.0, 0.25));
    }

    #[test]
    fn escape_requires_a_long_suffix() {
        // Above β only at the very last step.
        let mut w = vec![1.0; 99];
        w.push(100.0);
        assert!(!escapes(w.clone(), 50.0, 0.25));
        assert!(escapes(w, 50.0, 0.005));
    }

    #[test]
    fn empty_run_never_escapes() {
        assert!(!escapes(Vec::new(), 1.0, 0.1));
        assert!(!diverging(Vec::new(), 0.0));
    }

    #[test]
    fn stalled_window_escapes_below_its_plateau_without_diverging() {
        assert!(!diverging(vec![500.0; 100], 1.0));
        assert!(escapes(vec![500.0; 100], 499.0, 0.9));
    }

    // Metric II — fast-utilization (whole run, minimum horizon 8).

    fn fast(tr: &RunTrace) -> Option<f64> {
        score(tr, 0.0).measured_fast_utilization(0)
    }

    #[test]
    fn additive_increase_scores_its_slope() {
        for a in [0.5, 1.0, 2.0] {
            let w: Vec<f64> = (0..64).map(|t| 10.0 + a * t as f64).collect();
            let m = fast(&lossless_sender(w)).unwrap();
            // Σ_{k=0}^{Δt} a·k = a·Δt(Δt+1)/2 ≥ aΔt²/2.
            assert!(m >= a - 1e-9 && m <= a * 1.2, "a={a}, measured {m}");
        }
    }

    #[test]
    fn constant_window_scores_zero() {
        assert_eq!(fast(&lossless_sender(vec![50.0; 40])), Some(0.0));
    }

    #[test]
    fn superlinear_growth_scores_high() {
        let w: Vec<f64> = (0..20).map(|t| 2.0_f64.powi(t)).collect();
        assert!(fast(&lossless_sender(w)).unwrap() > 10.0);
    }

    #[test]
    fn loss_splits_ascents() {
        // Two slope-1 ascents of 20 steps separated by one lossy step:
        // each scores 2·Σ_{k=1}^{19} k / 19² = 20/19.
        let mut w: Vec<f64> = (0..20).map(|t| 10.0 + t as f64).collect();
        let mut loss = vec![0.0; 20];
        w.push(5.0);
        loss.push(0.3);
        w.extend((0..20).map(|t| 5.0 + t as f64));
        loss.extend(vec![0.0; 20]);
        let n = w.len();
        let m = fast(&sender_trace(w, loss, vec![0.1; n], true)).unwrap();
        assert!(close(m, 20.0 / 19.0), "measured {m}");
    }

    #[test]
    fn rtt_rise_splits_ascents_only_for_latency_protocols() {
        let w: Vec<f64> = (0..30).map(|t| 10.0 + t as f64).collect();
        let mut rtt = vec![0.1; 30];
        rtt[15] = 0.2;
        // Split at t = 15 into two 15-step ascents: 2·105 / 14².
        let split = fast(&sender_trace(w.clone(), vec![0.0; 30], rtt.clone(), false)).unwrap();
        assert!(close(split, 210.0 / 196.0), "measured {split}");
        // A loss-based protocol ignores the RTT rise: one 30-step ascent.
        let whole = fast(&sender_trace(w, vec![0.0; 30], rtt, true)).unwrap();
        assert!(close(whole, 870.0 / 841.0), "measured {whole}");
    }

    #[test]
    fn no_long_ascent_yields_none() {
        let mut loss = vec![0.0; 30];
        for t in (0..30).step_by(3) {
            loss[t] = 0.1;
        }
        assert_eq!(
            fast(&sender_trace(vec![10.0; 30], loss, vec![0.1; 30], true)),
            None
        );
    }

    #[test]
    fn slow_probe_fails_fast_utilization() {
        // The Claim-1 protocol: +1 MSS every 10 RTTs, α ≈ 0.1.
        let w: Vec<f64> = (0..100).map(|t| 10.0 + (t / 10) as f64).collect();
        assert!(fast(&lossless_sender(w)).unwrap() < 0.2);
    }

    // The fold itself.

    /// Every score of two accumulators equal to the bit.
    fn assert_same_scores(a: &MetricAccumulator, b: &MetricAccumulator) {
        assert_eq!(a.steps_seen(), b.steps_seen());
        let pairs = [
            (a.measured_efficiency(), b.measured_efficiency()),
            (a.mean_utilization(), b.mean_utilization()),
            (a.measured_loss_bound(), b.measured_loss_bound()),
            (a.mean_loss(), b.mean_loss()),
            (
                a.measured_latency_inflation(),
                b.measured_latency_inflation(),
            ),
            (a.measured_fairness(), b.measured_fairness()),
            (a.jain_index(), b.jain_index()),
            (a.measured_convergence(), b.measured_convergence()),
        ];
        for (k, (x, y)) in pairs.iter().enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "score {k}");
        }
        assert_eq!(a.is_zero_loss(), b.is_zero_loss());
        for i in 0..a.num_senders() {
            assert_eq!(
                a.measured_fast_utilization(i).map(f64::to_bits),
                b.measured_fast_utilization(i).map(f64::to_bits),
                "fast-utilization of sender {i}"
            );
            assert_eq!(a.window_escapes(i, 0.2), b.window_escapes(i, 0.2));
            assert_eq!(a.window_diverging(i, 1e-9), b.window_diverging(i, 1e-9));
            assert_eq!(a.last_window(i).to_bits(), b.last_window(i).to_bits());
            assert_eq!(
                a.tail_mean_window(i).to_bits(),
                b.tail_mean_window(i).to_bits()
            );
            assert_eq!(
                a.tail_mean_goodput(i).to_bits(),
                b.tail_mean_goodput(i).to_bits()
            );
        }
        if a.num_senders() >= 2 {
            assert_eq!(
                a.measured_friendliness(&[0], &[1]).to_bits(),
                b.measured_friendliness(&[0], &[1]).to_bits()
            );
        }
    }

    fn test_traces() -> Vec<RunTrace> {
        let a: Vec<f64> = (0..64).map(|t| 30.0 + (t % 16) as f64 * 4.0).collect();
        let b: Vec<f64> = (0..64).map(|t| 60.0 - (t % 8) as f64 * 3.0).collect();
        // Overshoots C + τ = 120 periodically: loss steps exercise the
        // latency latch and fast-utilization segment splitting.
        let lossy: Vec<f64> = (0..48)
            .map(|t| if t % 6 == 5 { 140.0 } else { 80.0 + t as f64 })
            .collect();
        // Sender 1 idle for the first half (staggered entry shape).
        let idle_b: Vec<f64> = (0..32).map(|t| if t < 16 { 0.0 } else { 20.0 }).collect();
        // A long run spanning several 128-step replay blocks.
        let long: Vec<f64> = (0..300).map(|t| 50.0 + (t % 37) as f64 * 2.0).collect();
        vec![
            trace_from_windows(small_link(), &[a, b]),
            trace_from_windows(small_link(), &[lossy]),
            trace_from_windows(small_link(), &[vec![50.0; 32], idle_b]),
            trace_from_windows(small_link(), &[long.clone(), long]),
        ]
    }

    #[test]
    fn scores_do_not_depend_on_block_splits() {
        // Capacity 7 lands tail boundaries and quartile cuts mid-block;
        // capacity 1 puts every step on a block edge; the 300-step trace
        // spans several default-capacity blocks.
        for trace in &test_traces() {
            for frac in [0.0, 0.25, 0.5, 0.9, 1.0] {
                let reference = score(trace, frac);
                for cap in CAPS {
                    assert_same_scores(&accumulate_blocks(trace, frac, 50.0, cap), &reference);
                }
            }
        }
    }

    #[test]
    fn tail_start_on_and_off_block_edges() {
        // A 200-MSS transient (loss 0.4, unbounded latency), then a first
        // tail step of 60 and 80s after it; C = 100. A tail of 7 starts on
        // a capacity-7 block edge, a tail of 10 mid-block. A leaked
        // transient step or a dropped first tail step changes every score.
        for tail in [7usize, 10] {
            let w: Vec<f64> = (0..2 * tail)
                .map(|t| match t.cmp(&tail) {
                    std::cmp::Ordering::Less => 200.0,
                    std::cmp::Ordering::Equal => 60.0,
                    std::cmp::Ordering::Greater => 80.0,
                })
                .collect();
            let tr = trace_from_windows(small_link(), &[w]);
            let n = tail as f64;
            let tail_sum = 60.0 + 80.0 * (n - 1.0);
            for cap in CAPS {
                let acc = accumulate_blocks(&tr, 0.5, 50.0, cap);
                let at = format!("tail {tail}, cap {cap}");
                assert!(close(acc.measured_efficiency(), 0.6), "{at}");
                assert!(
                    close(acc.mean_utilization(), tail_sum / (n * 100.0)),
                    "{at}"
                );
                assert_eq!(acc.measured_loss_bound(), 0.0, "{at}");
                assert_eq!(acc.measured_latency_inflation(), 0.0, "{at}");
                assert!(close(acc.tail_mean_window(0), tail_sum / n), "{at}");
                assert!(close(acc.measured_convergence(), 120.0 / 140.0), "{at}");
            }
        }
    }

    #[test]
    fn robustness_quartile_cuts_on_and_off_block_edges() {
        // Windows 0 before h = steps/2, 10 up to q = 3·steps/4, then 30.
        // 28 steps put h = 14 and q = 21 on capacity-7 block edges; 26
        // steps put h = 13 and q = 19 mid-block.
        for steps in [28usize, 26] {
            let (h, q) = (steps / 2, 3 * steps / 4);
            let w: Vec<f64> = (0..steps)
                .map(|t| {
                    if t < h {
                        0.0
                    } else if t < q {
                        10.0
                    } else {
                        30.0
                    }
                })
                .collect();
            let tr = lossless_sender(w);
            // The last dip below β = 5 is step h − 1: the suffix that
            // escapes is exactly steps − h long.
            let suffix = (steps - h) as f64;
            for cap in CAPS {
                let acc = accumulate_blocks(&tr, 0.5, 5.0, cap);
                let at = format!("{steps} steps, cap {cap}");
                // Third- and fourth-quarter means are exactly 10 and 30.
                assert!(acc.window_diverging(0, 19.5), "{at}");
                assert!(!acc.window_diverging(0, 20.5), "{at}");
                assert!(acc.window_escapes(0, (suffix - 0.5) / steps as f64), "{at}");
                assert!(
                    !acc.window_escapes(0, (suffix + 0.5) / steps as f64),
                    "{at}"
                );
                assert_eq!(acc.last_window(0), 30.0, "{at}");
            }
        }
    }

    #[test]
    fn replay_reads_per_sender_rtt_columns() {
        // A latency protocol's RTT rise recorded only in its own column
        // (the packet-level case): the replay must split its ascent.
        let w: Vec<f64> = (0..30).map(|t| 10.0 + t as f64).collect();
        let mut tr = sender_trace(w, vec![0.0; 30], vec![0.1; 30], false);
        let mut own = vec![0.1; 30];
        own[15] = 0.2;
        tr.senders[0].rtt = Some(own);
        assert!(close(fast(&tr).unwrap(), 210.0 / 196.0));
        for cap in CAPS {
            assert_same_scores(&accumulate_blocks(&tr, 0.0, 50.0, cap), &score(&tr, 0.0));
        }
    }

    #[test]
    fn reset_reproduces_a_fresh_accumulator() {
        let w: Vec<f64> = (0..40).map(|t| 10.0 + t as f64).collect();
        let trace = trace_from_windows(small_link(), &[w]);
        let fresh = score(&trace, 0.5);
        let mut reused = score(&trace, 0.5);
        reused.reset();
        stage_blocks(&trace, 16, |block| reused.push_block(block));
        assert_same_scores(&reused, &fresh);
    }

    #[test]
    fn step_block_layout_round_trips_records() {
        let mut block = StepBlock::new(2, 4);
        block.begin(10);
        for k in 0..3 {
            block.stage_shared(100.0 + k as f64, 0.05, 0.01 * k as f64);
            block.stage_sender(0, 1.0 + k as f64, 0.0, 9.0);
            block.stage_sender(1, 2.0 + k as f64, 0.5, 8.0);
            assert!(!block.advance());
        }
        assert_eq!(block.len(), 3);
        assert_eq!(block.start_step(), 10);
        assert_eq!(block.num_senders(), 2);
        assert_eq!(block.totals(), &[100.0, 101.0, 102.0]);
        assert_eq!(block.windows(0), &[1.0, 2.0, 3.0]);
        assert_eq!(block.windows(1), &[2.0, 3.0, 4.0]);
        assert_eq!(block.sender_rtts(1), block.rtts());
        assert_eq!(block.sender_losses(1), &[0.5; 3]);
        assert_eq!(block.goodputs(1), &[8.0; 3]);
        assert_eq!(block.link_losses(), &[0.0, 0.01, 0.02]);
        // The fourth row fills the block.
        block.stage_shared(103.0, 0.05, 0.0);
        block.stage_sender(0, 4.0, 0.0, 9.0);
        block.stage_sender(1, 5.0, 0.0, 8.0);
        assert!(block.advance());
        assert_eq!(block.len(), block.capacity());
        // Per-sender RTT columns override the shared one when tracked.
        block.track_sender_rtts();
        block.begin(14);
        block.stage_shared(1.0, 0.05, 0.0);
        block.stage_sender_rtt(1, 0.07);
        assert!(!block.advance());
        assert_eq!(block.sender_rtts(1), &[0.07]);
        // Reshape resets, re-zeroes and drops the per-sender RTTs.
        block.reshape(3, 8);
        assert!(block.is_empty());
        assert_eq!(block.num_senders(), 3);
        assert!(block.windows(2).is_empty());
        block.stage_shared(1.0, 0.1, 0.0);
        assert!(!block.advance());
        assert_eq!(block.windows(2), &[0.0]);
        assert_eq!(block.sender_rtts(2), &[0.1]);
    }

    #[test]
    fn mid_stream_reads_do_not_disturb_the_final_score() {
        // `measured` on the fast-utilization accumulator clones to flush
        // the open segment; reading mid-stream must not corrupt state.
        let w: Vec<f64> = (0..40).map(|t| 10.0 + t as f64).collect();
        let trace = trace_from_windows(small_link(), &[w]);
        let mut acc = MetricAccumulator::new(&config(&trace, 0.0, 50.0));
        stage_blocks(&trace, 1, |block| {
            acc.push_block(block);
            let _ = acc.measured_fast_utilization(0);
        });
        assert_eq!(
            acc.measured_fast_utilization(0).map(f64::to_bits),
            score(&trace, 0.0)
                .measured_fast_utilization(0)
                .map(f64::to_bits)
        );
    }
}
