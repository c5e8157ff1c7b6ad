//! Churn-aware axiom forms: the paper's metrics re-posed for runs whose
//! sender population changes mid-run (`axcc-topo`'s `ChurnPlan`).
//!
//! With arrivals and departures the static tail quantifiers of Section 3
//! stop being the right lens — there is no single "from T onwards" once
//! the population keeps shifting. Three churn-aware forms replace them:
//!
//! * **convergence after arrival** ([`SettleAcc`]) — how many steps
//!   after each arrival the link's total window recovers to a threshold
//!   (Metric V's spirit, re-anchored at every arrival);
//! * **fairness over coexistence windows** ([`CoexistenceFairnessAcc`]) —
//!   Jain's index evaluated per churn segment (the spans between arrival/
//!   departure events, where the competitor set is constant) over the
//!   senders actually active there, weighted by segment length (Metric IV);
//! * **utilization under churn** ([`ChurnUtilAcc`]) — mean capped
//!   utilization over the steps where at least one sender is active
//!   (Metric I without charging idle spans to the protocol).
//!
//! Each form is a single-pass fold over [`StepBlock`]s, like the static
//! metrics in [`streaming`](crate::axioms::streaming), and
//! [`ChurnAccumulator`] combines all three. The tests here pin each form
//! to hand-computed values, with arrivals and segment boundaries landing
//! both mid-block and on a block edge, and check that block capacities 1,
//! 7 and 128 give the same bits.

use crate::axioms::streaming::StepBlock;

/// Segment boundaries for a `steps`-long run: the churn-event steps
/// clipped to the run, plus the run's own endpoints, sorted and deduped.
/// Consecutive pairs delimit the coexistence windows.
pub fn segment_bounds(boundaries: &[usize], steps: usize) -> Vec<usize> {
    let mut b: Vec<usize> = boundaries.iter().copied().filter(|&x| x < steps).collect();
    b.push(0);
    b.push(steps);
    b.sort_unstable();
    b.dedup();
    b
}

/// Jain's fairness index over the strictly-positive entries of `sums`,
/// or `None` when fewer than two senders had positive volume (a segment
/// with zero or one active sender says nothing about fairness).
fn jain_over_positive(sums: &[f64]) -> Option<f64> {
    let pos: Vec<f64> = sums.iter().copied().filter(|&x| x > 0.0).collect();
    if pos.len() < 2 {
        return None;
    }
    let sum: f64 = pos.iter().sum();
    let sum_sq: f64 = pos.iter().map(|x| x * x).sum();
    Some((sum * sum) / (pos.len() as f64 * sum_sq))
}

/// Static shape of a churned run — everything the accumulators need to
/// know up front (all of it is deterministic: the churn plan expands
/// before the run starts).
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Link capacity `C` (MSS); settle threshold and utilization divide
    /// by it.
    pub capacity: f64,
    /// Total number of steps the run will execute.
    pub steps: usize,
    /// Absolute settle threshold (MSS) for [`SettleAcc`].
    pub settle_threshold: f64,
    /// Arrival steps, sorted ascending.
    pub arrivals: Vec<u64>,
    /// Churn-event steps (arrivals and departures) delimiting coexistence
    /// segments; [`segment_bounds`] normalizes them.
    pub boundaries: Vec<usize>,
    /// Per-sender activity intervals `[start, stop)` in steps.
    pub activity: Vec<(u64, u64)>,
}

/// Convergence after arrival: for each arrival step `a`, the number of
/// steps until the first `t >= a` with `total[t] >= threshold`; arrivals
/// that never settle contribute the remainder of the run. One forward
/// pass: arrivals settle in arrival order (a later arrival cannot settle
/// earlier).
#[derive(Debug, Clone)]
pub struct SettleAcc {
    threshold: f64,
    arrivals: Vec<u64>,
    next: usize,
    t: usize,
    sum: f64,
}

impl SettleAcc {
    /// Accumulator for the given sorted arrival steps and threshold.
    pub fn new(arrivals: Vec<u64>, threshold: f64) -> Self {
        debug_assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        SettleAcc {
            threshold,
            arrivals,
            next: 0,
            t: 0,
            sum: 0.0,
        }
    }

    /// Consume a batch of total windows. The arrival cursor is inherently
    /// sequential state, so the rows are scanned in step order.
    pub fn push_block(&mut self, totals: &[f64]) {
        for &total in totals {
            if total >= self.threshold {
                while self.next < self.arrivals.len() && self.arrivals[self.next] <= self.t as u64 {
                    self.sum += (self.t as u64 - self.arrivals[self.next]) as f64;
                    self.next += 1;
                }
            }
            self.t += 1;
        }
    }

    /// Mean settle time over all arrivals so far (unsettled arrivals
    /// contribute the steps seen past their arrival); 0 with no arrivals.
    pub fn measured(&self) -> f64 {
        if self.arrivals.is_empty() {
            return 0.0;
        }
        let mut sum = self.sum;
        for &a in &self.arrivals[self.next..] {
            sum += (self.t as u64).saturating_sub(a) as f64;
        }
        sum / self.arrivals.len() as f64
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.next = 0;
        self.t = 0;
        self.sum = 0.0;
    }
}

/// Fairness over coexistence windows: Jain's index of per-sender goodput
/// volume inside each churn segment (see [`segment_bounds`]), over the
/// senders with positive volume there, weighted by segment length.
/// Segments with fewer than two active senders are skipped.
#[derive(Debug, Clone)]
pub struct CoexistenceFairnessAcc {
    bounds: Vec<usize>,
    seg: usize,
    t: usize,
    sums: Vec<f64>,
    weighted: f64,
    weight: f64,
}

impl CoexistenceFairnessAcc {
    /// Accumulator for `n` senders with the given churn boundaries over a
    /// `steps`-long run.
    pub fn new(n: usize, boundaries: &[usize], steps: usize) -> Self {
        CoexistenceFairnessAcc {
            bounds: segment_bounds(boundaries, steps),
            seg: 0,
            t: 0,
            sums: vec![0.0; n],
            weighted: 0.0,
            weight: 0.0,
        }
    }

    fn close_segments_before(&mut self, t: usize) {
        while self.seg + 1 < self.bounds.len() && t >= self.bounds[self.seg + 1] {
            let (s, e) = (self.bounds[self.seg], self.bounds[self.seg + 1]);
            if let Some(j) = jain_over_positive(&self.sums) {
                self.weighted += j * (e - s) as f64;
                self.weight += (e - s) as f64;
            }
            self.sums.fill(0.0);
            self.seg += 1;
        }
    }

    /// Consume a batch of steps from a [`StepBlock`]. Segment closing
    /// depends on the running step index, so rows are visited row-major;
    /// the per-sender sums read from the block's goodput columns.
    pub fn push_block(&mut self, block: &StepBlock) {
        debug_assert_eq!(block.num_senders(), self.sums.len());
        for k in 0..block.len() {
            self.close_segments_before(self.t);
            for i in 0..self.sums.len() {
                self.sums[i] += block.goodputs(i)[k];
            }
            self.t += 1;
        }
    }

    /// The length-weighted mean Jain's index over the segments so far;
    /// 1.0 when no segment qualifies (fairness is vacuous for a lone
    /// sender).
    pub fn measured(&self) -> f64 {
        // Flush pending segments without mutating (mid-stream reads must
        // not disturb state); the per-segment state is tiny, clone it.
        let mut fin = self.clone();
        fin.close_segments_before(fin.t);
        if fin.weight > 0.0 {
            fin.weighted / fin.weight
        } else {
            1.0
        }
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.seg = 0;
        self.t = 0;
        self.sums.fill(0.0);
        self.weighted = 0.0;
        self.weight = 0.0;
    }
}

/// Utilization under churn: mean capped utilization `min(X/C, 1)` over
/// the steps where at least one activity interval `[start, stop)` covers
/// the step.
#[derive(Debug, Clone)]
pub struct ChurnUtilAcc {
    capacity: f64,
    activity: Vec<(u64, u64)>,
    t: usize,
    sum: f64,
    n: usize,
}

impl ChurnUtilAcc {
    /// Accumulator for capacity `C` and the given activity intervals.
    pub fn new(capacity: f64, activity: Vec<(u64, u64)>) -> Self {
        ChurnUtilAcc {
            capacity,
            activity,
            t: 0,
            sum: 0.0,
            n: 0,
        }
    }

    /// Consume a batch of total windows in step order (the
    /// activity-interval test runs per row).
    pub fn push_block(&mut self, totals: &[f64]) {
        for &total in totals {
            let t = self.t as u64;
            if self.activity.iter().any(|&(s, e)| s <= t && t < e) {
                self.sum += (total / self.capacity).min(1.0);
                self.n += 1;
            }
            self.t += 1;
        }
    }

    /// Mean capped utilization over the covered steps so far; 0.0 if no
    /// step was covered.
    pub fn measured(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.sum = 0.0;
        self.n = 0;
    }
}

/// The combined churn-aware single-pass evaluator: one instance per run,
/// consuming blocks of the shared total window and per-sender goodput
/// columns, exposing all three churn scores.
#[derive(Debug, Clone)]
pub struct ChurnAccumulator {
    n: usize,
    settle: SettleAcc,
    fairness: CoexistenceFairnessAcc,
    util: ChurnUtilAcc,
}

impl ChurnAccumulator {
    /// Build the accumulator for one run shape with `n` senders.
    pub fn new(cfg: &ChurnConfig, n: usize) -> Self {
        ChurnAccumulator {
            n,
            settle: SettleAcc::new(cfg.arrivals.clone(), cfg.settle_threshold),
            fairness: CoexistenceFairnessAcc::new(n, &cfg.boundaries, cfg.steps),
            util: ChurnUtilAcc::new(cfg.capacity, cfg.activity.clone()),
        }
    }

    /// Consume a whole block of steps. The sub-accumulators are
    /// independent, so each consumes the whole block in step order.
    pub fn push_block(&mut self, block: &StepBlock) {
        debug_assert_eq!(block.num_senders(), self.n);
        self.settle.push_block(block.totals());
        self.fairness.push_block(block);
        self.util.push_block(block.totals());
    }

    /// Number of senders.
    pub fn num_senders(&self) -> usize {
        self.n
    }

    /// Convergence after arrival (see [`SettleAcc::measured`]).
    pub fn mean_settle_after_arrival(&self) -> f64 {
        self.settle.measured()
    }

    /// Fairness over coexistence windows (see
    /// [`CoexistenceFairnessAcc::measured`]).
    pub fn coexistence_fairness(&self) -> f64 {
        self.fairness.measured()
    }

    /// Utilization under churn (see [`ChurnUtilAcc::measured`]).
    pub fn utilization_under_churn(&self) -> f64 {
        self.util.measured()
    }

    /// Clear all run state so the accumulator can consume another run of
    /// the same shape.
    pub fn reset(&mut self) {
        self.settle.reset();
        self.fairness.reset();
        self.util.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::streaming::stage_blocks;
    use crate::axioms::testutil::{small_link, trace_from_windows};
    use crate::trace::RunTrace;

    /// Feed the trace through `StepBlock`s of capacity `cap`.
    fn accumulate_blocks(trace: &RunTrace, cfg: &ChurnConfig, cap: usize) -> ChurnAccumulator {
        let mut acc = ChurnAccumulator::new(cfg, trace.num_senders());
        stage_blocks(trace, cap, |block| acc.push_block(block));
        acc
    }

    /// Feed the trace through default-capacity blocks, as the engine does.
    fn accumulate(trace: &RunTrace, cfg: &ChurnConfig) -> ChurnAccumulator {
        accumulate_blocks(trace, cfg, StepBlock::DEFAULT_CAPACITY)
    }

    /// A churned two-sender shape: sender 1 active only in [20, 60).
    fn churned_trace() -> (RunTrace, ChurnConfig) {
        let a: Vec<f64> = (0..100).map(|t| 40.0 + (t % 10) as f64 * 3.0).collect();
        let b: Vec<f64> = (0..100)
            .map(|t| if (20..60).contains(&t) { 25.0 } else { 0.0 })
            .collect();
        let trace = trace_from_windows(small_link(), &[a, b]);
        let cfg = ChurnConfig {
            capacity: small_link().capacity(),
            steps: 100,
            settle_threshold: 0.6 * small_link().capacity(),
            arrivals: vec![20],
            boundaries: vec![20, 60],
            activity: vec![(0, 100), (20, 60)],
        };
        (trace, cfg)
    }

    fn assert_same_scores(a: &ChurnAccumulator, b: &ChurnAccumulator, what: &str) {
        assert_eq!(
            a.mean_settle_after_arrival().to_bits(),
            b.mean_settle_after_arrival().to_bits(),
            "settle diverged: {what}"
        );
        assert_eq!(
            a.coexistence_fairness().to_bits(),
            b.coexistence_fairness().to_bits(),
            "fairness diverged: {what}"
        );
        assert_eq!(
            a.utilization_under_churn().to_bits(),
            b.utilization_under_churn().to_bits(),
            "utilization diverged: {what}"
        );
    }

    #[test]
    fn scores_do_not_depend_on_block_splits() {
        // Capacity 7 lands the churn boundaries (20, 60) mid-block;
        // capacity 1 puts every step on a block edge.
        let (trace, cfg) = churned_trace();
        let reference = accumulate(&trace, &cfg);
        for cap in [1, 7] {
            let split = accumulate_blocks(&trace, &cfg, cap);
            assert_same_scores(&split, &reference, &format!("cap {cap}"));
        }
    }

    #[test]
    fn arrival_and_segment_cuts_on_and_off_block_edges() {
        // Sender 0 holds 30 throughout; sender 1 arrives at `a` with
        // windows 2, 4, then 10 until it departs at a + 7. The total (32,
        // 34, 40, …) first reaches the threshold 35 two steps after the
        // arrival. Every total is below capacity, so every RTT is the
        // floor and goodput is proportional to window: the one shared
        // segment [a, a + 7) has volumes in the ratio 210 : 56.
        // An arrival at 7 lands on a capacity-7 block edge, at 10 mid-block.
        let jain = 266.0 * 266.0 / (2.0 * (210.0 * 210.0 + 56.0 * 56.0));
        for a in [7usize, 10] {
            let steps = a + 14;
            let w1: Vec<f64> = (0..steps)
                .map(|t| match t.checked_sub(a) {
                    Some(0) => 2.0,
                    Some(1) => 4.0,
                    Some(k) if k < 7 => 10.0,
                    _ => 0.0,
                })
                .collect();
            let trace = trace_from_windows(small_link(), &[vec![30.0; steps], w1]);
            let cfg = ChurnConfig {
                capacity: small_link().capacity(),
                steps,
                settle_threshold: 35.0,
                arrivals: vec![a as u64],
                boundaries: vec![a, a + 7],
                activity: vec![(0, steps as u64), (a as u64, a as u64 + 7)],
            };
            let util = (30.0 * steps as f64 + 56.0) / (100.0 * steps as f64);
            for cap in [1, 7, StepBlock::DEFAULT_CAPACITY] {
                let acc = accumulate_blocks(&trace, &cfg, cap);
                let at = format!("arrival {a}, cap {cap}");
                assert_eq!(acc.mean_settle_after_arrival(), 2.0, "{at}");
                assert!((acc.coexistence_fairness() - jain).abs() < 1e-12, "{at}");
                assert!((acc.utilization_under_churn() - util).abs() < 1e-12, "{at}");
            }
        }
    }

    #[test]
    fn unsettled_arrivals_and_idle_gaps() {
        // The threshold is never reached, so both arrivals run to the end:
        // (80 + 45) / 2. An idle gap [30, 40) is excluded from
        // utilization; a lone sender makes fairness vacuous.
        let a: Vec<f64> = (0..80)
            .map(|t| if (30..40).contains(&t) { 0.0 } else { 50.0 })
            .collect();
        let trace = trace_from_windows(small_link(), &[a]);
        let cfg = ChurnConfig {
            capacity: small_link().capacity(),
            steps: 80,
            settle_threshold: 120.0,
            arrivals: vec![0, 35],
            boundaries: vec![30, 40],
            activity: vec![(0, 30), (40, 80)],
        };
        let acc = accumulate(&trace, &cfg);
        assert_eq!(acc.mean_settle_after_arrival(), 62.5);
        assert_eq!(acc.utilization_under_churn(), 0.5);
        assert_eq!(acc.coexistence_fairness(), 1.0);
        assert_same_scores(&accumulate_blocks(&trace, &cfg, 16), &acc, "gaps");
    }

    #[test]
    fn no_arrivals_settle_in_zero_steps() {
        let (trace, _) = churned_trace();
        let cfg = ChurnConfig {
            capacity: small_link().capacity(),
            steps: trace.len(),
            settle_threshold: 60.0,
            arrivals: Vec::new(),
            boundaries: Vec::new(),
            activity: vec![(0, trace.len() as u64), (0, trace.len() as u64)],
        };
        assert_eq!(accumulate(&trace, &cfg).mean_settle_after_arrival(), 0.0);
    }

    #[test]
    fn settle_counts_steps_to_recovery() {
        // Total dips below 60 at the arrival and recovers 5 steps later.
        let total: Vec<f64> = (0..20)
            .map(|t| if (10..15).contains(&t) { 40.0 } else { 80.0 })
            .collect();
        let settle = |arrival: u64, threshold: f64| {
            let mut acc = SettleAcc::new(vec![arrival], threshold);
            acc.push_block(&total);
            acc.measured()
        };
        assert_eq!(settle(10, 60.0), 5.0);
        // An arrival in an already-settled span settles immediately.
        assert_eq!(settle(2, 60.0), 0.0);
        // Never settles: contributes the rest of the run.
        assert_eq!(settle(10, 1000.0), 10.0);
    }

    #[test]
    fn coexistence_fairness_weights_segments() {
        let fairness = |g0: &[f64], g1: &[f64]| {
            let mut acc = CoexistenceFairnessAcc::new(2, &[10], 30);
            let mut block = StepBlock::new(2, 30);
            for t in 0..30 {
                block.stage_sender(0, 0.0, 0.0, g0[t]);
                block.stage_sender(1, 0.0, 0.0, g1[t]);
                block.advance();
            }
            acc.push_block(&block);
            acc.measured()
        };
        // Segment 1 (steps 0..10): equal goodput => Jain 1. Segment 2
        // (10..30): only one sender active => skipped.
        let g0 = vec![1.0; 30];
        let g1: Vec<f64> = (0..30).map(|t| if t < 10 { 1.0 } else { 0.0 }).collect();
        assert!((fairness(&g0, &g1) - 1.0).abs() < 1e-12);
        // A lopsided first segment: volumes 10 and 30 give
        // 40² / (2 · 1000) = 0.8, the only qualifying segment.
        let g2: Vec<f64> = (0..30).map(|t| if t < 10 { 3.0 } else { 0.0 }).collect();
        assert!((fairness(&g0, &g2) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn utilization_ignores_uncovered_steps() {
        // Only steps 0 and 1 are covered; capacity 100.
        let util = |activity: Vec<(u64, u64)>| {
            let mut acc = ChurnUtilAcc::new(100.0, activity);
            acc.push_block(&[50.0, 100.0, 0.0, 0.0]);
            acc.measured()
        };
        assert!((util(vec![(0, 2)]) - 0.75).abs() < 1e-12);
        assert_eq!(util(Vec::new()), 0.0);
    }

    #[test]
    fn segment_bounds_normalizes() {
        assert_eq!(segment_bounds(&[], 10), vec![0, 10]);
        assert_eq!(segment_bounds(&[3, 3, 7, 15], 10), vec![0, 3, 7, 10]);
        assert_eq!(segment_bounds(&[0, 10], 10), vec![0, 10]);
    }

    #[test]
    fn reset_reproduces_a_fresh_accumulator() {
        let (trace, cfg) = churned_trace();
        let fresh = accumulate(&trace, &cfg);
        let mut reused = accumulate(&trace, &cfg);
        reused.reset();
        stage_blocks(&trace, 16, |block| reused.push_block(block));
        assert_same_scores(&reused, &fresh, "reset");
    }

    #[test]
    fn mid_stream_reads_do_not_disturb_the_final_score() {
        let (trace, cfg) = churned_trace();
        let mut acc = ChurnAccumulator::new(&cfg, trace.num_senders());
        stage_blocks(&trace, 1, |block| {
            acc.push_block(block);
            let _ = acc.coexistence_fairness();
            let _ = acc.mean_settle_after_arrival();
        });
        assert_same_scores(&acc, &accumulate(&trace, &cfg), "mid-stream reads");
    }
}
