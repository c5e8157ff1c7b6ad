//! Block sinks: the one way a run's steps (fluid RTT steps, packet
//! samples) leave either engine. A [`TraceSink`] records the run's
//! [`RunTrace`]; a [`MetricAccumulator`] folds it into the scores in
//! O(senders) memory. Both are sized from the run's [`RunShape`].

use crate::axioms::churn::ChurnAccumulator;
use crate::axioms::streaming::{MetricAccumulator, StepBlock, StepRecord};
use crate::link::LinkParams;
use crate::protocol::Protocol;
use crate::trace::{RunTrace, SenderTrace};

/// Block visitor over a simulation run.
///
/// A [`StepBlock`] holds consecutive steps column by column: the shared
/// link-state columns (on a multi-link topology: the total window, and
/// the trace's floor link's RTT and loss) and, per sender, the values a
/// recorded trace appends to that sender's columns (idle senders read
/// zero window and goodput). The block is a buffer reused across
/// flushes — sinks copy what they keep. Any `FnMut(&StepBlock)` is a sink.
pub trait StepSink {
    /// Consume a whole [`StepBlock`] of staged steps, in step order.
    fn on_steps(&mut self, block: &StepBlock);

    /// Consume step `t` as one record per sender, staged (own RTTs
    /// included) into a one-step block for [`on_steps`](Self::on_steps).
    /// The engines never call it; it serves one-row-at-a-time callers
    /// such as the tests' scalar reference engines.
    fn on_step(&mut self, t: u64, total: f64, rtt: f64, loss: f64, records: &[StepRecord]) {
        let mut block = StepBlock::new(records.len(), 1);
        block.track_sender_rtts();
        block.begin(t as usize);
        block.stage_shared(total, rtt, loss);
        for (i, r) in records.iter().enumerate() {
            block.stage_sender(i, r.window, r.loss, r.goodput);
            block.stage_sender_rtt(i, r.rtt);
        }
        block.advance();
        self.on_steps(&block);
    }
}

/// What a run will record, known before it starts: the metadata and
/// shape of its finished [`RunTrace`].
pub trait RunShape {
    /// The link the trace records: capacity and RTT floor of the scores.
    fn trace_link(&self) -> LinkParams;
    /// The RNG seed the trace records.
    fn trace_seed(&self) -> u64;
    /// Rows the run will record: fluid steps, or packet samples.
    fn trace_len(&self) -> usize;
    /// Each sender's protocol, in sender order (the trace records its
    /// name and `loss_based` flag).
    fn trace_protocols(&self) -> impl Iterator<Item = &dyn Protocol>;
    /// Whether each sender records its own RTT column rather than sharing
    /// the link's.
    fn trace_sender_rtts(&self) -> bool;
}

/// The recording sink: builds a run's [`RunTrace`] block by block — the
/// one place a `RunTrace` is built from a run.
pub struct TraceSink {
    link: LinkParams,
    seed: u64,
    senders: Vec<SenderTrace>,
    total_col: Vec<f64>,
    rtt_col: Vec<f64>,
    loss_col: Vec<f64>,
}

impl TraceSink {
    /// A sink sized for `run` (at most 2²⁰ rows reserved up front), with
    /// the link, seed and protocol names the finished trace records.
    pub fn for_scenario<S: RunShape + ?Sized>(run: &S) -> Self {
        let steps = run.trace_len().min(1 << 20);
        let own_rtts = run.trace_sender_rtts();
        TraceSink {
            link: run.trace_link(),
            seed: run.trace_seed(),
            senders: run
                .trace_protocols()
                .map(|p| {
                    let mut tr = SenderTrace::with_capacity(p.name(), p.loss_based(), steps);
                    if own_rtts {
                        tr.own_rtt_mut().reserve(steps);
                    }
                    tr
                })
                .collect(),
            total_col: Vec::with_capacity(steps),
            rtt_col: Vec::with_capacity(steps),
            loss_col: Vec::with_capacity(steps),
        }
    }

    /// The finished trace. Senders without their own RTT column read the
    /// shared link column through [`RunTrace::sender_rtt`].
    pub fn into_trace(self) -> RunTrace {
        RunTrace {
            link: self.link,
            senders: self.senders,
            total_window: self.total_col,
            rtt: self.rtt_col,
            loss: self.loss_col,
            seed: self.seed,
        }
    }
}

impl StepSink for TraceSink {
    // Column-to-column copies: the block already holds each sender's rows
    // contiguously, so recording a block is six memcpy-shaped extends.
    fn on_steps(&mut self, block: &StepBlock) {
        self.total_col.extend_from_slice(block.totals());
        self.rtt_col.extend_from_slice(block.rtts());
        self.loss_col.extend_from_slice(block.link_losses());
        for (i, s) in self.senders.iter_mut().enumerate() {
            s.window.extend_from_slice(block.windows(i));
            s.loss.extend_from_slice(block.sender_losses(i));
            s.goodput.extend_from_slice(block.goodputs(i));
            if let Some(own) = &mut s.rtt {
                own.extend_from_slice(block.sender_rtts(i));
            }
        }
    }
}

impl StepSink for MetricAccumulator {
    fn on_steps(&mut self, block: &StepBlock) {
        self.push_block(block);
    }
}

impl StepSink for ChurnAccumulator {
    fn on_steps(&mut self, block: &StepBlock) {
        self.push_block(block);
    }
}

impl<F: FnMut(&StepBlock)> StepSink for F {
    fn on_steps(&mut self, block: &StepBlock) {
        self(block);
    }
}
