//! Replay helpers: time one layer at a time on a workload's exact inputs.
//!
//! The engine composes the protocol update, the link model and the
//! accumulator fold internally. The benchmark measures each from outside:
//! a [`TimedSink`] wraps the sink the engine feeds, a [`RecordingProtocol`]
//! wraps a protocol to capture the observations the engine hands it, and
//! the captured inputs are then replayed through the layer's public
//! functions ([`Protocol::next_window`], [`LinkParams::rtt`] and
//! [`LinkParams::loss_rate`]).

use axcc_core::{LaneObs, LinkParams, Observation, Protocol};
use axcc_fluidsim::{StepBlock, StepRecord, StepSink};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A sink wrapper that times the inner sink's block ingest, counts
/// sender-steps, and keeps the link-total column.
pub struct TimedSink<S> {
    pub inner: S,
    pub ingest_ns: u64,
    pub sender_steps: u64,
    pub totals: Vec<f64>,
}

impl<S: StepSink> TimedSink<S> {
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            ingest_ns: 0,
            sender_steps: 0,
            totals: Vec::new(),
        }
    }
}

impl<S: StepSink> StepSink for TimedSink<S> {
    fn on_step(&mut self, t: u64, total: f64, rtt: f64, loss: f64, records: &[StepRecord]) {
        self.sender_steps += records.len() as u64;
        self.totals.push(total);
        let t0 = Instant::now();
        self.inner.on_step(t, total, rtt, loss, records);
        self.ingest_ns += t0.elapsed().as_nanos() as u64;
    }

    fn on_steps(&mut self, block: &StepBlock) {
        self.sender_steps += (block.len() * block.num_senders()) as u64;
        self.totals.extend_from_slice(block.totals());
        let t0 = Instant::now();
        self.inner.on_steps(block);
        self.ingest_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// Observation logs, one `(protocol name, observations)` per instance.
pub type Logs = Arc<Mutex<Vec<(String, Vec<Observation>)>>>;

/// A protocol wrapper that logs every observation its instance receives
/// (one log per instance: the scenario clones the prototype per sender).
#[derive(Debug)]
pub struct RecordingProtocol {
    inner: Box<dyn Protocol>,
    logs: Logs,
    slot: usize,
}

impl RecordingProtocol {
    pub fn new(inner: Box<dyn Protocol>, logs: &Logs) -> Self {
        let slot = push_log(logs, inner.name());
        RecordingProtocol {
            inner,
            logs: logs.clone(),
            slot,
        }
    }

    fn log(&self, obs: Observation) {
        if let Ok(mut logs) = self.logs.lock() {
            logs[self.slot].1.push(obs);
        }
    }
}

fn push_log(logs: &Logs, name: String) -> usize {
    let mut l = logs.lock().unwrap_or_else(|e| e.into_inner());
    l.push((name, Vec::new()));
    l.len() - 1
}

/// Fresh, empty observation logs.
pub fn new_logs() -> Logs {
    Arc::new(Mutex::new(Vec::new()))
}

impl Protocol for RecordingProtocol {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn next_window(&mut self, obs: &Observation) -> f64 {
        self.log(*obs);
        self.inner.next_window(obs)
    }

    fn next_window_lane(&mut self, lanes: &LaneObs<'_>, i: usize) -> f64 {
        self.log(lanes.observation(i));
        self.inner.next_window_lane(lanes, i)
    }

    fn loss_based(&self) -> bool {
        self.inner.loss_based()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(RecordingProtocol::new(self.inner.clone_box(), &self.logs))
    }
}

/// Replay one logged observation sequence through a fresh instance of
/// `prototype`; returns (nanoseconds, updates).
pub fn replay_updates(prototype: &dyn Protocol, log: &[Observation]) -> (u64, u64) {
    let mut p = prototype.clone_box();
    p.reset();
    let t0 = Instant::now();
    for obs in log {
        black_box(p.next_window(black_box(obs)));
    }
    (t0.elapsed().as_nanos() as u64, log.len() as u64)
}

/// The logs recorded so far.
pub fn take_logs(logs: &Logs) -> Vec<(String, Vec<Observation>)> {
    logs.lock()
        .map(|mut l| std::mem::take(&mut *l))
        .unwrap_or_default()
}

/// Replay recorded link totals through the link model (one RTT and one
/// loss evaluation per total); returns (nanoseconds, evaluations).
pub fn replay_link(link: &LinkParams, totals: &[f64]) -> (u64, u64) {
    let t0 = Instant::now();
    for &x in totals {
        black_box(link.rtt(black_box(x)));
        black_box(link.loss_rate(black_box(x)));
    }
    (t0.elapsed().as_nanos() as u64, totals.len() as u64)
}

/// Per-family accumulation of protocol-update replay time.
#[derive(Debug, Default, Clone, Copy)]
pub struct UpdateTally {
    pub ns: u64,
    pub updates: u64,
}

impl UpdateTally {
    pub fn add(&mut self, (ns, n): (u64, u64)) {
        self.ns += ns;
        self.updates += n;
    }

    pub fn ns_per(&self) -> f64 {
        ratio(self.ns as f64, self.updates as f64)
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer with no work has no cost).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Segment files and their total bytes under a store directory.
pub fn segment_footprint(dir: &std::path::Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(md) = e.metadata() {
                if md.is_file() {
                    files += 1;
                    bytes += md.len();
                }
            }
        }
    }
    (files, bytes)
}
