//! Work counters of the streaming path.
//!
//! Every completed streaming run credits its shape here, so a benchmark
//! can turn wall-clock into a per-sender-step cost and check that two
//! passes over the same jobs did the same work. Counters are atomic
//! because sweep workers run streaming jobs concurrently; they feed
//! reporting only, never results.

use std::sync::atomic::{AtomicU64, Ordering};

static STREAMED_RUNS: AtomicU64 = AtomicU64::new(0);
static STREAMED_STEPS: AtomicU64 = AtomicU64::new(0);
static STREAMED_SENDER_STEPS: AtomicU64 = AtomicU64::new(0);

/// Credit one completed streaming run of the given shape.
pub(crate) fn record_streamed(steps: usize, senders: usize) {
    STREAMED_RUNS.fetch_add(1, Ordering::Relaxed);
    STREAMED_STEPS.fetch_add(steps as u64, Ordering::Relaxed);
    STREAMED_SENDER_STEPS.fetch_add(steps as u64 * senders as u64, Ordering::Relaxed);
}

/// Snapshot of the streaming-path counters since the last [`take`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamingStats {
    /// Completed streaming runs.
    pub runs: u64,
    /// Total simulation steps those runs executed.
    pub steps: u64,
    /// Total sender-steps (steps × senders) those runs executed — the
    /// denominator for per-lane throughput.
    pub sender_steps: u64,
}

/// Read and reset the counters (process-wide).
pub fn take() -> StreamingStats {
    StreamingStats {
        runs: STREAMED_RUNS.swap(0, Ordering::Relaxed),
        steps: STREAMED_STEPS.swap(0, Ordering::Relaxed),
        sender_steps: STREAMED_SENDER_STEPS.swap(0, Ordering::Relaxed),
    }
}
