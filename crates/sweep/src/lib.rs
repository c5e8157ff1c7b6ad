//! # axcc-sweep — deterministic parallel experiment orchestration
//!
//! Every artifact this workspace reproduces from *An Axiomatic Approach to
//! Congestion Control* (HotNets-XVI 2017) — Table 1, the Table 2 n × BW
//! grid, Figure 1's Pareto frontier, the theorem checks, and the
//! shootout/gauntlet/ablation sweeps — is an embarrassingly parallel grid
//! of independent scenario evaluations. This crate is the one engine that
//! fans those evaluations out across cores *without giving up the
//! workspace determinism invariant*: results are collected in submission
//! order, so a parallel run is bit-identical to a serial one, and a
//! content-addressed cache never re-runs a scenario it has already scored.
//!
//! The moving parts:
//!
//! * [`SweepJob`] — one unit of work: scenario + protocol + metric budget
//!   in, a [`Cacheable`] scored result out. Jobs fingerprint themselves
//!   ([`axcc_core::fingerprint`]) so equal inputs share a cache address.
//! * [`pool`] — a fixed-size `std::thread` worker pool. Workers claim
//!   contiguous *chunks* of jobs off one atomic cursor (no per-job locks
//!   or channel round-trips) and flush each chunk into a preallocated
//!   slot vector, so results are reassembled by submission index — which
//!   is why parallel output is byte-identical to serial output (see
//!   DESIGN.md, "The sweep subsystem" and §9).
//! * [`cache`] — content-addressed result store keyed by the 128-bit job
//!   digest: [`cache::SHARD_COUNT`] log-structured segments held in
//!   memory, each optionally mirrored to an append-only segment file that
//!   is read in once on first touch. Lookups never touch the file, and a
//!   10⁵-job sweep creates O(shards) files, not O(jobs). Record bodies
//!   use the exact bit-pattern [`record::Record`] codec, not JSON, so ±∞
//!   and NaN scores round-trip losslessly.
//! * [`progress`] — wall-clock / jobs-per-second / hit-rate reporting.
//!   Timing is *reporting only*; it never feeds back into results, which
//!   is the contract under which this crate's `Instant::now` suppressions
//!   are justified.
//! * [`cancel`] — cooperative cancellation. A [`CancelSignal`] stops a
//!   runner from claiming further jobs (in-flight jobs finish and reach
//!   the cache); the sweep then unwinds with a typed [`Interrupted`]
//!   payload rather than returning a partial `Vec`. Cancellation affects
//!   *whether* a sweep completes, never *what* a completed sweep returns.
//!
//! This is the only crate in the workspace where spawning threads is
//! policy-allowed by `axcc-tidy`; everywhere else thread use remains a
//! determinism violation.

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

pub mod cache;
pub mod cancel;
pub mod pool;
pub mod progress;
pub mod record;
pub mod runner;

pub use cache::{CacheStats, ResultCache, ShardStats, SHARD_COUNT};
pub use cancel::{interrupted_payload, CancelSignal, Interrupted};
pub use pool::default_chunk_size;
pub use progress::{ExperimentTiming, Stopwatch};
pub use record::{Cacheable, Record, RecordReader};
pub use runner::{
    host_parallelism, EvalMode, InterruptHook, SweepJob, SweepRunner, SweepStats, ENGINE_REVISION,
};
