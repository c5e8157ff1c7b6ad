//! # axcc-packetsim — event-driven packet-level simulator
//!
//! The paper validates Table 1 on Emulab with Linux-kernel TCPs; this crate
//! is that testbed's stand-in (see DESIGN.md §2 for the substitution
//! argument). It simulates, at per-packet granularity and in virtual time:
//!
//! * a **bottleneck link** serializing 1-MSS packets at bandwidth `B` with
//!   one-way propagation delay `Θ` (carried on the ACK path, so the
//!   loss-free RTT of an unqueued packet is exactly `2Θ + 1/B`);
//! * a **FIFO droptail queue** of capacity `τ` MSS in front of the link;
//! * **ACK-clocked window senders**: a sender keeps
//!   `⌊cwnd⌋` packets in flight, learns per-packet outcomes via
//!   SACK-style feedback (ACKs and loss notifications arrive one RTT after
//!   transmission), and hands its congestion-control [`Protocol`](axcc_core::Protocol)
//!   one observation per *epoch* — a window's worth of feedback, the
//!   packet-level realization of the fluid model's RTT step and of
//!   Robust-AIMD's "monitor interval";
//! * **flow churn**: every flow has optional start/stop times, and
//!   [`PacketScenario::churn`] expands the same deterministic seeded
//!   [`ChurnPlan`](axcc_topo::ChurnPlan) the fluid engine uses into a
//!   packet-level flow population — identical arrival patterns in both
//!   engines;
//! * **wire loss** on the data path ([`PacketScenario::wire_loss`]): the
//!   non-congestion loss of Metric VI, described by the same
//!   [`LossModel`] the fluid engine samples. Here it is sampled once per
//!   packet leaving the bottleneck — a Bernoulli coin, or one
//!   Gilbert–Elliott chain for the link — from a seeded ChaCha8 RNG.
//!
//! The engine is single-threaded and fully deterministic: events at equal
//! timestamps are ordered by insertion sequence, virtual time is integer
//! nanoseconds, and all randomness flows from the scenario seed.
//!
//! A run streams its samples (one per minimum RTT) into any
//! [`StepSink`](axcc_core::StepSink), block by block as the fluid engine
//! does ([`PacketScenario::try_run_with`]); [`PacketScenario::try_run`]
//! records them into a [`RunTrace`](axcc_core::RunTrace). Either way it
//! returns per-flow packet accounting ([`stats::FlowStats`]) with a
//! conservation invariant (`sent = acked + lost + in flight`).
//!
//! ```
//! use axcc_core::axioms::streaming::{metric_accumulator_for, StreamOptions};
//! use axcc_core::{units::Bandwidth, LinkParams};
//! use axcc_packetsim::{PacketScenario, PacketSenderConfig};
//! use axcc_protocols::Aimd;
//!
//! // One of the paper's Emulab configurations: 20 Mbps, 42 ms RTT,
//! // 100-MSS buffer, two Reno flows.
//! let link = LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0);
//! let sc = PacketScenario::new(link)
//!     .sender(PacketSenderConfig::new(Box::new(Aimd::reno())))
//!     .sender(PacketSenderConfig::new(Box::new(Aimd::reno())))
//!     .duration_secs(30.0);
//! // Score Metric IV by folding every sample as the run goes.
//! let mut acc = metric_accumulator_for(&sc, &StreamOptions::default());
//! let out = sc.try_run_with(&mut acc)?;
//! assert!(out.conservation_ok());
//! let fair = acc.measured_fairness();
//! assert!(fair > 0.5, "two Renos share fairly, got {fair}");
//! # Ok::<(), axcc_core::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

mod engine;
pub mod event;
pub mod queue;
pub mod red;
pub mod sender;
pub mod stats;
pub mod time;

pub use engine::{PacketScenario, PacketSenderConfig, SimOutput};
pub use event::{Event, EventQueue};
pub use queue::DropTailQueue;
pub use red::{Red, RedConfig, RedVerdict};
pub use sender::{SendMode, Sender};
pub use stats::{FlowStats, QueueStats};
pub use time::Time;

pub use axcc_core::LossModel;
