//! # axcc-fluidsim — the paper's fluid-flow discrete-time simulator
//!
//! Implements the dynamics of Section 2 exactly: time is an infinite
//! sequence of RTT-length steps with **synchronized feedback**; at each step
//! every sender observes the step's RTT (equation 1) and droptail loss
//! rate, and its protocol deterministically selects the next congestion
//! window in `[0, M]`.
//!
//! On top of the paper's deterministic core, the engine supports:
//!
//! * **staggered entry** — each sender has a start step, modeling
//!   "connections (with smaller window sizes) starting to send after other
//!   connections";
//! * **non-congestion loss injection** ([`LossModel`], shared with the
//!   packet engine and sampled here per step and per sender by
//!   [`LossProcess`]) — the constant/random wire loss of Metric VI and
//!   the PCC motivating scenario, plus Gilbert–Elliott bursty loss for
//!   the adverse-network gauntlet, all driven by a seeded ChaCha8 RNG so
//!   every run is reproducible;
//! * **bandwidth schedules** ([`Scenario::bandwidth_change`]) — the link
//!   rate changes at given steps (a near-zero rate and back is an
//!   outage);
//! * **typed errors** — [`Scenario::try_run`] returns [`ScenarioError`]
//!   for invalid configurations and numerically divergent runs instead of
//!   panicking;
//! * **streaming evaluation** — the loop drives a [`MetricAccumulator`]
//!   ([`try_run_scenario_streaming`]), folding each step straight into
//!   the axiom scores in O(senders) memory;
//! * **trace recording** — the same loop can instead emit the full
//!   [`RunTrace`] for plotting and trajectory analysis, scored by
//!   replaying it through the same folds
//!   ([`MetricAccumulator::replay`]); [`try_run_scenario_with`] drives
//!   any [`StepSink`], the block visitor both engines share;
//! * **flow churn** — sender populations can grow and shrink mid-run:
//!   every sender has an optional stop step, and [`Scenario::churn`] /
//!   [`Scenario::churn_on`] expand a deterministic seeded [`ChurnPlan`]
//!   (Poisson arrivals, exponential lifetimes, optional on/off phases)
//!   into a concrete staggered sender
//!   population shared bit-for-bit with the packet-level engine;
//! * **multi-link topologies** — the §6 extension *"generalizing our
//!   model to capture network-wide protocol interaction"*:
//!   [`Scenario::on`] runs a [`Topology`] (e.g. the parking lot), each
//!   sender crossing the links of its [`SenderConfig::path`]. A link's
//!   load is the windows of the senders crossing it; a sender's RTT is
//!   its path's base RTT plus every crossed link's queueing delay, and
//!   its loss `1 − Π(1 − L_l)` over the path. Multi-link traces record
//!   per-sender RTT columns, and [`Topology::link_loads`] derives the
//!   per-link loads from the recorded windows.
//!
//! ```
//! use axcc_core::LinkParams;
//! use axcc_fluidsim::{Scenario, SenderConfig};
//! use axcc_protocols::Aimd;
//!
//! // Two Reno senders on a C = 100 MSS link, as in the paper's model.
//! let link = LinkParams::new(1000.0, 0.05, 20.0);
//! let trace = Scenario::new(link)
//!     .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(1.0))
//!     .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(80.0))
//!     .steps(2000)
//!     .run();
//! // Converged and fair: both senders' tail-average windows are close.
//! let tail = trace.tail_start(0.5);
//! let a = trace.senders[0].mean_window_from(tail);
//! let b = trace.senders[1].mean_window_from(tail);
//! assert!((a / b - 1.0).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

mod engine;
pub mod loss;
mod scenario;
pub mod stats;

pub use engine::{
    run_scenario_streaming, run_scenario_streaming_into, try_run_scenario_streaming,
    try_run_scenario_streaming_into, try_run_scenario_with,
};
pub use loss::{LossModel, LossProcess};
pub use scenario::{FeedbackMode, Scenario, SenderConfig};

pub use axcc_core::axioms::streaming::{
    metric_accumulator_for, MetricAccumulator, MetricConfig, MetricSet, StepBlock, StepRecord,
    StreamOptions,
};
pub use axcc_core::{
    LinkParams, RunShape, RunTrace, ScenarioError, SenderTrace, StepSink, TraceSink,
};
pub use axcc_topo::{ChurnPlan, FlowInterval, OnOffPhases, Topology};
