//! # axiomatic-cc — An Axiomatic Approach to Congestion Control
//!
//! A full Rust implementation of the framework from *"An Axiomatic
//! Approach to Congestion Control"* (Zarchy, Schapira, Mittal, Shenker —
//! HotNets-XVI, 2017): the fluid-flow model, the eight parameterized
//! axioms, the protocol families (plus PCC- and Vegas-style protocols),
//! the theoretical results (Table 1, Claim 1, Theorems 1–5), a
//! packet-level simulator standing in for the paper's Emulab testbed, and
//! the machinery that regenerates every table and figure in the paper's
//! evaluation.
//!
//! This crate is a facade: it re-exports the seven library crates so
//! applications can depend on one name.
//!
//! ```
//! use axiomatic_cc::core::LinkParams;
//! use axiomatic_cc::fluidsim::{Scenario, SenderConfig};
//! use axiomatic_cc::protocols::Aimd;
//! use axiomatic_cc::core::axioms::streaming::{MetricAccumulator, MetricConfig};
//!
//! // Two Reno senders on one bottleneck; measure Metric IV (fairness).
//! let link = LinkParams::new(1000.0, 0.05, 20.0);
//! let trace = Scenario::new(link)
//!     .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(90.0))
//!     .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(1.0))
//!     .steps(3000)
//!     .run();
//! // Replay the trace through the axiom folds (tail: the final half).
//! let acc = MetricAccumulator::replay(&trace, &MetricConfig::for_trace(&trace));
//! let score = acc.measured_fairness();
//! assert!(score > 0.8);
//! ```
//!
//! The crates, bottom-up:
//!
//! * [`core`] — model types, the [`Protocol`](core::Protocol) trait, the
//!   eight axioms, Table 1's closed forms, Theorems 1–5;
//! * [`protocols`] — executable AIMD / MIMD / BIN / CUBIC / Robust-AIMD /
//!   PCC / Vegas implementations and Linux presets;
//! * [`fluidsim`] — the paper's synchronized discrete-time simulator;
//! * [`packetsim`] — the event-driven packet-level simulator (Emulab
//!   substitute);
//! * [`analysis`] — empirical scoring, Pareto tooling, and the experiment
//!   builders for Table 1, Table 2, Figure 1 and the theorem checks;
//! * [`sweep`] — the deterministic parallel experiment runner with a
//!   content-addressed result cache that the experiment suite fans out
//!   through (`axcc run-all`);
//! * [`serve`] — the fault-tolerant evaluation daemon (`axcc serve`):
//!   newline-delimited JSON over TCP with a typed error taxonomy,
//!   per-job panic isolation, deadlines, bounded-queue overload
//!   shedding, and graceful drain.
//!
//! Runnable walkthroughs live in `examples/`. The paper's tables and
//! figures are entries of the experiment registry
//! ([`analysis::experiments::registry`]) and regenerate with
//! `axcc run-all --out-dir results` (see README).

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

pub use axcc_analysis as analysis;
pub use axcc_core as core;
pub use axcc_fluidsim as fluidsim;
pub use axcc_packetsim as packetsim;
pub use axcc_protocols as protocols;
pub use axcc_serve as serve;
pub use axcc_sweep as sweep;
