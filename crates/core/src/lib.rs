//! # axcc-core — the axiomatic congestion-control model
//!
//! This crate implements the *vocabulary* of
//! **"An Axiomatic Approach to Congestion Control"** (Zarchy, Schapira,
//! Mittal, Shenker — HotNets-XVI, 2017): the fluid-flow single-bottleneck
//! model of Section 2, the eight parameterized axioms of Section 3, and the
//! theoretical results of Sections 4–5 (Claim 1, Theorems 1–5, and every
//! closed-form cell of Table 1).
//!
//! It deliberately contains **no simulation engine**. The engines live in
//! [`axcc-fluidsim`](https://docs.rs/axcc-fluidsim) (the paper's synchronized
//! discrete-time fluid model) and `axcc-packetsim` (an event-driven
//! packet-level simulator standing in for the paper's Emulab testbed); both
//! produce the [`trace::RunTrace`] type defined here, over which the axioms
//! are evaluated.
//!
//! ## Model recap (paper, Section 2)
//!
//! `n` senders share one bottleneck link of bandwidth `B` (MSS/s),
//! propagation delay `Θ` (seconds) and buffer `τ` (MSS), with FIFO droptail
//! queuing. Time proceeds in discrete steps of one RTT. At step `t` sender
//! `i` holds congestion window `x_i^(t) ∈ [0, M]`; `X^(t) = Σ_i x_i^(t)`.
//! With `C = B·2Θ` (the link "capacity", i.e. the minimum
//! bandwidth-delay product):
//!
//! ```text
//! RTT(t) = max(2Θ, (X−C)/B + 2Θ)   if X < C + τ
//!        = Δ                        otherwise (timeout cap)
//!
//! L(t)   = 1 − (C+τ)/X             if X > C + τ
//!        = 0                        otherwise
//! ```
//!
//! A congestion-control protocol deterministically maps a sender's history
//! of windows, RTTs and loss rates to its next window — see
//! [`protocol::Protocol`].

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

pub mod axioms;
pub mod error;
pub mod fingerprint;
pub mod link;
pub mod protocol;
pub mod score;
pub mod theory;
pub mod trace;
pub mod units;

pub use error::ScenarioError;
pub use fingerprint::{Digest, Fingerprint, Fingerprinter};
pub use link::{LinkParams, LossRate, RttSeconds};
pub use protocol::{LaneObs, Observation, Protocol};
pub use score::AxiomScores;
pub use trace::{RunTrace, SenderTrace};
