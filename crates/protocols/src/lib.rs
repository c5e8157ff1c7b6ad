//! # axcc-protocols — executable congestion-control protocols
//!
//! Window-update rules implementing [`axcc_core::Protocol`] for every family
//! the paper models (Section 2) plus the two protocol classes its analysis
//! references but defers to "future research" on the modeling side:
//!
//! * [`Aimd`] — Additive-Increase-Multiplicative-Decrease, AIMD(a, b);
//!   TCP Reno is AIMD(1, 0.5).
//! * [`Mimd`] — Multiplicative-Increase-Multiplicative-Decrease; TCP
//!   Scalable is MIMD(1.01, 0.875).
//! * [`Binomial`] — BIN(a, b, k, l) of Bansal–Balakrishnan, including the
//!   IIAD and SQRT special cases.
//! * [`Cubic`] — the paper's CUBIC(c, b) model of TCP Cubic.
//! * [`RobustAimd`] — the paper's new Robust-AIMD(a, b, ε) (Section 5.2):
//!   an AIMD/PCC hybrid that tolerates loss rate up to ε before backing
//!   off, making it ε-robust to non-congestion loss.
//! * [`Pcc`] — a monitor-interval, utility-gradient rate controller in the
//!   spirit of PCC (Dong et al., NSDI'15), used as the Table 2 comparator;
//!   its aggressiveness envelope is the MIMD(1.01, 0.99) the paper cites.
//! * [`Vegas`] — a delay-based (latency-avoiding) protocol in the spirit of
//!   TCP Vegas, used to exercise Theorem 5 (loss-based protocols starve
//!   latency-avoiders).
//! * [`Bbr`] — a model of BBR (congestion-based congestion control), the
//!   other protocol class Section 6 marks for future work: bandwidth/RTT
//!   estimation with a probe-gain cycle, not loss-based.
//! * [`Tfrc`] — an equation-based (TFRC-style) protocol after the paper's
//!   reference \[13\]: the PFTK throughput equation driven by a smoothed
//!   loss-event rate, built for smoothness at TCP-fair throughput.
//! * [`HighSpeed`] — HighSpeed TCP (RFC 3649), window-dependent AIMD: a
//!   protocol whose position in the metric space shifts with link scale
//!   (Reno below 38 MSS, progressively more aggressive above).
//!
//! Every protocol here is **deterministic** and reset-able, satisfying the
//! [`Protocol`](axcc_core::Protocol) contract; the property-test suites in
//! this crate verify determinism, reset-equivalence, and the family-defining
//! update algebra.
//!
//! Presets matching the paper's experiments are in [`presets`], a
//! name-based factory in [`registry`], and [`from_spec`] bridges from the
//! analytic [`ProtocolSpec`](axcc_core::theory::ProtocolSpec) to the
//! executable protocol so theory and simulation always share parameters.

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

mod aimd;
mod bbr;
mod binomial;
mod cubic;
mod highspeed;
mod mimd;
mod pcc;
mod prober;
mod robust_aimd;
mod slow_start;
mod tfrc;
mod vegas;

pub mod from_spec;
pub mod presets;
pub mod registry;

pub use aimd::Aimd;
pub use bbr::Bbr;
pub use binomial::Binomial;
pub use cubic::Cubic;
pub use from_spec::build_protocol;
pub use highspeed::HighSpeed;
pub use mimd::Mimd;
pub use pcc::Pcc;
pub use prober::CautiousProber;
pub use robust_aimd::RobustAimd;
pub use slow_start::SlowStart;
pub use tfrc::Tfrc;
pub use vegas::Vegas;
