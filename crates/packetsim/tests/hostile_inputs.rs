//! Hostile-input fuzz for the packet engine.
//!
//! Scenarios with extreme but finite parameters — RTTs from picoseconds
//! to hours, bandwidths from one packet per thousand seconds to a
//! terabit, window caps up to `MAX_WINDOW`, start, stop and access
//! delays up to `f64::MAX`, and every wire-loss model at full strength —
//! must either be refused with a typed [`ScenarioError`] or run to
//! completion with packet conservation intact, streaming into a metric
//! accumulator exactly the scores a replay of its trace gives; a constant
//! per-step loss rate is always refused. They must never panic (this file runs under
//! the test profile, so integer overflow checks and the engine's debug
//! assertions are on) and never hang.
//!
//! The work a case can do is kept small, not because larger cases fail
//! but so the suite stays fast: the simulated duration is cut so that
//! neither the bottleneck (`bandwidth × duration`) nor a window cycling
//! once per RTT (`max_window × duration / RTT`) exceeds
//! [`PACKET_BUDGET`] packets, the trace (one sample per RTT) holds at
//! most [`SAMPLE_BUDGET`] samples, and initial windows stay at or below
//! 10⁴ packets, since a window-clocked flow puts its whole initial
//! window on the wire at once.

#![allow(clippy::unwrap_used)] // a misspelled protocol name should abort loudly

use axcc_core::protocol::MAX_WINDOW;
use axcc_core::{LinkParams, ScenarioError};
use axcc_packetsim::{LossModel, PacketScenario, PacketSenderConfig, RedConfig};
use axcc_protocols::registry::resolve;
use proptest::prelude::*;

mod common;

/// Most packets one case may put on the wire.
const PACKET_BUDGET: f64 = 50_000.0;
/// Most trace samples one case may record.
const SAMPLE_BUDGET: f64 = 2_000.0;
/// Longest simulated duration.
const MAX_DURATION: f64 = 0.05;

const PROTOCOLS: [&str; 10] = [
    "reno",
    "cubic",
    "scalable",
    "robust-aimd",
    "pcc",
    "vegas",
    "bbr",
    "tfrc",
    "aimd(2,0.7)",
    "bin(1,0.5,1,0)",
];

/// Log-uniform over `[lo, hi]`.
fn log_uniform(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    (lo.ln()..=hi.ln()).prop_map(f64::exp)
}

/// Half the time ordinary, half the time from picoseconds to hours.
fn log_mixture(extreme: (f64, f64), ordinary: (f64, f64)) -> impl Strategy<Value = f64> {
    (
        any::<bool>(),
        log_uniform(extreme.0, extreme.1),
        log_uniform(ordinary.0, ordinary.1),
    )
        .prop_map(|(wild, far, near)| if wild { far } else { near })
}

/// A delay: often none, sometimes anything up to `f64::MAX`.
fn arb_delay() -> impl Strategy<Value = f64> {
    (0u8..8, log_uniform(1e-12, 1e4)).prop_map(|(kind, d)| match kind {
        0..=3 => 0.0,
        4 => 1e10,
        5 => f64::MAX,
        _ => d,
    })
}

/// A data-path loss model; one in five is the `Constant` rate the
/// packet engine refuses.
fn arb_loss() -> impl Strategy<Value = LossModel> {
    (0u8..5, 0.0f64..0.99, 1.0f64..50.0, 0.0f64..0.99).prop_map(|(kind, rate, burst, bad)| {
        match kind {
            0 => LossModel::None,
            1 => LossModel::Constant { rate },
            2 => LossModel::Bernoulli { rate },
            _ => LossModel::bursty(rate * bad, burst, bad),
        }
    })
}

#[derive(Debug, Clone)]
struct Flow {
    protocol: usize,
    initial_cwnd: f64,
    start: f64,
    stop: Option<f64>,
    extra_delay: f64,
    paced: bool,
}

fn arb_flow() -> impl Strategy<Value = Flow> {
    (
        0..PROTOCOLS.len(),
        (0u8..4, log_uniform(1e-3, 1e4)),
        (0u8..4, 0.0f64..1.0, arb_delay()),
        (0u8..4, log_uniform(1e-9, 1e12)),
        arb_delay(),
        any::<bool>(),
    )
        .prop_map(
            |(
                protocol,
                (w_kind, w),
                (s_kind, frac, far),
                (stop_kind, span),
                extra_delay,
                paced,
            )| {
                let start = match s_kind {
                    0 | 1 => 0.0,
                    2 => frac * MAX_DURATION,
                    _ => far,
                };
                Flow {
                    protocol,
                    initial_cwnd: if w_kind == 0 { 0.0 } else { w },
                    start,
                    stop: match stop_kind {
                        0 | 1 => None,
                        2 => Some(f64::MAX),
                        _ => Some(start + span),
                    },
                    extra_delay,
                    paced,
                }
            },
        )
}

#[derive(Debug, Clone)]
struct Case {
    bandwidth: f64,
    prop_delay: f64,
    buffer: f64,
    duration: f64,
    max_window: f64,
    queue: u8,
    flows: Vec<Flow>,
    loss: LossModel,
    seed: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        log_mixture((1e-3, 1e12), (1e3, 1e7)),
        log_mixture((1e-12, 1e4), (1e-6, 0.1)),
        (0u8..4, log_uniform(1.0, 1e6)),
        (
            0u8..8,
            log_uniform(1e-9, 1e-4),
            log_uniform(1e-4, MAX_DURATION),
        ),
        (0u8..8, log_uniform(1.0, 1e4)),
        0u8..4,
        proptest::collection::vec(arb_flow(), 1..4),
        arb_loss(),
        any::<u64>(),
    )
        .prop_map(
            |(
                bandwidth,
                prop_delay,
                (b_kind, buf),
                (d_kind, short, long),
                (w_kind, window_cap),
                queue,
                flows,
                loss,
                seed,
            )| {
                let max_window = if w_kind == 0 { MAX_WINDOW } else { window_cap };
                // A flow resolves at most one window of packets per RTT
                // (and a feedback delay is at least one nanosecond), the
                // bottleneck serializes `bandwidth` packets a second, and
                // the trace takes one sample per RTT.
                let rtt = (2.0 * prop_delay).max(1e-9);
                let duration = if d_kind == 0 { short } else { long }
                    .min(PACKET_BUDGET / bandwidth)
                    .min(PACKET_BUDGET * rtt / max_window)
                    .min(SAMPLE_BUDGET * rtt);
                Case {
                    bandwidth,
                    prop_delay,
                    buffer: if b_kind == 0 { 0.0 } else { buf.round() },
                    duration,
                    max_window,
                    queue,
                    flows,
                    loss,
                    seed,
                }
            },
        )
}

fn build(case: &Case) -> PacketScenario {
    let link = LinkParams::new(case.bandwidth, case.prop_delay, case.buffer);
    let mut sc = PacketScenario::new(link)
        .duration_secs(case.duration)
        .max_window(case.max_window)
        .wire_loss(case.loss)
        .seed(case.seed);
    sc = match case.queue {
        1 => sc.ecn_threshold((case.buffer / 2.0) as usize),
        2 => sc.red(RedConfig::classic(case.buffer)),
        3 => sc.red(RedConfig::classic_marking(case.buffer)),
        _ => sc,
    };
    for f in &case.flows {
        let mut cfg = PacketSenderConfig::new(resolve(PROTOCOLS[f.protocol]).unwrap())
            .initial_cwnd(f.initial_cwnd)
            .start_at_secs(f.start)
            .extra_delay_secs(f.extra_delay);
        if let Some(stop) = f.stop {
            cfg = cfg.stop_at_secs(stop);
        }
        if f.paced {
            cfg = cfg.paced();
        }
        sc = sc.sender(cfg);
    }
    sc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn extreme_scenarios_error_or_conserve(case in arb_case()) {
        let result = build(&case).try_run();
        if let LossModel::Constant { .. } = case.loss {
            // Refused, and by its loss model whenever nothing else is
            // wrong with the scenario.
            let lossless = Case { loss: LossModel::None, ..case.clone() };
            prop_assert!(result.is_err(), "a constant per-step rate ran: {case:?}");
            if build(&lossless).validate().is_ok() {
                prop_assert!(
                    matches!(result, Err(ScenarioError::InvalidLossModel(_))),
                    "a constant per-step rate must be refused: {case:?}"
                );
            }
        }
        match result {
            Ok(out) => {
                prop_assert!(out.conservation_ok(), "conservation violated: {case:?}");
                prop_assert_eq!(out.trace.validate(case.max_window), Ok(()));
                // Streaming the same run scores it as replaying its trace.
                prop_assert_eq!(common::streamed_matches_replay(build(&case), &out), Ok(()));
            }
            Err(e) => {
                // A refusal names what it refused.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}

/// Hand-built links bypass `LinkParams::new`'s assertions; the scenario
/// refuses them with a typed error instead of panicking in the engine.
#[test]
fn malformed_links_are_refused() {
    let good = LinkParams::new(1000.0, 0.02, 20.0);
    let bad = [
        (
            "link.bandwidth",
            LinkParams {
                bandwidth: f64::NAN,
                ..good
            },
        ),
        (
            "link.bandwidth",
            LinkParams {
                bandwidth: 0.0,
                ..good
            },
        ),
        (
            "link.bandwidth",
            LinkParams {
                bandwidth: f64::INFINITY,
                ..good
            },
        ),
        (
            "link.prop_delay",
            LinkParams {
                prop_delay: -1.0,
                ..good
            },
        ),
        (
            "link.prop_delay",
            LinkParams {
                prop_delay: f64::INFINITY,
                ..good
            },
        ),
        (
            "link.buffer",
            LinkParams {
                buffer: f64::NAN,
                ..good
            },
        ),
        (
            "link.buffer",
            LinkParams {
                buffer: -2.0,
                ..good
            },
        ),
    ];
    for (want, link) in bad {
        let err = PacketScenario::new(link)
            .sender(PacketSenderConfig::new(resolve("reno").unwrap()))
            .duration_secs(0.01)
            .try_run()
            .unwrap_err();
        match err {
            ScenarioError::InvalidParameter { field, .. } => assert_eq!(field, want),
            other => panic!("{want}: unexpected error {other:?}"),
        }
    }
}
