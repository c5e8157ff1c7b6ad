//! Property test for the sink invariant of the engine: for *arbitrary*
//! scenarios — protocol mixes, links, staggered starts, wire-loss models,
//! bandwidth changes and feedback modes — the accumulator folded as the
//! engine runs scores every axiom **bit-identically** to replaying the
//! recorded trace through the same fold, i.e. the trace sink records
//! exactly the columns the streaming sink consumed.
//!
//! The unit tests in `engine.rs` pin a handful of hand-picked scenarios;
//! this test quantifies over the scenario space.

// Test-only helper fns sit outside #[test], where the workspace's
// allow-unwrap-in-tests exemption does not reach.
#![allow(clippy::unwrap_used)]

use axcc_core::LinkParams;
use axcc_fluidsim::{
    try_run_scenario_streaming, FeedbackMode, LossModel, MetricAccumulator, MetricConfig, Scenario,
    SenderConfig, StreamOptions,
};
use axcc_protocols::registry::resolve;
use proptest::prelude::*;

fn arb_link() -> impl Strategy<Value = LinkParams> {
    (300.0f64..5000.0, 0.01f64..0.1, 0.0f64..200.0)
        .prop_map(|(b, th, tau)| LinkParams::new(b, th, tau))
}

fn arb_protocol_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("reno"),
        Just("cubic"),
        Just("scalable"),
        Just("robust-aimd"),
        Just("pcc"),
        Just("vegas"),
        Just("bbr"),
        Just("mimd(1.05,0.5)"),
        Just("bin(1,0.5,0.5,0.5)"),
    ]
}

fn arb_loss() -> impl Strategy<Value = LossModel> {
    prop_oneof![
        Just(LossModel::None),
        (0.001f64..0.1).prop_map(|rate| LossModel::Constant { rate }),
        (0.001f64..0.1).prop_map(|rate| LossModel::Bernoulli { rate }),
        (0.005f64..0.05, 2.0f64..8.0, 0.05f64..0.4)
            .prop_map(|(p, burst, loss)| LossModel::bursty(p, burst, loss)),
    ]
}

/// All scenario degrees of freedom the engine loop branches on, as one
/// value so the trace and streaming runs are built from identical inputs
/// (`Scenario` owns boxed protocols and is not `Clone`).
#[derive(Debug, Clone)]
struct Params {
    link: LinkParams,
    names: Vec<&'static str>,
    inits: Vec<f64>,
    starts: Vec<u64>,
    loss: LossModel,
    seed: u64,
    per_packet: bool,
    bw_change: Option<f64>,
    steps: usize,
    tail_fraction: f64,
}

fn build(p: &Params) -> Scenario {
    let n = p.names.len().min(p.inits.len()).min(p.starts.len());
    let mut sc = Scenario::new(p.link)
        .steps(p.steps)
        .wire_loss(p.loss)
        .seed(p.seed);
    for i in 0..n {
        sc = sc.sender(
            SenderConfig::new(resolve(p.names[i]).unwrap())
                .initial_window(p.inits[i])
                .start_at(p.starts[i]),
        );
    }
    if p.per_packet {
        sc = sc.feedback(FeedbackMode::PerPacket);
    }
    if let Some(bw) = p.bw_change {
        sc = sc.bandwidth_change((p.steps / 2) as u64, bw);
    }
    sc
}

fn arb_params() -> impl Strategy<Value = Params> {
    (
        arb_link(),
        proptest::collection::vec(arb_protocol_name(), 1..4),
        proptest::collection::vec(0.0f64..200.0, 1..4),
        proptest::collection::vec(0u64..150, 1..4),
        arb_loss(),
        any::<u64>(),
        any::<bool>(),
        (any::<bool>(), 400.0f64..3000.0).prop_map(|(on, bw)| on.then_some(bw)),
        (200usize..500),
        (0.1f64..0.9),
    )
        .prop_map(
            |(
                link,
                names,
                inits,
                starts,
                loss,
                seed,
                per_packet,
                bw_change,
                steps,
                tail_fraction,
            )| {
                Params {
                    link,
                    names,
                    inits,
                    starts,
                    loss,
                    seed,
                    per_packet,
                    bw_change,
                    steps,
                    tail_fraction,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming accumulator ≡ replay of the recorded trace, to the exact
    /// f64 bits, for every axiom and every sender, on arbitrary scenarios.
    #[test]
    fn streaming_equals_trace_replay_bitwise(p in arb_params()) {
        let opts = StreamOptions {
            tail_fraction: p.tail_fraction,
            ..StreamOptions::default()
        };
        let trace = build(&p).try_run().unwrap();
        let acc = try_run_scenario_streaming(build(&p), &opts).unwrap();
        let replayed = MetricAccumulator::replay(&trace, &MetricConfig {
            tail_fraction: opts.tail_fraction,
            ..MetricConfig::for_trace(&trace)
        });
        let tail = trace.tail_start(opts.tail_fraction);
        let n = trace.senders.len();

        // Link-level axioms.
        let pairs = [
            (acc.measured_efficiency(), replayed.measured_efficiency()),
            (acc.mean_utilization(), replayed.mean_utilization()),
            (acc.measured_loss_bound(), replayed.measured_loss_bound()),
            (acc.mean_loss(), replayed.mean_loss()),
            (acc.measured_latency_inflation(), replayed.measured_latency_inflation()),
            (acc.measured_fairness(), replayed.measured_fairness()),
            (acc.jain_index(), replayed.jain_index()),
            (acc.measured_convergence(), replayed.measured_convergence()),
        ];
        for (a, b) in pairs {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(acc.is_zero_loss(), replayed.is_zero_loss());

        // Friendliness over every proper prefix split {0..k} vs {k..n}.
        for k in 1..n {
            let p_set: Vec<usize> = (0..k).collect();
            let q_set: Vec<usize> = (k..n).collect();
            prop_assert_eq!(
                acc.measured_friendliness(&p_set, &q_set).to_bits(),
                replayed.measured_friendliness(&p_set, &q_set).to_bits()
            );
        }

        // Per-sender axioms, and the tail summaries against the trace's
        // own column statistics.
        for (i, s) in trace.senders.iter().enumerate() {
            prop_assert_eq!(
                acc.measured_fast_utilization(i).map(f64::to_bits),
                replayed.measured_fast_utilization(i).map(f64::to_bits)
            );
            prop_assert_eq!(acc.window_escapes(i, 0.2), replayed.window_escapes(i, 0.2));
            prop_assert_eq!(acc.window_diverging(i, 1e-9), replayed.window_diverging(i, 1e-9));
            prop_assert_eq!(
                acc.last_window(i).to_bits(),
                s.window.last().copied().unwrap_or(0.0).to_bits()
            );
            prop_assert_eq!(
                acc.tail_mean_window(i).to_bits(),
                s.mean_window_from(tail).to_bits()
            );
            prop_assert_eq!(
                acc.tail_mean_goodput(i).to_bits(),
                s.mean_goodput_from(tail).to_bits()
            );
        }
    }
}
