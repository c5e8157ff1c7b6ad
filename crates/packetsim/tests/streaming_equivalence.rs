//! One scoring path for the packet engine: each scenario pinned by
//! `event_order_known_answers.rs` (every event variant and every loss
//! path), plus runs long enough to fill several 128-row blocks, scores
//! bit-identically whether its samples stream into a metric accumulator
//! as it runs or are recorded and replayed, and records exactly the
//! sample count predicted before it starts.

#![allow(clippy::unwrap_used)] // a failed run should abort the test loudly

use axcc_core::units::Bandwidth;
use axcc_core::LinkParams;
use axcc_packetsim::{LossModel, PacketScenario, PacketSenderConfig, RedConfig};
use axcc_protocols::{Aimd, Cubic, Pcc};

mod common;

/// 20 Mbps, 42 ms RTT, 100-MSS buffer: a paper Emulab configuration.
fn paper_link() -> LinkParams {
    LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0)
}

fn reno() -> PacketSenderConfig {
    PacketSenderConfig::new(Box::new(Aimd::reno()))
}

type Build = fn() -> PacketScenario;

/// The known-answer scenarios, by name.
const SCENARIOS: [(&str, Build); 9] = [
    ("bernoulli_loss_with_staggered_starts", || {
        PacketScenario::new(paper_link())
            .sender(reno())
            .sender(reno().start_at_secs(0.5))
            .sender(reno().start_at_secs(0.5))
            .sender(PacketSenderConfig::new(Box::new(Cubic::linux())).start_at_secs(1.25))
            .duration_secs(4.0)
            .wire_loss(LossModel::Bernoulli { rate: 0.02 })
            .seed(9)
    }),
    ("gilbert_elliott_loss_with_an_extra_delay_flow", || {
        PacketScenario::new(paper_link())
            .sender(reno())
            .sender(reno().extra_delay_secs(0.011))
            .duration_secs(4.0)
            .wire_loss(LossModel::bursty(0.01, 4.0, 0.25))
            .seed(3)
    }),
    ("overflow_with_a_departing_flow", || {
        PacketScenario::new(LinkParams::from_experiment(
            Bandwidth::Mbps(20.0),
            42.0,
            10.0,
        ))
        .sender(reno().initial_cwnd(60.0))
        .sender(reno().start_at_secs(0.2).stop_at_secs(2.5))
        .duration_secs(4.0)
        .seed(1)
    }),
    ("red_early_drop", || {
        PacketScenario::new(paper_link())
            .sender(reno())
            .sender(reno())
            .sender(reno().start_at_secs(0.3))
            .duration_secs(4.0)
            .red(RedConfig::classic(100.0))
            .seed(2)
    }),
    ("red_marking", || {
        PacketScenario::new(paper_link())
            .sender(reno())
            .sender(reno())
            .sender(reno())
            .duration_secs(4.0)
            .red(RedConfig::classic_marking(60.0))
            .seed(4)
    }),
    ("step_ecn", || {
        PacketScenario::new(paper_link())
            .sender(reno())
            .sender(reno().start_at_secs(0.4))
            .duration_secs(4.0)
            .ecn_threshold(20)
    }),
    ("paced_pcc_beside_windowed_flows", || {
        PacketScenario::new(paper_link())
            .sender(PacketSenderConfig::new(Box::new(Pcc::new())).paced())
            .sender(reno().paced().start_at_secs(0.3).stop_at_secs(3.0))
            .sender(reno().extra_delay_secs(0.005))
            .duration_secs(4.0)
            .wire_loss(LossModel::Bernoulli { rate: 0.005 })
            .seed(7)
    }),
    // 715 samples: five full blocks and a partial one.
    ("two_renos_for_thirty_seconds", || {
        PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 2)
            .duration_secs(30.0)
    }),
    // A duration on a block edge: 1 + 255 samples of 42 ms.
    ("a_run_ending_on_a_block_edge", || {
        PacketScenario::new(paper_link())
            .sender(reno())
            .sender(PacketSenderConfig::new(Box::new(Pcc::new())).paced())
            .duration_secs(255.0 * 0.042)
            .seed(5)
    }),
];

#[test]
fn streaming_a_run_scores_it_as_replaying_its_trace() {
    for (name, build) in SCENARIOS {
        let recorded = build().try_run().unwrap();
        assert_eq!(
            common::streamed_matches_replay(build(), &recorded),
            Ok(()),
            "{name}"
        );
    }
}

#[test]
fn block_edge_run_records_whole_blocks() {
    let (_, build) = SCENARIOS[8];
    assert_eq!(build().try_run().unwrap().trace.len(), 256);
}
