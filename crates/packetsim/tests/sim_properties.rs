//! Property tests for the packet-level engine: conservation, buffer
//! bounds, determinism and timing sanity for arbitrary scenarios.

#![allow(clippy::float_cmp)]
// exact comparisons are deliberate in tests
// Test-only helper fns sit outside #[test], where the workspace's
// allow-unwrap-in-tests exemption does not reach.
#![allow(clippy::unwrap_used)]
use axcc_core::protocol::MAX_WINDOW;
use axcc_core::{LinkParams, LossModel};
use axcc_packetsim::{PacketScenario, PacketSenderConfig};
use axcc_protocols::registry::resolve;
use proptest::prelude::*;

/// Conservation, buffer bound, and valid traces for arbitrary mixes,
/// stagger, wire loss and seeds.
fn check_conservation_and_bounds(
    link: LinkParams,
    names: &[&str],
    stagger: f64,
    wire: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut sc = PacketScenario::new(link)
        .duration_secs(4.0)
        .wire_loss(LossModel::Bernoulli { rate: wire })
        .seed(seed);
    for (i, name) in names.iter().enumerate() {
        sc = sc.sender(
            PacketSenderConfig::new(resolve(name).unwrap()).start_at_secs(i as f64 * stagger),
        );
    }
    let out = sc.run();
    prop_assert!(out.conservation_ok());
    prop_assert!(out.queue.max_depth as f64 <= link.buffer.round());
    prop_assert_eq!(out.trace.validate(MAX_WINDOW), Ok(()));
    // Every flow that started made progress.
    for f in &out.flows {
        prop_assert!(f.sent > 0);
    }
    // Aggregate sanity: total acked cannot exceed what the link can
    // carry in the duration (plus one BDP of slack).
    let acked: u64 = out.flows.iter().map(|f| f.acked).sum();
    let cap = link.bandwidth * 4.0 + link.capacity() + 1.0;
    prop_assert!((acked as f64) <= cap, "acked {acked} > capacity {cap}");
    Ok(())
}

/// A shrunk failure of [`check_conservation_and_bounds`] kept from an
/// earlier proptest run: one Reno flow on a bufferless link.
#[test]
fn conservation_and_bounds_of_reno_on_a_bufferless_link() {
    let link = LinkParams {
        bandwidth: 500.0,
        prop_delay: 0.057858575526814296,
        buffer: 0.0,
        timeout_delta: 0.23143430210725718,
    };
    check_conservation_and_bounds(link, &["reno"], 0.0, 0.0, 0).unwrap();
}

fn arb_protocol_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("reno"),
        Just("cubic"),
        Just("scalable"),
        Just("robust-aimd"),
        Just("pcc"),
        Just("aimd(2,0.7)"),
        Just("bin(1,0.5,1,0)"),
    ]
}

fn arb_link() -> impl Strategy<Value = LinkParams> {
    // Keep event counts bounded: ≤ 5000 MSS/s for ≤ 4 s.
    (500.0f64..5000.0, 0.005f64..0.08, 0.0f64..120.0)
        .prop_map(|(b, th, tau)| LinkParams::new(b, th, tau))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// See [`check_conservation_and_bounds`].
    #[test]
    fn conservation_and_bounds(
        link in arb_link(),
        names in proptest::collection::vec(arb_protocol_name(), 1..4),
        stagger in 0.0f64..1.0,
        wire in 0.0f64..0.15,
        seed in any::<u64>(),
    ) {
        check_conservation_and_bounds(link, &names, stagger, wire, seed)?;
    }

    /// Bit-exact determinism for arbitrary scenarios.
    #[test]
    fn determinism(
        link in arb_link(),
        name in arb_protocol_name(),
        wire in 0.0f64..0.1,
        seed in any::<u64>(),
    ) {
        let run = || {
            let out = PacketScenario::new(link)
                .homogeneous(resolve(name).unwrap().as_ref(), 2)
                .duration_secs(3.0)
                .wire_loss(LossModel::Bernoulli { rate: wire })
                .seed(seed)
                .run();
            (out.trace, out.flows, out.queue)
        };
        prop_assert_eq!(run(), run());
    }

    /// RTT samples are physically possible: at least the propagation floor
    /// plus one serialization, at most floor + full-buffer drain + one
    /// serialization.
    #[test]
    fn rtt_samples_within_physical_bounds(
        link in arb_link(),
        name in arb_protocol_name(),
    ) {
        let out = PacketScenario::new(link)
            .homogeneous(resolve(name).unwrap().as_ref(), 2)
            .duration_secs(4.0)
            .run();
        let ser = 1.0 / link.bandwidth;
        let min_possible = link.min_rtt();
        let max_possible = link.min_rtt() + (link.buffer.round() + 2.0) * ser;
        for i in 0..out.trace.senders.len() {
            for &r in out.trace.sender_rtt(i) {
                prop_assert!(r >= min_possible - 1e-9, "rtt {r} < floor {min_possible}");
                prop_assert!(r <= max_possible + 1e-9, "rtt {r} > ceiling {max_possible}");
            }
        }
    }

    /// Without wire loss, a drop implies the queue really was full at some
    /// point: drops can only happen when offered load exceeds the buffer.
    #[test]
    fn drops_imply_full_queue(
        link in arb_link(),
        name in arb_protocol_name(),
    ) {
        let out = PacketScenario::new(link)
            .homogeneous(resolve(name).unwrap().as_ref(), 3)
            .duration_secs(4.0)
            .run();
        if out.queue.dropped > 0 {
            prop_assert_eq!(out.queue.max_depth as f64, link.buffer.round());
        }
        prop_assert_eq!(out.queue.wire_lost, 0);
    }
}
