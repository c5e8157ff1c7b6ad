//! Known answers for the packet engine's event order.
//!
//! Each scenario below pins a digest of the full sampled trace, every
//! flow's [`FlowStats`] and the bottleneck's [`QueueStats`]. The values
//! were recorded from the engine whose event queue was a single binary
//! heap keyed by `(time, insertion sequence)`. Any change to how events
//! are queued must reproduce them exactly: a reordered pair of
//! simultaneous events shifts an RNG draw or an epoch boundary, and that
//! shows up here as a changed digest.
//!
//! Together the scenarios reach every [`Event`](axcc_packetsim::Event)
//! variant (flow start and stop, queue departure, ACK, loss notice, paced
//! send, monitor-interval boundary, sample) and every loss path:
//! Bernoulli and Gilbert–Elliott wire loss, tail-drop overflow, RED drop
//! and mark, step ECN, staggered starts, an extra access delay and
//! `stop_at_secs`.

#![allow(clippy::unwrap_used)] // a failed run should abort the test loudly

use axcc_core::fingerprint::Fingerprinter;
use axcc_core::units::Bandwidth;
use axcc_core::{LinkParams, RunTrace};
use axcc_packetsim::{
    FlowStats, LossModel, PacketScenario, PacketSenderConfig, QueueStats, RedConfig, SimOutput,
};
use axcc_protocols::{Aimd, Cubic, Pcc};

/// 20 Mbps, 42 ms RTT, 100-MSS buffer: a paper Emulab configuration.
fn paper_link() -> LinkParams {
    LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0)
}

fn reno() -> PacketSenderConfig {
    PacketSenderConfig::new(Box::new(Aimd::reno()))
}

/// Content digest of every column of a trace, bit for bit.
fn trace_digest(trace: &RunTrace) -> String {
    let mut fp = Fingerprinter::new();
    let column = |fp: &mut Fingerprinter, xs: &[f64]| {
        fp.write_usize(xs.len());
        for &x in xs {
            fp.write_f64(x);
        }
    };
    fp.write_usize(trace.senders.len());
    for s in &trace.senders {
        fp.write_str(&s.protocol);
        fp.write_u8(u8::from(s.loss_based));
        column(&mut fp, &s.window);
        column(&mut fp, &s.loss);
        match &s.rtt {
            Some(rtt) => {
                fp.write_u8(1);
                column(&mut fp, rtt);
            }
            None => fp.write_u8(0),
        }
        column(&mut fp, &s.goodput);
    }
    column(&mut fp, &trace.total_window);
    column(&mut fp, &trace.rtt);
    column(&mut fp, &trace.loss);
    fp.write_u64(trace.seed);
    fp.finish().to_hex()
}

fn flow(f: &FlowStats) -> String {
    format!(
        "sent={} acked={} lost={} marked={} epochs={}",
        f.sent, f.acked, f.lost, f.marked, f.epochs
    )
}

fn queue(q: &QueueStats) -> String {
    format!(
        "enqueued={} dropped={} max_depth={} wire_lost={} marked={}",
        q.enqueued, q.dropped, q.max_depth, q.wire_lost, q.marked
    )
}

/// One line per pinned quantity.
fn render(out: &SimOutput) -> Vec<String> {
    assert!(out.conservation_ok(), "packet conservation violated");
    let mut lines = vec![format!("trace {}", trace_digest(&out.trace))];
    lines.extend(out.flows.iter().map(|f| format!("flow {}", flow(f))));
    lines.push(format!("queue {}", queue(&out.queue)));
    lines
}

fn check(name: &str, sc: PacketScenario, want: &[&str]) {
    let got = render(&sc.try_run().unwrap());
    assert_eq!(got, want, "{name}: known answers changed");
}

#[test]
fn bernoulli_loss_with_staggered_starts() {
    let sc = PacketScenario::new(paper_link())
        .sender(reno())
        .sender(reno().start_at_secs(0.5))
        .sender(PacketSenderConfig::new(Box::new(Cubic::linux())).start_at_secs(1.25))
        .duration_secs(4.0)
        .wire_loss(LossModel::Bernoulli { rate: 0.02 })
        .seed(9);
    check(
        "bernoulli",
        sc,
        &[
            "trace 4505bf9665495e193b8a096ef45c2594",
            "flow sent=714 acked=681 lost=20 marked=0 epochs=99",
            "flow sent=668 acked=646 lost=16 marked=0 epochs=85",
            "flow sent=2088 acked=2016 lost=37 marked=0 epochs=63",
            "queue enqueued=3470 dropped=0 max_depth=17 wire_lost=76 marked=0",
        ],
    );
}

#[test]
fn gilbert_elliott_loss_with_an_extra_delay_flow() {
    let sc = PacketScenario::new(paper_link())
        .sender(reno())
        .sender(reno().extra_delay_secs(0.011))
        .duration_secs(4.0)
        .wire_loss(LossModel::bursty(0.01, 4.0, 0.25))
        .seed(3);
    check(
        "gilbert-elliott",
        sc,
        &[
            "trace dd5345d8eccf6086eb42c64eb248ccd3",
            "flow sent=1123 acked=1096 lost=11 marked=0 epochs=95",
            "flow sent=898 acked=875 lost=6 marked=0 epochs=62",
            "queue enqueued=2021 dropped=0 max_depth=8 wire_lost=17 marked=0",
        ],
    );
}

#[test]
fn overflow_with_a_departing_flow() {
    // A 10-MSS buffer and a 60-MSS initial window, so the tail overflows.
    let link = LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 10.0);
    let sc = PacketScenario::new(link)
        .sender(reno().initial_cwnd(60.0))
        .sender(reno().start_at_secs(0.2).stop_at_secs(2.5))
        .duration_secs(4.0)
        .seed(1);
    check(
        "overflow",
        sc,
        &[
            "trace 8ec52976add5c0561f16d948c363b28b",
            "flow sent=4108 acked=3939 lost=91 marked=0 epochs=92",
            "flow sent=1095 acked=1094 lost=1 marked=0 epochs=53",
            "queue enqueued=5111 dropped=92 max_depth=10 wire_lost=0 marked=0",
        ],
    );
}

#[test]
fn red_early_drop() {
    let sc = PacketScenario::new(paper_link())
        .sender(reno())
        .sender(reno())
        .sender(reno().start_at_secs(0.3))
        .duration_secs(4.0)
        .red(RedConfig::classic(100.0))
        .seed(2);
    check(
        "red-drop",
        sc,
        &[
            "trace 88c8907b13c85fffd903dd249cf5dba0",
            "flow sent=2254 acked=2220 lost=3 marked=0 epochs=79",
            "flow sent=2019 acked=1977 lost=2 marked=0 epochs=80",
            "flow sent=1468 acked=1439 lost=5 marked=0 epochs=73",
            "queue enqueued=5731 dropped=10 max_depth=38 wire_lost=0 marked=0",
        ],
    );
}

#[test]
fn red_marking() {
    let sc = PacketScenario::new(paper_link())
        .sender(reno())
        .sender(reno())
        .sender(reno())
        .duration_secs(4.0)
        .red(RedConfig::classic_marking(60.0))
        .seed(4);
    check(
        "red-mark",
        sc,
        &[
            "trace 04da86931a0fbbc0c4695cc35cca3ae3",
            "flow sent=2449 acked=2431 lost=0 marked=6 epochs=85",
            "flow sent=1728 acked=1706 lost=0 marked=6 epochs=86",
            "flow sent=1569 acked=1548 lost=0 marked=5 epochs=85",
            "queue enqueued=5746 dropped=0 max_depth=27 wire_lost=0 marked=17",
        ],
    );
}

#[test]
fn step_ecn() {
    let sc = PacketScenario::new(paper_link())
        .sender(reno())
        .sender(reno().start_at_secs(0.4))
        .duration_secs(4.0)
        .ecn_threshold(20);
    check(
        "step-ecn",
        sc,
        &[
            "trace 6cd37b7a67da64f2c5decdd33c419017",
            "flow sent=2707 acked=2668 lost=0 marked=149 epochs=90",
            "flow sent=2114 acked=2078 lost=0 marked=85 epochs=80",
            "queue enqueued=4821 dropped=0 max_depth=22 wire_lost=0 marked=234",
        ],
    );
}

#[test]
fn paced_pcc_beside_windowed_flows() {
    let sc = PacketScenario::new(paper_link())
        .sender(PacketSenderConfig::new(Box::new(Pcc::new())).paced())
        .sender(reno().paced().start_at_secs(0.3).stop_at_secs(3.0))
        .sender(reno().extra_delay_secs(0.005))
        .duration_secs(4.0)
        .wire_loss(LossModel::Bernoulli { rate: 0.005 })
        .seed(7);
    check(
        "paced",
        sc,
        &[
            "trace c4fb92835d6b48b63d21b1cd752c9609",
            "flow sent=2217 acked=2142 lost=10 marked=0 epochs=90",
            "flow sent=917 acked=911 lost=6 marked=0 epochs=60",
            "flow sent=1332 acked=1311 lost=5 marked=0 epochs=75",
            "queue enqueued=4466 dropped=0 max_depth=18 wire_lost=22 marked=0",
        ],
    );
}
