//! Bursty satellite link: the [`lossy_satellite`] scenario with the noise
//! arriving in Gilbert–Elliott bursts instead of an even Bernoulli drizzle.
//!
//! Both impairments here have the **same mean loss rate** (2%) — only the
//! correlation differs (bursts average 6 packets in the bad state at 30%
//! in-burst loss). At packet granularity the comparison is subtle: a burst
//! lands inside one SACK-recovery epoch and costs a single back-off, so a
//! loss-based sender often fares *better* under bursty loss than under the
//! same number of drops sprinkled uniformly. What bursts do punish is the
//! *depth* of each back-off across consecutive bad feedback epochs —
//! Reno's ×0.5 versus Robust-AIMD's ×0.8 — which is exactly the axis the
//! `axcc sweep --only gauntlet` experiment scores in the fluid model.
//!
//! ```sh
//! cargo run --release --example bursty_satellite
//! ```
//!
//! [`lossy_satellite`]: ../lossy_satellite.rs

use axiomatic_cc::core::units::{sec_to_ms, Bandwidth};
use axiomatic_cc::core::{LinkParams, Protocol};
use axiomatic_cc::packetsim::{LossModel, PacketScenario, PacketSenderConfig};
use axiomatic_cc::protocols::{Aimd, Cubic, Pcc, RobustAimd};

/// Mean non-congestion loss rate of both impairments.
const MEAN_RATE: f64 = 0.02;
/// Expected bad-state dwell (packets) of the bursty impairment.
const BURST_LEN: f64 = 6.0;
/// In-burst loss rate of the bursty impairment.
const LOSS_BAD: f64 = 0.3;

fn goodput(proto: &dyn Protocol, link: LinkParams, loss: LossModel) -> f64 {
    let out = PacketScenario::new(link)
        .sender(PacketSenderConfig::new(proto.clone_box()))
        .duration_secs(30.0)
        .wire_loss(loss)
        .seed(11)
        .run();
    let tail = out.trace.tail_start(0.5);
    out.trace.senders[0].mean_goodput_from(tail)
}

fn main() {
    // A 50 Mbps satellite-ish path, 300 ms RTT: plenty of spare capacity,
    // so every drop below is the wire's fault, not congestion's.
    let link = LinkParams::from_experiment(Bandwidth::Mbps(50.0), 300.0, 500.0);
    println!(
        "link: {:.0} MSS/s, {:.0} ms RTT — noisy but uncongested",
        link.bandwidth,
        sec_to_ms(link.min_rtt()),
    );
    println!(
        "impairments: clean | uniform {:.0}% | bursty {:.0}% mean ({} pkt bursts @ {:.0}%)\n",
        MEAN_RATE * 100.0,
        MEAN_RATE * 100.0,
        BURST_LEN,
        LOSS_BAD * 100.0,
    );

    let lineup: Vec<Box<dyn Protocol>> = vec![
        Box::new(Aimd::reno()),
        Box::new(Cubic::linux()),
        Box::new(RobustAimd::table2()),
        Box::new(Pcc::new()),
    ];

    println!(
        "{:<20} {:>10} {:>10} {:>10} {:>14}",
        "protocol", "clean", "uniform", "bursty", "bursty/uniform"
    );
    println!("{}", "-".repeat(68));
    for proto in &lineup {
        let clean = goodput(proto.as_ref(), link, LossModel::None);
        let uniform = goodput(
            proto.as_ref(),
            link,
            LossModel::Bernoulli { rate: MEAN_RATE },
        );
        let bursty = goodput(
            proto.as_ref(),
            link,
            LossModel::bursty(MEAN_RATE, BURST_LEN, LOSS_BAD),
        );
        println!(
            "{:<20} {:>10.0} {:>10.0} {:>10.0} {:>13.2}x",
            proto.name(),
            clean,
            uniform,
            bursty,
            if uniform > 0.0 {
                bursty / uniform
            } else {
                f64::INFINITY
            },
        );
    }
    println!(
        "\ngoodput in MSS/s (tail mean). At equal mean rate, correlated drops cost a\n\
         loss-based sender fewer back-offs than uniform drops — but each burst's\n\
         back-off is deeper the more feedback epochs it spans. Run\n\
         `axcc sweep --only gauntlet` for the fluid-model sweep that scores exactly\n\
         that axis (burst length at fixed burst frequency) across the whole lineup."
    );
}
