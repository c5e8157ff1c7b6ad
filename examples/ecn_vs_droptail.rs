//! ECN vs droptail: in-network queueing changes the axiom scores.
//!
//! Section 6 points at in-network queueing ("No Silver Bullet", reference
//! [25]) as a context for the axiomatic approach. This example makes the
//! point concrete at packet level: the *same* TCP Reno senders on the
//! *same* link score very differently on loss-avoidance (Metric III) and
//! latency-avoidance (Metric VIII) depending on whether the bottleneck
//! signals congestion by dropping (droptail) or by marking (ECN at a
//! 20-packet threshold). The protocol didn't change — the network's
//! feedback discipline moved the point in metric space.
//!
//! ```sh
//! cargo run --release --example ecn_vs_droptail
//! ```

use axiomatic_cc::core::axioms::streaming::{MetricAccumulator, MetricConfig};
use axiomatic_cc::core::units::{sec_to_ms, Bandwidth};
use axiomatic_cc::core::LinkParams;
use axiomatic_cc::packetsim::PacketScenario;
use axiomatic_cc::protocols::Aimd;

fn main() {
    let link = LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0);
    println!("2 × TCP Reno on 20 Mbps / 42 ms / 100-MSS buffer; ECN threshold 20 MSS\n");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "bottleneck", "drops", "marks", "max queue", "loss bound", "mean RTT(ms)"
    );
    println!("{}", "-".repeat(82));

    for (label, ecn) in [("droptail", None), ("ECN @ 20", Some(20))] {
        let mut sc = PacketScenario::new(link)
            .homogeneous(&Aimd::reno(), 2)
            .duration_secs(40.0);
        if let Some(k) = ecn {
            sc = sc.ecn_threshold(k);
        }
        let out = sc.run();
        let tail = out.trace.tail_start(0.5);
        let acc = MetricAccumulator::replay(&out.trace, &MetricConfig::for_trace(&out.trace));
        let loss = acc.measured_loss_bound();
        let mean_rtt: f64 = {
            let r = &out.trace.sender_rtt(0)[tail..];
            r.iter().sum::<f64>() / r.len() as f64
        };
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>12.4} {:>12.1}",
            label,
            out.queue.dropped,
            out.queue.marked,
            out.queue.max_depth,
            loss,
            sec_to_ms(mean_rtt),
        );
        let util = acc.mean_utilization();
        let lat = acc.measured_latency_inflation();
        println!(
            "{:<22} mean utilization {:.2}, latency inflation {}",
            "",
            util,
            if lat.is_infinite() {
                "unbounded".into()
            } else {
                format!("{lat:.2}")
            },
        );
    }

    println!(
        "\nSame protocol, same link: the marking discipline alone turns a lossy,\n\
         buffer-filling operating point into a loss-free one with a ~5x shorter\n\
         standing queue — i.e. it moves Reno along the Metric III and VIII axes\n\
         without touching Metric I. The axiom framework scores networks, not\n\
         just end-host algorithms."
    );
}
