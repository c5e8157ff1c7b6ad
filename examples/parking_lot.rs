//! Parking lot: network-wide protocol interaction (§6 future work).
//!
//! The classic multi-bottleneck topology — `k` links in a row, one long
//! flow crossing all of them, one short flow per link. The long flow pays
//! double: loss exposure on every hop (loss composes across links) and a
//! longer base RTT. This example runs the 3-hop parking lot for Reno and
//! for Vegas and prints each flow's goodput share, the per-link
//! utilization, and the long/short ratio — the number network-wide
//! fairness debates revolve around.
//!
//! ```sh
//! cargo run --release --example parking_lot
//! ```

use axiomatic_cc::core::{LinkParams, Protocol, ScenarioError};
use axiomatic_cc::fluidsim::{Scenario, SenderConfig, Topology};
use axiomatic_cc::protocols::{Aimd, Vegas};

fn main() -> Result<(), ScenarioError> {
    let hop = LinkParams::reference(); // C = 100 MSS per hop
    let hops = 3;
    println!(
        "parking lot: {hops} hops of C = {:.0} MSS; 1 long flow (all hops) + {hops} short flows\n",
        hop.capacity()
    );

    let protos: Vec<(&str, Box<dyn Protocol>)> = vec![
        ("TCP Reno", Box::new(Aimd::reno())),
        ("Vegas", Box::new(Vegas::classic())),
    ];

    // Flow 0: the long flow over every hop; flow 1 + l: hop l's short flow.
    let topology = Topology::parking_lot(hops, hop);
    let paths: Vec<Vec<usize>> = std::iter::once((0..hops).collect())
        .chain((0..hops).map(|l| vec![l]))
        .collect();

    for (label, proto) in protos {
        let mut sc = Scenario::on(topology.clone()).steps(4000);
        for path in &paths {
            sc = sc.sender(SenderConfig::new(proto.clone_box()).path(path.clone()));
        }
        let trace = sc.try_run()?;
        let tail = trace.tail_start(0.5);

        println!("— {label} —");
        let long = trace.senders[0].mean_goodput_from(tail);
        println!("  long flow ({} hops): {:>7.1} MSS/s", hops, long);
        let mut shorts = Vec::new();
        for f in 1..=hops {
            let g = trace.senders[f].mean_goodput_from(tail);
            shorts.push(g);
            println!("  short flow on hop {}: {:>6.1} MSS/s", f - 1, g);
        }
        let mean_short = shorts.iter().sum::<f64>() / shorts.len() as f64;
        println!("  long/short ratio: {:.2}", long / mean_short);
        for (l, load) in topology.link_loads(&paths, &trace).iter().enumerate() {
            let tail_load = &load[tail..];
            println!(
                "  hop {l} utilization: {:.2}",
                tail_load.iter().sum::<f64>() / (tail_load.len() as f64 * hop.capacity())
            );
        }
        println!();
    }
    println!(
        "Reading: with Reno, loss exposure composes across hops and the long flow\n\
         gets squeezed well below the short flows' share (but never starved —\n\
         additive increase keeps probing). Vegas allocates by backlog, not loss,\n\
         and treats the long flow more gently while keeping every queue short."
    );
    Ok(())
}
