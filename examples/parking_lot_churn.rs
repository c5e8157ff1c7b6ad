//! Parking lot under churn: arrival storms on a multi-bottleneck path.
//!
//! The 3-hop parking lot from `parking_lot.rs`, now with a dynamic flow
//! population: seeded Poisson arrivals inject extra long flows (crossing
//! every hop) that live for a few hundred steps and depart. Each arrival
//! shoves the standing allocation aside; the question §6's dynamics
//! axioms ask is how fast the aggregate re-converges onto the bottleneck
//! and what the visitors do to the long/short split while they coexist.
//! This example runs the storm for Reno and for Vegas and prints the
//! arrival schedule, the convergence-after-arrival metric (mean steps for
//! hop-0 load to re-reach 80% of capacity after each arrival), and the
//! resulting goodput split.
//!
//! ```sh
//! cargo run --release --example parking_lot_churn
//! ```

use axiomatic_cc::core::axioms::churn::SettleAcc;
use axiomatic_cc::core::{LinkParams, Protocol, ScenarioError};
use axiomatic_cc::fluidsim::{ChurnPlan, Scenario, SenderConfig, Topology};
use axiomatic_cc::protocols::{Aimd, Vegas};

fn main() -> Result<(), ScenarioError> {
    let hop = LinkParams::reference(); // C = 100 MSS per hop
    let hops = 3;
    let steps = 4000;
    let long_path: Vec<usize> = (0..hops).collect();

    // Deterministic storm: ~1 arrival per 500 steps, each visitor living
    // ~250 steps, at most 2 visitors at once — sparse enough that hop 0
    // drains between visits. Same seed → same schedule.
    let plan = ChurnPlan::poisson(0.002, 250.0).seed(7).max_concurrent(2);
    let arrivals: Vec<u64> = plan
        .expand(steps as u64)
        .iter()
        .map(|iv| iv.start)
        .collect();
    println!(
        "parking lot under churn: {hops} hops of C = {:.0} MSS; 1 long flow + \
         short flows on hops 1.. + {} Poisson visitors on the long path",
        hop.capacity(),
        arrivals.len()
    );
    println!("arrival steps: {arrivals:?}\n");

    // Hop 0 carries only the long flow and the visitors, so its load
    // genuinely collapses on departures and the settle metric prices how
    // fast each arrival refills the bottleneck.
    let settle_threshold = 0.5 * hop.capacity();
    let protos: Vec<(&str, Box<dyn Protocol>)> = vec![
        ("TCP Reno", Box::new(Aimd::reno())),
        ("Vegas", Box::new(Vegas::classic())),
    ];

    // Flow 0: the resident long flow over every hop; then resident short
    // flows on every hop but the first; then the storm's visitors, who
    // share the long path.
    let topology = Topology::parking_lot(hops, hop);
    let paths: Vec<Vec<usize>> = std::iter::once(long_path.clone())
        .chain((1..hops).map(|l| vec![l]))
        .chain(std::iter::repeat_n(long_path.clone(), arrivals.len()))
        .collect();

    for (label, proto) in protos {
        let mut sc = Scenario::on(topology.clone()).steps(steps);
        for path in &paths[..hops] {
            sc = sc.sender(SenderConfig::new(proto.clone_box()).path(path.clone()));
        }
        let trace = sc
            .churn_on(&plan, proto.as_ref(), long_path.clone())?
            .try_run()?;
        let tail = trace.tail_start(0.5);
        let loads = topology.link_loads(&paths, &trace);

        println!("— {label} —");
        let mut settle = SettleAcc::new(arrivals.clone(), settle_threshold);
        settle.push_block(&loads[0]);
        let settle = settle.measured();
        println!(
            "  convergence after arrival: {settle:.0} steps to re-reach \
             {settle_threshold:.0} MSS on hop 0"
        );
        let long = trace.senders[0].mean_goodput_from(tail);
        let mean_short = (1..hops)
            .map(|f| trace.senders[f].mean_goodput_from(tail))
            .sum::<f64>()
            / (hops - 1) as f64;
        println!("  resident long flow:  {long:>7.1} MSS/s");
        println!("  resident short mean: {mean_short:>7.1} MSS/s");
        for (l, load) in loads.iter().enumerate() {
            let tail_load = &load[tail..];
            println!(
                "  hop {l} utilization: {:.2}",
                tail_load.iter().sum::<f64>() / (tail_load.len() as f64 * hop.capacity())
            );
        }
        println!();
    }
    println!(
        "Reading: between visits hop 0 sags to whatever the squeezed resident\n\
         long flow holds, and the settle metric prices each arrival's refill.\n\
         Reno pays a measurable re-convergence delay because loss composed\n\
         across three hops keeps its resident small; Vegas holds more standing\n\
         window on hop 0 (it concedes on backlog, not loss), so arrivals land\n\
         in an already-settled bottleneck and the metric reads near zero."
    );
    Ok(())
}
