//! Quickstart: two TCP Reno connections share one bottleneck.
//!
//! Builds the paper's model (Section 2), runs the dynamics, prints the
//! sawtooth, and scores the run against all the axioms a homogeneous
//! two-sender scenario can witness (Metrics I–V, VIII).
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use axiomatic_cc::core::axioms::streaming::{MetricAccumulator, MetricConfig};
use axiomatic_cc::core::units::sec_to_ms;
use axiomatic_cc::core::LinkParams;
use axiomatic_cc::fluidsim::{Scenario, SenderConfig};
use axiomatic_cc::protocols::Aimd;

fn main() {
    // A 12 Mbps link with 50 ms one-way propagation delay and a 20-MSS
    // buffer: capacity C = B·2Θ = 100 MSS.
    let link = LinkParams::reference();
    println!(
        "link: B = {} MSS/s, 2Θ = {} ms, τ = {} MSS  ⇒  C = {} MSS, loss threshold C+τ = {} MSS\n",
        link.bandwidth,
        sec_to_ms(link.min_rtt()),
        link.buffer,
        link.capacity(),
        link.loss_threshold()
    );

    // One incumbent with a large window, one newcomer with a tiny one:
    // the skewed start exercises AIMD's convergence-to-fairness.
    let trace = Scenario::new(link)
        .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(90.0))
        .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(1.0))
        .steps(1200)
        .run();

    // Print the converged sawtooth at a resolution that resolves its
    // ~30-step period (coarser sampling would alias it).
    println!("t(step)  sender0  sender1  total   RTT(ms)  loss");
    for t in (900..1050).step_by(7) {
        println!(
            "{:>7}  {:>7.1}  {:>7.1}  {:>5.1}  {:>7.1}  {:.3}",
            t,
            trace.senders[0].window[t],
            trace.senders[1].window[t],
            trace.total_window[t],
            sec_to_ms(trace.rtt[t]),
            trace.loss[t],
        );
    }

    // Score the tail of the run against the axioms: replay the trace's
    // columns through the axiom folds (the default tail is the final half).
    let acc = MetricAccumulator::replay(&trace, &MetricConfig::for_trace(&trace));
    println!("\naxiom scores over the final half of the run:");
    println!(
        "  Metric I    (efficiency):       α = {:.3}",
        acc.measured_efficiency()
    );
    println!(
        "  Metric II   (fast-utilization): α = {:?}",
        acc.measured_fast_utilization(0)
    );
    println!(
        "  Metric III  (loss bound):       α = {:.4}",
        acc.measured_loss_bound()
    );
    println!(
        "  Metric IV   (fairness):         α = {:.3}  (Jain index {:.3})",
        acc.measured_fairness(),
        acc.jain_index()
    );
    println!(
        "  Metric V    (convergence):      α = {:.3}",
        acc.measured_convergence()
    );
    println!(
        "  Metric VIII (latency):          α = {}",
        match acc.measured_latency_inflation() {
            x if x.is_infinite() => "unbounded (loss-based protocol fills the buffer)".to_string(),
            x => format!("{x:.3}"),
        }
    );
    println!(
        "\nTable 1 predicts worst-case efficiency b = 0.5 and convergence 2b/(1+b) = {:.3} for Reno.",
        2.0 * 0.5 / 1.5
    );
}
