//! Late joiner: who makes room for a newcomer?
//!
//! The paper's model is explicit that its initial-window quantifier covers
//! *"connections (with smaller window sizes) starting to send after other
//! connections (with larger window sizes)"*. This example stages exactly
//! that: an incumbent flow owns the link; 400 steps in, a newcomer arrives
//! with a 1-MSS window. For each protocol we report how long the newcomer
//! needs to reach half its fair share and where the pair settles —
//! convergence-to-fairness (Metric IV/V) as a lived experience rather than
//! a score.
//!
//! ```sh
//! cargo run --release --example late_joiner
//! ```

use axiomatic_cc::core::axioms::streaming::{MetricAccumulator, MetricConfig};
use axiomatic_cc::core::{LinkParams, Protocol};
use axiomatic_cc::fluidsim::{Scenario, SenderConfig};
use axiomatic_cc::protocols::registry::resolve;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let link = LinkParams::reference(); // C = 100 MSS
    let join_at = 400u64;
    let steps = 4000usize;
    println!(
        "link C = {:.0} MSS; incumbent starts at t=0, newcomer joins at t={join_at}\n",
        link.capacity()
    );
    println!(
        "{:<20} {:>22} {:>16} {:>14}",
        "protocol", "steps to half share", "tail fairness", "tail windows"
    );
    println!("{}", "-".repeat(76));

    for name in [
        "reno",
        "cubic",
        "scalable",
        "robust-aimd",
        "tfrc",
        "highspeed",
        "vegas",
    ] {
        let proto: Box<dyn Protocol> = resolve(name)?;
        let trace = Scenario::new(link)
            .sender(SenderConfig::new(proto.clone_box()).initial_window(90.0))
            .sender(
                SenderConfig::new(proto.clone_box())
                    .initial_window(1.0)
                    .start_at(join_at),
            )
            .steps(steps)
            .run();

        // Fair share ≈ half the loss threshold; time to reach half of it.
        let half_share = link.loss_threshold() / 4.0;
        let reach = trace.senders[1].window[join_at as usize..]
            .iter()
            .position(|&w| w >= half_share);
        let tail = trace.tail_start(0.75);
        let cfg = MetricConfig {
            tail_fraction: 0.75,
            ..MetricConfig::for_trace(&trace)
        };
        let fair = MetricAccumulator::replay(&trace, &cfg).measured_fairness();
        let w0 = trace.senders[0].mean_window_from(tail);
        let w1 = trace.senders[1].mean_window_from(tail);
        println!(
            "{:<20} {:>22} {:>16.3} {:>7.1}/{:<6.1}",
            proto.name(),
            reach.map_or("never".to_string(), |s| format!("{s} steps")),
            fair,
            w0,
            w1,
        );
    }
    println!(
        "\nAIMD-family protocols converge (Chiu–Jain): the incumbent's multiplicative\n\
         back-offs shed more than the newcomer's, until the windows meet. Scalable\n\
         (MIMD) never converges — synchronized multiplicative moves preserve the\n\
         incumbent's advantage forever, Table 1's <0> fairness in action."
    );
    Ok(())
}
