//! Property tests for the axiom folds and the link model: structural
//! facts that must hold for *every* trace and link, not just the examples
//! in the unit tests.

#![allow(clippy::float_cmp)] // exact comparisons are deliberate in tests
use axcc_core::axioms::streaming::{MetricAccumulator, MetricConfig};
use axcc_core::trace::{RunTrace, SenderTrace};
use axcc_core::LinkParams;
use proptest::prelude::*;

fn arb_link() -> impl Strategy<Value = LinkParams> {
    (100.0f64..50_000.0, 0.001f64..0.3, 0.0f64..1000.0)
        .prop_map(|(b, th, tau)| LinkParams::new(b, th, tau))
}

/// Build a consistent trace from arbitrary window trajectories.
fn trace_from(link: LinkParams, windows: Vec<Vec<f64>>) -> RunTrace {
    let steps = windows[0].len();
    let mut senders: Vec<SenderTrace> = windows
        .iter()
        .enumerate()
        .map(|(i, _)| SenderTrace::with_capacity(format!("S{i}"), true, steps))
        .collect();
    let mut total = Vec::new();
    let mut rtts = Vec::new();
    let mut losses = Vec::new();
    for t in 0..steps {
        let x: f64 = windows.iter().map(|w| w[t]).sum();
        let rtt = link.rtt(x);
        let loss = link.loss_rate(x);
        total.push(x);
        rtts.push(rtt);
        losses.push(loss);
        for (s, w) in senders.iter_mut().zip(&windows) {
            s.window.push(w[t]);
            s.loss.push(loss);
            s.goodput.push(w[t] * (1.0 - loss) / rtt);
        }
    }
    RunTrace {
        link,
        senders,
        total_window: total,
        rtt: rtts,
        loss: losses,
        seed: 0,
    }
}

/// Score a trace through the replay with the tail from
/// `floor(len · tail_fraction)`.
fn score(trace: &RunTrace, tail_fraction: f64) -> MetricAccumulator {
    let cfg = MetricConfig {
        tail_fraction,
        ..MetricConfig::for_trace(trace)
    };
    MetricAccumulator::replay(trace, &cfg)
}

fn arb_windows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..4, 4usize..60).prop_flat_map(|(n, steps)| {
        proptest::collection::vec(
            proptest::collection::vec(0.0f64..4000.0, steps..=steps),
            n..=n,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// RTT equation: never below the propagation floor, never above Δ,
    /// and monotone in the total window below the loss threshold.
    #[test]
    fn rtt_equation_bounds(link in arb_link(), x in 0.0f64..1e7, dx in 0.0f64..100.0) {
        let r = link.rtt(x);
        prop_assert!(r >= link.min_rtt() - 1e-12);
        prop_assert!(r <= link.timeout_delta + 1e-12);
        if x + dx < link.loss_threshold() {
            prop_assert!(link.rtt(x + dx) >= r - 1e-12);
        }
    }

    /// Loss equation: in [0, 1), zero exactly up to the threshold, and
    /// monotone above it.
    #[test]
    fn loss_equation_bounds(link in arb_link(), x in 0.0f64..1e7, dx in 0.0f64..100.0) {
        let l = link.loss_rate(x);
        prop_assert!((0.0..1.0).contains(&l));
        if x <= link.loss_threshold() {
            prop_assert_eq!(l, 0.0);
        } else {
            prop_assert!(link.loss_rate(x + dx) >= l);
        }
    }

    /// All tail-based scores are within their documented ranges, for any
    /// trace and any tail start.
    #[test]
    fn scores_stay_in_range(link in arb_link(), windows in arb_windows(), frac in 0.0f64..1.0) {
        let trace = trace_from(link, windows);
        let acc = score(&trace, frac);
        prop_assert!((0.0..=1.0).contains(&acc.measured_efficiency()));
        prop_assert!((0.0..1.0).contains(&acc.measured_loss_bound()));
        prop_assert!((0.0..=1.0).contains(&acc.measured_fairness()));
        let jain = acc.jain_index();
        prop_assert!(jain >= 1.0 / trace.num_senders() as f64 - 1e-9);
        prop_assert!(jain <= 1.0 + 1e-9);
        prop_assert!((0.0..=1.0).contains(&acc.measured_convergence()));
        prop_assert!(acc.measured_latency_inflation() >= 0.0);
        for i in 0..trace.num_senders() {
            if let Some(f) = acc.measured_fast_utilization(i) {
                prop_assert!(f >= 0.0);
            }
        }
    }

    /// Growing the tail (starting it later) can only improve or preserve
    /// every "from T onwards" score — the existential over T is monotone.
    #[test]
    fn later_tail_never_hurts(link in arb_link(), windows in arb_windows()) {
        let trace = trace_from(link, windows);
        let (early, late) = (score(&trace, 0.25), score(&trace, 0.75));
        prop_assert!(late.measured_efficiency() >= early.measured_efficiency() - 1e-12);
        prop_assert!(late.measured_loss_bound() <= early.measured_loss_bound() + 1e-12);
        prop_assert!(late.measured_convergence() >= early.measured_convergence() - 1e-12);
        let (l1, l2) = (early.measured_latency_inflation(), late.measured_latency_inflation());
        prop_assert!(l2 <= l1 || (l1.is_infinite() && l2.is_infinite()) || l2.is_finite());
    }
}
