//! Property-based invariants across the whole stack: for *arbitrary*
//! protocol parameters, link shapes, initial windows and seeds, the model's
//! structural guarantees must hold — windows in `[0, M]`, loss in `[0, 1)`,
//! RTTs at least `2Θ`, packet conservation, trace validation, dominance
//! anti-symmetry.

#![allow(clippy::float_cmp)] // exact comparisons are deliberate in tests
use axiomatic_cc::core::protocol::MAX_WINDOW;
use axiomatic_cc::core::{AxiomScores, LinkParams};
use axiomatic_cc::fluidsim::{LossModel, Scenario, SenderConfig};
use axiomatic_cc::packetsim::PacketScenario;
use axiomatic_cc::protocols::{Aimd, Binomial, Cubic, Mimd, RobustAimd};
use proptest::prelude::*;

/// An arbitrary protocol drawn from all five families with in-domain
/// parameters.
fn arb_protocol() -> impl Strategy<Value = Box<dyn axiomatic_cc::core::Protocol>> {
    prop_oneof![
        (0.1f64..4.0, 0.1f64..0.95).prop_map(|(a, b)| {
            Box::new(Aimd::new(a, b)) as Box<dyn axiomatic_cc::core::Protocol>
        }),
        (1.001f64..1.5, 0.1f64..0.95).prop_map(|(a, b)| {
            Box::new(Mimd::new(a, b)) as Box<dyn axiomatic_cc::core::Protocol>
        }),
        (0.1f64..2.0, 0.1f64..1.0, 0.0f64..1.5, 0.0f64..1.0).prop_map(|(a, b, k, l)| {
            Box::new(Binomial::new(a, b, k, l)) as Box<dyn axiomatic_cc::core::Protocol>
        }),
        (0.05f64..1.0, 0.1f64..0.95).prop_map(|(c, b)| {
            Box::new(Cubic::new(c, b)) as Box<dyn axiomatic_cc::core::Protocol>
        }),
        (0.1f64..2.0, 0.1f64..0.95, 0.001f64..0.1).prop_map(|(a, b, e)| {
            Box::new(RobustAimd::new(a, b, e)) as Box<dyn axiomatic_cc::core::Protocol>
        }),
    ]
}

/// The fluid engine upholds every trace invariant for arbitrary
/// protocols, links, initial windows and loss seeds.
fn check_fluid_trace_validates(
    proto: &dyn axiomatic_cc::core::Protocol,
    link: LinkParams,
    init: &[f64],
    loss_rate: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut sc = Scenario::new(link)
        .steps(300)
        .wire_loss(LossModel::Bernoulli { rate: loss_rate })
        .seed(seed);
    for &w in init {
        sc = sc.sender(SenderConfig::new(proto.clone_box()).initial_window(w));
    }
    let trace = sc.run();
    prop_assert_eq!(trace.validate(MAX_WINDOW), Ok(()));
    prop_assert_eq!(trace.len(), 300);
    // Link-level RTT equals equation (1) of the paper at every step.
    for (t, &x) in trace.total_window.iter().enumerate() {
        prop_assert!((trace.rtt[t] - link.rtt(x)).abs() < 1e-12);
        prop_assert!((trace.loss[t] - link.loss_rate(x)).abs() < 1e-12);
    }
    Ok(())
}

/// A shrunk failure of [`check_fluid_trace_validates`] kept from an
/// earlier proptest run: two binomial senders starting a hundredfold
/// above the capacity of a bufferless 1-MSS link, under random loss.
#[test]
fn binomial_pair_on_a_bufferless_link_validates() {
    let proto = Binomial::new(
        0.2867697365004449,
        0.8506359846414044,
        1.287567459535312,
        0.10155190047230919,
    );
    let link = LinkParams {
        bandwidth: 100.0,
        prop_delay: 0.005,
        buffer: 0.0,
        timeout_delta: 0.02,
    };
    let init = [117.94268360107723, 93.72110955670432];
    check_fluid_trace_validates(
        &proto,
        link,
        &init,
        0.08435781215720989,
        1417282502634714212,
    )
    .unwrap();
}

fn arb_link() -> impl Strategy<Value = LinkParams> {
    (100.0f64..20_000.0, 0.005f64..0.2, 0.0f64..500.0)
        .prop_map(|(b, theta, tau)| LinkParams::new(b, theta, tau))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// See [`check_fluid_trace_validates`].
    #[test]
    fn fluid_traces_always_validate(
        proto in arb_protocol(),
        link in arb_link(),
        init in proptest::collection::vec(0.0f64..300.0, 1..4),
        loss_rate in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        check_fluid_trace_validates(proto.as_ref(), link, &init, loss_rate, seed)?;
    }

    /// The packet engine conserves packets and respects the buffer bound
    /// for arbitrary protocols and wire-loss rates.
    #[test]
    fn packet_engine_conserves_and_bounds_queue(
        proto in arb_protocol(),
        wire in 0.0f64..0.2,
        n in 1usize..4,
        seed in any::<u64>(),
    ) {
        let link = LinkParams::new(2000.0, 0.02, 50.0);
        let out = PacketScenario::new(link)
            .homogeneous(proto.as_ref(), n)
            .duration_secs(4.0)
            .wire_loss(LossModel::Bernoulli { rate: wire })
            .seed(seed)
            .run();
        prop_assert!(out.conservation_ok());
        prop_assert!(out.queue.max_depth <= 50);
        prop_assert_eq!(out.trace.validate(MAX_WINDOW), Ok(()));
        // Accounting consistency: queue drops + wire losses = total losses
        // reported to flows, up to notifications still in flight at the
        // end of the run.
        let reported: u64 = out.flows.iter().map(|f| f.lost).sum();
        prop_assert!(reported <= out.queue.dropped + out.queue.wire_lost);
    }

    /// Gilbert–Elliott wire loss realizes its stationary rate: over a
    /// long run on a congestion-free link, the observed mean loss equals
    /// `π_bad · loss_bad + (1 − π_bad) · loss_good` with
    /// `π_bad = p_enter / (p_enter + p_exit)` — the two-state chain's
    /// stationary distribution — within sampling tolerance.
    #[test]
    fn gilbert_elliott_matches_its_stationary_rate(
        p_enter in 0.01f64..0.1,
        p_exit in 0.1f64..0.9,
        loss_bad in 0.1f64..0.5,
        seed in any::<u64>(),
    ) {
        let steps = 12_000;
        // Effectively infinite link: all observed loss is the wire's.
        let link = LinkParams::new(MAX_WINDOW * 100.0, 0.05, MAX_WINDOW);
        let trace = Scenario::new(link)
            .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(10.0))
            .wire_loss(LossModel::GilbertElliott {
                p_enter,
                p_exit,
                loss_good: 0.0,
                loss_bad,
            })
            .steps(steps)
            .seed(seed)
            .run();
        let pi_bad = p_enter / (p_enter + p_exit);
        let expected = pi_bad * loss_bad;
        let observed: f64 =
            trace.senders[0].loss.iter().sum::<f64>() / trace.len() as f64;
        // Bursts correlate adjacent samples, so the sample mean is noisy:
        // allow 50% relative error plus a small absolute floor.
        let tol = 0.5 * expected + 0.003;
        prop_assert!(
            (observed - expected).abs() < tol,
            "observed {observed}, stationary {expected} (π_bad = {pi_bad})"
        );
    }

    /// Pareto dominance is irreflexive and anti-symmetric for arbitrary
    /// score tuples.
    #[test]
    fn dominance_is_a_strict_partial_order(
        a in arb_scores(),
        b in arb_scores(),
    ) {
        prop_assert!(!a.dominates(&a));
        prop_assert!(!(a.dominates(&b) && b.dominates(&a)));
    }

    /// Staggered entry never breaks validation, and inactive senders are
    /// recorded as zero-window.
    #[test]
    fn staggered_entry_invariants(
        start in 0u64..250,
        init in 1.0f64..200.0,
    ) {
        let link = LinkParams::new(1000.0, 0.05, 20.0);
        let trace = Scenario::new(link)
            .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(10.0))
            .sender(
                SenderConfig::new(Box::new(Aimd::reno()))
                    .initial_window(init)
                    .start_at(start),
            )
            .steps(300)
            .run();
        prop_assert_eq!(trace.validate(MAX_WINDOW), Ok(()));
        for t in 0..(start as usize).min(300) {
            prop_assert_eq!(trace.senders[1].window[t], 0.0);
            prop_assert_eq!(trace.senders[1].goodput[t], 0.0);
        }
    }
}

fn arb_scores() -> impl Strategy<Value = AxiomScores> {
    (
        0.0f64..1.0,
        0.0f64..5.0,
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..0.2,
        0.0f64..3.0,
        prop_oneof![Just(f64::INFINITY), 0.0f64..2.0],
    )
        .prop_map(
            |(eff, fast, loss, fair, conv, rob, friendly, lat)| AxiomScores {
                efficiency: eff,
                fast_utilization: fast,
                loss_bound: loss,
                fairness: fair,
                convergence: conv,
                robustness: rob,
                tcp_friendliness: friendly,
                latency_inflation: lat,
            },
        )
}
