//! Property tests for the fluid engine: the dynamics of Section 2 hold for
//! arbitrary protocol mixes, links, initial configurations and loss seeds.

// Test-only helper fns sit outside #[test], where the workspace's
// allow-unwrap-in-tests exemption does not reach.
#![allow(clippy::unwrap_used)]

use axcc_core::protocol::MAX_WINDOW;
use axcc_core::LinkParams;
use axcc_fluidsim::{LossModel, Scenario, SenderConfig};
use axcc_protocols::registry::resolve;
use proptest::prelude::*;

/// Without wire loss the engine is a pure function of the scenario —
/// seeds are irrelevant; with wire loss, it is a pure function of
/// (scenario, seed).
fn check_purity(
    link: LinkParams,
    name: &str,
    init: f64,
    s1: u64,
    s2: u64,
) -> Result<(), TestCaseError> {
    let run = |seed: u64, loss: Option<f64>| {
        let mut sc = Scenario::new(link)
            .sender(SenderConfig::new(resolve(name).unwrap()).initial_window(init))
            .steps(150)
            .seed(seed);
        if let Some(r) = loss {
            sc = sc.wire_loss(LossModel::Bernoulli { rate: r });
        }
        sc.run()
    };
    // Same dynamics regardless of seed when there is no randomness
    // (the trace's recorded `seed` metadata naturally differs).
    let a = run(s1, None);
    let b = run(s2, None);
    prop_assert_eq!(&a.senders, &b.senders);
    prop_assert_eq!(&a.total_window, &b.total_window);
    prop_assert_eq!(&a.rtt, &b.rtt);
    prop_assert_eq!(&a.loss, &b.loss);
    prop_assert_eq!(run(s1, Some(0.05)), run(s1, Some(0.05)));
    Ok(())
}

/// A shrunk failure of [`check_purity`] kept from an earlier proptest
/// run: a zero-window Reno sender on a bufferless link.
#[test]
fn purity_of_an_idle_reno_sender_on_a_bufferless_link() {
    let link = LinkParams {
        bandwidth: 200.0,
        prop_delay: 0.005,
        buffer: 0.0,
        timeout_delta: 0.02,
    };
    check_purity(link, "reno", 0.0, 0, 1).unwrap();
}

fn arb_link() -> impl Strategy<Value = LinkParams> {
    (200.0f64..20_000.0, 0.005f64..0.2, 0.0f64..500.0)
        .prop_map(|(b, th, tau)| LinkParams::new(b, th, tau))
}

fn arb_protocol_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("reno"),
        Just("cubic"),
        Just("scalable"),
        Just("scalable-aimd"),
        Just("robust-aimd"),
        Just("pcc"),
        Just("vegas"),
        Just("bin(1,0.5,1,0)"),
        Just("bin(1,0.5,0.5,0.5)"),
        Just("aimd(2,0.7)"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The recorded trace always satisfies equation (1) and the loss
    /// equation exactly, column by column, for heterogeneous mixes.
    #[test]
    fn dynamics_follow_the_model_equations(
        link in arb_link(),
        names in proptest::collection::vec(arb_protocol_name(), 1..5),
        inits in proptest::collection::vec(0.0f64..400.0, 1..5),
        seed in any::<u64>(),
        loss in 0.0f64..0.2,
    ) {
        let mut sc = Scenario::new(link)
            .steps(200)
            .wire_loss(LossModel::Bernoulli { rate: loss })
            .seed(seed);
        let n = names.len().min(inits.len());
        for i in 0..n {
            sc = sc.sender(
                SenderConfig::new(resolve(names[i]).unwrap()).initial_window(inits[i]),
            );
        }
        let trace = sc.run();
        prop_assert_eq!(trace.validate(MAX_WINDOW), Ok(()));
        for t in 0..trace.len() {
            let x = trace.total_window[t];
            prop_assert!((trace.rtt[t] - link.rtt(x)).abs() < 1e-12);
            prop_assert!((trace.loss[t] - link.loss_rate(x)).abs() < 1e-12);
            // Per-sender loss is at least the congestion loss (wire loss
            // only composes upward) and below 1.
            for s in &trace.senders {
                if s.window[t] > 0.0 {
                    prop_assert!(s.loss[t] >= trace.loss[t] - 1e-12);
                    prop_assert!(s.loss[t] < 1.0);
                }
            }
        }
    }

    /// See [`check_purity`].
    #[test]
    fn purity(
        link in arb_link(),
        name in arb_protocol_name(),
        init in 0.0f64..300.0,
        s1 in any::<u64>(),
        s2 in any::<u64>(),
    ) {
        check_purity(link, name, init, s1, s2)?;
    }

    /// Sender order doesn't privilege anyone: permuting two identical
    /// senders yields mirrored traces (symmetry of synchronized feedback).
    #[test]
    fn homogeneous_senders_are_symmetric(
        link in arb_link(),
        name in arb_protocol_name(),
        w1 in 0.0f64..300.0,
        w2 in 0.0f64..300.0,
    ) {
        let run = |a: f64, b: f64| {
            Scenario::new(link)
                .sender(SenderConfig::new(resolve(name).unwrap()).initial_window(a))
                .sender(SenderConfig::new(resolve(name).unwrap()).initial_window(b))
                .steps(150)
                .run()
        };
        let fwd = run(w1, w2);
        let rev = run(w2, w1);
        prop_assert_eq!(&fwd.senders[0].window, &rev.senders[1].window);
        prop_assert_eq!(&fwd.senders[1].window, &rev.senders[0].window);
        prop_assert_eq!(&fwd.total_window, &rev.total_window);
    }

    /// The Constant loss model delivers exactly its rate to every active
    /// sender at every step (composed with congestion loss).
    #[test]
    fn constant_wire_loss_is_exact(
        link in arb_link(),
        rate in 0.001f64..0.3,
        init in 1.0f64..50.0,
    ) {
        let trace = Scenario::new(link)
            .sender(SenderConfig::new(resolve("robust-aimd").unwrap()).initial_window(init))
            .wire_loss(LossModel::Constant { rate })
            .steps(100)
            .run();
        for t in 0..trace.len() {
            let cong = trace.loss[t];
            let expect = 1.0 - (1.0 - cong) * (1.0 - rate);
            prop_assert!((trace.senders[0].loss[t] - expect).abs() < 1e-12);
        }
    }

    /// Churned runs are a pure function of (scenario, plan): for any plan
    /// parameters the expanded arrival pattern — and hence the full trace —
    /// is bit-identical across repeated runs, and the plan seed alone
    /// selects a reproducible arrival schedule.
    #[test]
    fn churned_runs_are_deterministic_per_plan_seed(
        link in arb_link(),
        name in arb_protocol_name(),
        rate in 0.001f64..0.05,
        lifetime in 20.0f64..400.0,
        plan_seed in any::<u64>(),
        cap in 1usize..8,
    ) {
        let run = || {
            let plan = axcc_fluidsim::ChurnPlan::poisson(rate, lifetime)
                .seed(plan_seed)
                .max_concurrent(cap);
            Scenario::new(link)
                .sender(SenderConfig::new(resolve(name).unwrap()).initial_window(2.0))
                .steps(400)
                .churn(&plan, resolve(name).unwrap().as_ref())
                .unwrap()
                .run()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.senders, &b.senders);
        prop_assert_eq!(&a.total_window, &b.total_window);
        prop_assert_eq!(&a.loss, &b.loss);
        prop_assert_eq!(a.validate(MAX_WINDOW), Ok(()));
    }

    /// Max-window clamping binds for every protocol.
    #[test]
    fn max_window_binds(
        name in arb_protocol_name(),
        cap in 5.0f64..50.0,
    ) {
        let link = LinkParams::new(10_000.0, 0.05, 1000.0); // roomy: protocols climb
        let trace = Scenario::new(link)
            .sender(SenderConfig::new(resolve(name).unwrap()).initial_window(1.0))
            .max_window(cap)
            .steps(300)
            .run();
        for &w in &trace.senders[0].window {
            prop_assert!(w <= cap + 1e-12);
        }
    }
}
