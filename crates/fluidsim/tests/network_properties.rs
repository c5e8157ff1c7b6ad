//! Multi-link runs through `Scenario::on`: the parking-lot behaviours the
//! network model exists to show, and property tests that the composition
//! laws hold on arbitrary topologies and that a one-link topology is the
//! paper's model bit for bit.

#![allow(clippy::unwrap_used)] // a refused scenario should abort the test loudly
#![allow(clippy::float_cmp)] // exact comparisons are deliberate in tests

use axcc_core::protocol::MAX_WINDOW;
use axcc_core::{LinkParams, Protocol, RunTrace, ScenarioError};
use axcc_fluidsim::{ChurnPlan, Scenario, SenderConfig, Topology};
use axcc_protocols::registry::resolve;
use axcc_protocols::{Aimd, Vegas};
use proptest::prelude::*;

/// C = 100 MSS per hop.
fn hop() -> LinkParams {
    LinkParams::new(1000.0, 0.05, 20.0)
}

/// Run `topology` with one sender per `(protocol, path)`.
fn run(topology: &Topology, flows: &[(&dyn Protocol, Vec<usize>)], steps: usize) -> RunTrace {
    let mut sc = Scenario::on(topology.clone()).steps(steps);
    for (proto, path) in flows {
        sc = sc.sender(SenderConfig::new(proto.clone_box()).path(path.clone()));
    }
    sc.try_run().unwrap()
}

/// A link's mean utilization (`X_l / C_l`) over the tail.
fn utilization(load: &[f64], capacity: f64, tail: usize) -> f64 {
    let tail = &load[tail..];
    tail.iter().sum::<f64>() / (tail.len() as f64 * capacity)
}

fn paths(flows: &[(&dyn Protocol, Vec<usize>)]) -> Vec<Vec<usize>> {
    flows.iter().map(|(_, p)| p.clone()).collect()
}

/// The classic parking lot: long flow over links {0,1}, one short flow
/// on each link.
fn parking_lot_2() -> (Topology, Vec<Vec<usize>>, RunTrace) {
    let reno = Aimd::reno();
    let flows: [(&dyn Protocol, Vec<usize>); 3] =
        [(&reno, vec![0, 1]), (&reno, vec![0]), (&reno, vec![1])];
    let topology = Topology::parking_lot(2, hop());
    let trace = run(&topology, &flows, 4000);
    (topology, paths(&flows), trace)
}

fn tail_goodput(trace: &RunTrace, f: usize) -> f64 {
    trace.senders[f].mean_goodput_from(trace.tail_start(0.5))
}

#[test]
fn parking_lot_penalizes_the_long_flow() {
    let (_, _, trace) = parking_lot_2();
    let long = tail_goodput(&trace, 0);
    let short0 = tail_goodput(&trace, 1);
    let short1 = tail_goodput(&trace, 2);
    // The long flow crosses two bottlenecks (double loss exposure,
    // double RTT): it gets clearly less than either short flow.
    assert!(long < 0.7 * short0, "long {long} vs short {short0}");
    assert!(long < 0.7 * short1, "long {long} vs short {short1}");
    // But it is not starved (AIMD's additive probe keeps it alive).
    assert!(long > 0.05 * short0, "long {long} vs short {short0}");
}

#[test]
fn parking_lot_links_stay_utilized() {
    let (topology, paths, trace) = parking_lot_2();
    let tail = trace.tail_start(0.5);
    for (l, load) in topology.link_loads(&paths, &trace).iter().enumerate() {
        let u = utilization(load, hop().capacity(), tail);
        assert!(u > 0.8, "link {l} utilization {u}");
    }
}

#[test]
fn rtt_unfairness_between_path_lengths() {
    // Two AIMD flows into link 1; one also crosses link 0 (longer base
    // RTT, same single shared bottleneck since link 0 is otherwise
    // empty). Same per-step additive increase in the step-synchronized
    // model means the *loss* and *latency* exposure differ, not the
    // increase rate — the long path still ends up with at most the short
    // flow's share.
    let reno = Aimd::reno();
    let trace = run(
        &Topology::parking_lot(2, hop()),
        &[(&reno, vec![0, 1]), (&reno, vec![1])],
        4000,
    );
    let long = tail_goodput(&trace, 0);
    let short = tail_goodput(&trace, 1);
    assert!(long <= short * 1.05, "long {long} vs short {short}");
}

#[test]
fn flow_loss_composes_across_links() {
    let (topology, paths, trace) = parking_lot_2();
    let loads = topology.link_loads(&paths, &trace);
    // At every step the long flow's loss is exactly the composition of
    // its links' losses.
    for (t, (&x0, &x1)) in loads[0].iter().zip(&loads[1]).enumerate() {
        let l0 = hop().loss_rate(x0);
        let l1 = hop().loss_rate(x1);
        let expect = (1.0 - (1.0 - l0) * (1.0 - l1)).min(1.0 - f64::EPSILON);
        assert_eq!(
            trace.senders[0].loss[t].to_bits(),
            expect.to_bits(),
            "t={t}"
        );
    }
}

#[test]
fn base_rtt_sums_over_path() {
    let (_, _, trace) = parking_lot_2();
    let min = |f: usize| {
        trace
            .sender_rtt(f)
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    };
    // Min RTT of the long flow is 2×(2Θ) = 0.2 s; short flows 0.1 s.
    assert!((min(0) - 0.2).abs() < 1e-9, "{}", min(0));
    assert!((min(1) - 0.1).abs() < 1e-9, "{}", min(1));
}

#[test]
fn vegas_in_a_network_keeps_queues_short() {
    let vegas = Vegas::classic();
    let flows: [(&dyn Protocol, Vec<usize>); 3] =
        [(&vegas, vec![0, 1]), (&vegas, vec![0]), (&vegas, vec![1])];
    let topology = Topology::parking_lot(2, hop());
    let trace = run(&topology, &flows, 3000);
    let tail = trace.tail_start(0.5);
    for (l, load) in topology
        .link_loads(&paths(&flows), &trace)
        .iter()
        .enumerate()
    {
        // No loss anywhere in the tail…
        assert!(load[tail..].iter().all(|&x| hop().loss_rate(x) == 0.0));
        // …and both links near (not over) capacity.
        let u = utilization(load, hop().capacity(), tail);
        assert!(u > 0.85 && u < 1.1, "link {l} utilization {u}");
    }
}

#[test]
fn churned_flows_are_idle_outside_their_intervals() {
    let plan = ChurnPlan::poisson(0.01, 150.0).seed(4);
    let ivs = plan.expand(2000);
    assert!(!ivs.is_empty(), "plan expands to at least one arrival");
    let trace = Scenario::on(Topology::parking_lot(2, hop()))
        .steps(2000)
        .sender(SenderConfig::new(Box::new(Aimd::reno())).path(vec![0, 1]))
        .churn_on(&plan, &Aimd::reno(), vec![0, 1])
        .unwrap()
        .try_run()
        .unwrap();
    assert_eq!(trace.num_senders(), 1 + ivs.len());
    for (k, iv) in ivs.iter().enumerate() {
        let s = &trace.senders[1 + k];
        for t in 0..2000 {
            let w = s.window[t];
            if (t as u64) < iv.start || (t as u64) >= iv.stop {
                assert_eq!(w, 0.0, "flow {} idle at step {t}", 1 + k);
                assert_eq!(s.goodput[t], 0.0, "flow {} step {t}", 1 + k);
            } else if t as u64 == iv.start {
                // Admitted with a 1-MSS window at its arrival step.
                assert_eq!(w, 1.0, "flow {} arrival step {t}", 1 + k);
            }
        }
    }
}

#[test]
fn churned_network_runs_are_deterministic() {
    let build = || {
        let plan = ChurnPlan::poisson(0.008, 200.0).seed(11);
        Scenario::on(Topology::parking_lot(3, hop()))
            .steps(1500)
            .sender(SenderConfig::new(Box::new(Aimd::reno())).path(vec![0, 1, 2]))
            .churn_on(&plan, &Aimd::reno(), vec![1])
            .unwrap()
            .try_run()
            .unwrap()
    };
    assert_eq!(build(), build());
}

#[test]
fn link_load_counts_only_active_flows() {
    // One permanent long flow plus a short flow on hop 0 that departs
    // midway: afterwards the long flow's RTT is what its own window alone
    // queues at each hop.
    let trace = Scenario::on(Topology::parking_lot(2, hop()))
        .steps(1000)
        .sender(SenderConfig::new(Box::new(Aimd::reno())).path(vec![0, 1]))
        .sender(
            SenderConfig::new(Box::new(Aimd::reno()))
                .path(vec![0])
                .stop_at(500),
        )
        .try_run()
        .unwrap();
    let queueing = |x: f64| hop().rtt(x) - hop().min_rtt();
    for t in 500..1000 {
        let w = trace.senders[0].window[t];
        let expect = (hop().min_rtt() + hop().min_rtt()) + (queueing(w) + queueing(w));
        assert_eq!(trace.sender_rtt(0)[t].to_bits(), expect.to_bits(), "t={t}");
    }
    // Before the departure the short flow queues at hop 0 as well.
    let w = trace.senders[0].window[300] + trace.senders[1].window[300];
    assert!(hop().rtt(w) > hop().rtt(trace.senders[0].window[300]));
}

#[test]
fn out_of_range_path_rejected() {
    let err = Scenario::on(Topology::parking_lot(2, hop()))
        .sender(SenderConfig::new(Box::new(Aimd::reno())).path(vec![2]))
        .try_run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::InvalidSender {
                index: 0,
                field: "path",
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn empty_scenario_rejected() {
    let err = Scenario::on(Topology::parking_lot(2, hop()))
        .try_run()
        .unwrap_err();
    assert_eq!(err, ScenarioError::NoSenders);
}

#[test]
fn multi_hop_loss_stays_below_one() {
    // A 10⁹ window over three hops: each link drops 0.99999988…, and
    // `1 − Π(1 − L_l)` rounds to exactly 1.0 unless it is clamped.
    let trace = Scenario::on(Topology::parking_lot(3, LinkParams::reference()))
        .sender(
            SenderConfig::new(Box::new(Aimd::reno()))
                .initial_window(1e9)
                .path(vec![0, 1, 2]),
        )
        .steps(3)
        .try_run()
        .unwrap();
    assert_eq!(trace.validate(MAX_WINDOW), Ok(()));
    for t in 0..3 {
        assert_eq!(trace.senders[0].loss[t], 1.0 - f64::EPSILON, "t={t}");
        assert!(trace.senders[0].goodput[t] > 0.0, "t={t}");
    }
}

/// A one-link topology with an explicit `[0]` path is the
/// single-bottleneck scenario, bit for bit, delay-based protocols
/// included.
fn check_single_link_reduction(
    link: LinkParams,
    name: &str,
    init: f64,
) -> Result<(), TestCaseError> {
    let net = Scenario::on(Topology::single(link))
        .sender(
            SenderConfig::new(resolve(name).unwrap())
                .initial_window(init)
                .path(vec![0]),
        )
        .steps(200)
        .run();
    let single = Scenario::new(link)
        .sender(SenderConfig::new(resolve(name).unwrap()).initial_window(init))
        .steps(200)
        .run();
    prop_assert_eq!(net, single);
    Ok(())
}

/// A shrunk failure of [`check_single_link_reduction`] kept from an
/// earlier proptest run: Reno from a 1-MSS window on a shallow-buffered
/// link.
#[test]
fn single_link_reduction_of_reno_on_a_shallow_buffer() {
    let link = LinkParams {
        bandwidth: 1693.5083050413946,
        prop_delay: 0.026777766043161396,
        buffer: 10.858107109705099,
        timeout_delta: 0.11993427510982453,
    };
    check_single_link_reduction(link, "reno", 1.0).unwrap();
}

fn arb_link() -> impl Strategy<Value = LinkParams> {
    (300.0f64..5000.0, 0.01f64..0.1, 0.0f64..200.0)
        .prop_map(|(b, th, tau)| LinkParams::new(b, th, tau))
}

fn arb_protocol_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("reno"),
        Just("cubic"),
        Just("scalable"),
        Just("robust-aimd"),
        Just("vegas"),
        Just("tfrc"),
        Just("aimd(2,0.7)"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// See [`check_single_link_reduction`].
    #[test]
    fn single_link_reduction(
        link in arb_link(),
        name in arb_protocol_name(),
        init in 1.0f64..200.0,
    ) {
        check_single_link_reduction(link, name, init)?;
    }

    /// Composition laws hold at every step of every flow: loss composes
    /// multiplicatively across the path and the RTT is the summed
    /// propagation floor plus the summed queueing delays at the loads
    /// the recorded windows imply.
    #[test]
    fn composition_laws(
        hop in arb_link(),
        hops in 1usize..4,
        name in arb_protocol_name(),
        long_init in 1.0f64..100.0,
    ) {
        let proto = resolve(name).unwrap();
        let mut flows: Vec<(&dyn Protocol, Vec<usize>)> = vec![(proto.as_ref(), (0..hops).collect())];
        for l in 0..hops {
            flows.push((proto.as_ref(), vec![l]));
        }
        let topology = Topology::parking_lot(hops, hop);
        let mut sc = Scenario::on(topology.clone()).steps(150);
        for (k, (p, path)) in flows.iter().enumerate() {
            let w = if k == 0 { long_init } else { 1.0 };
            sc = sc.sender(SenderConfig::new(p.clone_box()).initial_window(w).path(path.clone()));
        }
        let trace = sc.try_run().unwrap();
        prop_assert_eq!(trace.validate(MAX_WINDOW), Ok(()));
        let loads = topology.link_loads(&paths(&flows), &trace);
        for t in 0..trace.len() {
            // Link load = long flow + that hop's short flow.
            for (l, load) in loads.iter().enumerate() {
                let expect = trace.senders[0].window[t] + trace.senders[1 + l].window[t];
                prop_assert!((load[t] - expect).abs() < 1e-9);
            }
            // Long-flow loss composes across its path.
            let composed = 1.0 - loads.iter().map(|x| 1.0 - hop.loss_rate(x[t])).product::<f64>();
            prop_assert!((trace.senders[0].loss[t] - composed).abs() < 1e-12);
            // Long-flow RTT: summed floors plus summed queueing delays.
            let rtt = hops as f64 * hop.min_rtt()
                + loads.iter().map(|x| hop.rtt(x[t]) - hop.min_rtt()).sum::<f64>();
            prop_assert!((trace.sender_rtt(0)[t] - rtt).abs() < 1e-12);
            prop_assert!(trace.sender_rtt(0)[t] >= hops as f64 * hop.min_rtt() - 1e-12);
        }
    }

    /// Multi-link runs are deterministic: identical scenarios give
    /// identical traces.
    #[test]
    fn network_determinism(
        hop in arb_link(),
        name in arb_protocol_name(),
    ) {
        let proto = resolve(name).unwrap();
        let flows: [(&dyn Protocol, Vec<usize>); 2] =
            [(proto.as_ref(), vec![0, 1]), (proto.as_ref(), vec![0])];
        let topology = Topology::parking_lot(2, hop);
        prop_assert_eq!(run(&topology, &flows, 120), run(&topology, &flows, 120));
    }
}
