//! Hostile-input fuzz for the fluid engine.
//!
//! Each case is a valid scenario with extreme parameters — one link or up
//! to four, bandwidths from a micro-packet per second to a terabit,
//! propagation delays from a nanosecond to hours, windows up to
//! `MAX_WINDOW`, start and stop steps before, at and past the horizon,
//! every wire-loss model, both feedback modes and bandwidth schedules —
//! with, about half the time, one invalid setting injected: no senders,
//! a bad window, a stop not after the start, an empty, out-of-range or
//! repeated-link path, a hand-built link with a bad field, a bad loss
//! model, window cap or bandwidth, or a bandwidth schedule on a
//! multi-link topology.
//!
//! A case with a fault must be refused with the typed `ScenarioError`
//! that names it. A clean case must run to completion with a trace that
//! satisfies `RunTrace::validate`, or stop with a typed numerical
//! divergence. Nothing may panic: this file runs under the test profile,
//! so the engine's debug assertions (including its own `validate` of
//! every recorded trace) are on.
//!
//! Runs are at most [`MAX_STEPS`] steps of at most four senders, which
//! keeps the thousand cases well under two seconds.

#![allow(clippy::unwrap_used)] // a misspelled protocol name should abort loudly

use axcc_core::protocol::MAX_WINDOW;
use axcc_core::{LinkParams, ScenarioError};
use axcc_fluidsim::{FeedbackMode, LossModel, Scenario, SenderConfig, Topology};
use axcc_protocols::registry::resolve;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Cases run per test invocation.
const CASES: usize = 1000;

/// Longest run.
const MAX_STEPS: u64 = 48;

const PROTOCOLS: [&str; 11] = [
    "reno",
    "cubic",
    "scalable",
    "robust-aimd",
    "pcc",
    "vegas",
    "bbr",
    "tfrc",
    "highspeed",
    "aimd(2,0.7)",
    "bin(1,0.5,1,0)",
];

/// Log-uniform over `[lo, hi]`.
fn log_uniform(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    (lo.ln()..=hi.ln()).prop_map(f64::exp)
}

/// Half the time ordinary, half the time extreme.
fn log_mixture(extreme: (f64, f64), ordinary: (f64, f64)) -> impl Strategy<Value = f64> {
    (
        any::<bool>(),
        log_uniform(extreme.0, extreme.1),
        log_uniform(ordinary.0, ordinary.1),
    )
        .prop_map(|(wild, far, near)| if wild { far } else { near })
}

fn arb_link() -> impl Strategy<Value = LinkParams> {
    (
        log_mixture((1e-6, 1e12), (100.0, 1e5)),
        log_mixture((1e-9, 1e4), (1e-3, 0.5)),
        (0u8..4, log_uniform(1e-6, 1e12)),
    )
        .prop_map(|(bandwidth, delay, (kind, buffer))| {
            LinkParams::new(bandwidth, delay, if kind == 0 { 0.0 } else { buffer })
        })
}

/// A valid window: ordinary, zero, one, or `MAX_WINDOW`.
fn arb_window() -> impl Strategy<Value = f64> {
    (0u8..8, log_uniform(1e-6, MAX_WINDOW)).prop_map(|(kind, w)| match kind {
        0 => 0.0,
        1 => 1.0,
        2 => MAX_WINDOW,
        _ => w,
    })
}

/// A step relative to the horizon `steps`: at 0, just before, at or past
/// it, `u64::MAX`, or anywhere inside.
fn step_at(kind: u8, inside: u64, steps: u64) -> u64 {
    match kind {
        0 => 0,
        1 => steps.saturating_sub(1),
        2 => steps,
        3 => steps + 3,
        4 => u64::MAX,
        _ => inside % steps.max(1),
    }
}

#[derive(Debug, Clone)]
struct Sender {
    protocol: &'static str,
    initial_window: f64,
    start: u64,
    stop: Option<u64>,
    /// `None` keeps the default path `[0]`.
    path: Option<Vec<usize>>,
}

fn arb_sender(steps: u64, links: usize) -> impl Strategy<Value = Sender> {
    (
        0usize..PROTOCOLS.len(),
        arb_window(),
        (0u8..8, any::<u64>()),
        (0u8..4, any::<u64>()),
        (0u8..4, any::<u64>()),
    )
        .prop_map(
            move |(p, initial_window, (start_kind, s), (stop_kind, e), (path_kind, pick))| {
                let start = step_at(start_kind, s, steps);
                // A stop after the start: the next step, inside the run,
                // or past the horizon (none when the start is u64::MAX).
                let stop = match stop_kind {
                    0 | 1 => None,
                    2 => Some(start.saturating_add(1)),
                    _ => Some(start.saturating_add(1 + e % (steps + 2))),
                };
                let first = (pick as usize) % links;
                let path = match path_kind {
                    0 => None,
                    1 => Some((0..links).collect()),
                    2 => Some((first..links).rev().collect()),
                    _ => Some(vec![first]),
                };
                Sender {
                    protocol: PROTOCOLS[p],
                    initial_window,
                    start,
                    stop: stop.filter(|&t| t > start),
                    path,
                }
            },
        )
}

fn arb_loss() -> impl Strategy<Value = LossModel> {
    (0u8..4, 0.0f64..0.99, 1.0f64..50.0, 0.0f64..0.99).prop_map(|(kind, rate, burst, bad)| {
        match kind {
            0 => LossModel::None,
            1 => LossModel::Constant { rate },
            2 => LossModel::Bernoulli { rate },
            _ => LossModel::bursty(0.5 * rate * bad, burst, bad),
        }
    })
}

/// One invalid setting injected into an otherwise valid case.
#[derive(Debug, Clone, Copy)]
enum Fault {
    NoSenders,
    InitialWindow(f64),
    StopAtStart,
    EmptyPath,
    OutOfRangePath,
    RepeatedLink,
    /// Link 0 with one field out of its domain (`LinkParams::new` would
    /// assert, but the fields are public).
    Link(LinkParams),
    LossModel(LossModel),
    MaxWindow(f64),
    Bandwidth(f64),
    /// A valid bandwidth schedule: a fault only on a multi-link topology.
    Schedule,
}

fn arb_fault() -> impl Strategy<Value = Option<Fault>> {
    (0u8..22, 0u8..3).prop_map(|(kind, v)| {
        let bad = [f64::NAN, f64::INFINITY, -1.0][usize::from(v)];
        let mut link = LinkParams::reference();
        match kind {
            0 => Some(Fault::NoSenders),
            1 => Some(Fault::InitialWindow(bad)),
            2 => Some(Fault::StopAtStart),
            3 => Some(Fault::EmptyPath),
            4 => Some(Fault::OutOfRangePath),
            5 => Some(Fault::RepeatedLink),
            6 => Some(Fault::LossModel(if v == 0 {
                LossModel::Bernoulli { rate: 1.5 }
            } else {
                LossModel::GilbertElliott {
                    p_enter: 0.1,
                    p_exit: 0.0,
                    loss_good: 0.0,
                    loss_bad: 0.5,
                }
            })),
            7 => Some(Fault::MaxWindow(if v == 2 { 0.0 } else { bad })),
            8 => Some(Fault::Bandwidth(if v == 2 { 0.0 } else { bad })),
            9 => Some(Fault::Schedule),
            10 => {
                match v {
                    0 => link.bandwidth = bad,
                    1 => link.prop_delay = bad,
                    _ => link.buffer = bad,
                }
                Some(Fault::Link(link))
            }
            11 => {
                // Shorter than the 2Θ floor, or not finite.
                link.timeout_delta = [0.01, f64::INFINITY, f64::NAN][usize::from(v)];
                Some(Fault::Link(link))
            }
            _ => None,
        }
    })
}

#[derive(Debug, Clone)]
struct Case {
    links: Vec<LinkParams>,
    steps: u64,
    senders: Vec<Sender>,
    loss: LossModel,
    per_packet: bool,
    /// Bandwidth schedule, used on one link only.
    changes: Vec<(u64, f64)>,
    max_window: f64,
    seed: u64,
    fault: Option<Fault>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        prop_oneof![Just(1usize), 1usize..5],
        prop_oneof![Just(1u64), 1u64..=MAX_STEPS],
    )
        .prop_flat_map(|(nl, steps)| {
            (
                proptest::collection::vec(arb_link(), nl),
                proptest::collection::vec(arb_sender(steps, nl), 1..5),
                (arb_loss(), any::<bool>()),
                proptest::collection::vec(
                    (
                        (0u8..8, any::<u64>()).prop_map(move |(k, s)| step_at(k, s, steps)),
                        log_mixture((1e-9, 1e12), (10.0, 1e5)),
                    ),
                    0..3,
                ),
                (0u8..4, log_uniform(1e-3, MAX_WINDOW)).prop_map(|(k, m)| {
                    if k == 0 {
                        m
                    } else {
                        MAX_WINDOW
                    }
                }),
                any::<u64>(),
                arb_fault(),
            )
                .prop_map(
                    move |(
                        links,
                        senders,
                        (loss, per_packet),
                        changes,
                        max_window,
                        seed,
                        fault,
                    )| Case {
                        changes: if nl == 1 { changes } else { Vec::new() },
                        links,
                        steps,
                        senders,
                        loss,
                        per_packet,
                        max_window,
                        seed,
                        fault,
                    },
                )
        })
}

/// The case's scenario, with its fault injected.
fn build(case: &Case) -> Scenario {
    let nl = case.links.len();
    let mut loss = case.loss;
    let mut max_window = case.max_window;
    let mut changes = case.changes.clone();
    match case.fault {
        Some(Fault::LossModel(bad)) => loss = bad,
        Some(Fault::MaxWindow(bad)) => max_window = bad,
        Some(Fault::Bandwidth(bad)) => changes.push((case.steps / 2, bad)),
        Some(Fault::Schedule) => changes.push((case.steps / 2, 500.0)),
        _ => {}
    }
    let mut links = case.links.clone();
    if let Some(Fault::Link(bad)) = case.fault {
        links[0] = bad;
    }
    let mut sc = Scenario::on(Topology::new(links))
        .steps(case.steps as usize)
        .wire_loss(loss)
        .max_window(max_window)
        .seed(case.seed);
    if case.per_packet {
        sc = sc.feedback(FeedbackMode::PerPacket);
    }
    for &(at, bw) in &changes {
        sc = sc.bandwidth_change(at, bw);
    }
    if matches!(case.fault, Some(Fault::NoSenders)) {
        return sc;
    }
    // Sender-level faults hit the last sender.
    let last = case.senders.len() - 1;
    for (i, s) in case.senders.iter().enumerate() {
        let mut cfg = SenderConfig::new(resolve(s.protocol).unwrap())
            .initial_window(s.initial_window)
            .start_at(s.start);
        if let Some(stop) = s.stop {
            cfg = cfg.stop_at(stop);
        }
        if let Some(path) = &s.path {
            cfg = cfg.path(path.clone());
        }
        if i == last {
            cfg = match case.fault {
                Some(Fault::InitialWindow(bad)) => cfg.initial_window(bad),
                Some(Fault::StopAtStart) => cfg.stop_at(s.start),
                Some(Fault::EmptyPath) => cfg.path(Vec::new()),
                Some(Fault::OutOfRangePath) => cfg.path(vec![nl]),
                Some(Fault::RepeatedLink) => cfg.path(vec![nl - 1, 0, nl - 1]),
                _ => cfg,
            };
        }
        sc = sc.sender(cfg);
    }
    sc
}

/// Whether `err` is the refusal the case's fault must produce.
fn refuses(case: &Case, err: &ScenarioError) -> bool {
    let last = case.senders.len() - 1;
    match (case.fault, err) {
        (Some(Fault::NoSenders), ScenarioError::NoSenders) => true,
        (Some(Fault::InitialWindow(_)), ScenarioError::InvalidSender { index, field, .. }) => {
            *index == last && *field == "initial_window"
        }
        (Some(Fault::StopAtStart), ScenarioError::InvalidSender { index, field, .. }) => {
            *index == last && *field == "stop_tick"
        }
        (
            Some(Fault::EmptyPath | Fault::OutOfRangePath | Fault::RepeatedLink),
            ScenarioError::InvalidSender { index, field, .. },
        ) => *index == last && *field == "path",
        (Some(Fault::Link(_)), ScenarioError::InvalidParameter { field, .. }) => {
            field.starts_with("link.")
        }
        (Some(Fault::LossModel(_)), ScenarioError::InvalidLossModel(_)) => true,
        (Some(Fault::MaxWindow(_)), ScenarioError::InvalidParameter { field, .. }) => {
            *field == "max_window"
        }
        (Some(Fault::Bandwidth(_)), ScenarioError::InvalidParameter { field, .. }) => {
            *field == "bandwidth_change"
        }
        (Some(Fault::Schedule), ScenarioError::ConflictingOptions { first, second }) => {
            *first == "bandwidth_change" && *second == "multi-link topology"
        }
        _ => false,
    }
}

/// Every faulty case is refused with the error naming its fault; every
/// clean case runs to a valid trace of the requested shape or stops with
/// a typed numerical divergence. At least a third of the cases (and a
/// tenth on multi-link topologies) must run, so the fuzz reaches the step
/// loop rather than only the validator.
#[test]
fn hostile_scenarios_are_refused_or_run_valid() {
    let mut rng = TestRng::from_name("hostile_scenarios_are_refused_or_run_valid");
    let cases = arb_case();
    let (mut ran, mut multi_link_ran) = (0, 0);
    for k in 0..CASES {
        let case = cases.generate(&mut rng);
        // Shown only if the case fails: the last line names it.
        println!("case {k}: {case:?}");
        // A schedule is valid on one link.
        let faulty = match case.fault {
            Some(Fault::Schedule) => case.links.len() > 1,
            fault => fault.is_some(),
        };
        match build(&case).try_run() {
            Ok(trace) => {
                assert!(!faulty, "accepted a faulty scenario");
                assert_eq!(trace.validate(case.max_window), Ok(()));
                assert_eq!(trace.len() as u64, case.steps);
                assert_eq!(trace.num_senders(), case.senders.len());
                ran += 1;
                if case.links.len() > 1 {
                    multi_link_ran += 1;
                }
            }
            Err(e) if faulty => assert!(refuses(&case, &e), "wrong refusal: {e}"),
            Err(e) => assert!(
                matches!(e, ScenarioError::NumericalDivergence { .. }),
                "refused a clean scenario: {e}"
            ),
        }
    }
    println!("ran {ran} of {CASES}, {multi_link_ran} multi-link");
    assert!(ran >= CASES / 3, "only {ran} of {CASES} cases ran");
    assert!(
        multi_link_ran >= CASES / 10,
        "only {multi_link_ran} multi-link cases ran"
    );
}
