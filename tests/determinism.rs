//! End-to-end determinism: the entire stack — protocols, both simulation
//! engines, loss injection, estimators — must be a pure function of
//! (scenario, seed). This is what makes every number in EXPERIMENTS.md
//! reproducible by `cargo run`.

use axiomatic_cc::core::units::Bandwidth;
use axiomatic_cc::core::LinkParams;
use axiomatic_cc::fluidsim::{LossModel, Scenario, SenderConfig};
use axiomatic_cc::packetsim::{PacketScenario, PacketSenderConfig};
use axiomatic_cc::protocols::registry::resolve;

const LINEUP: [&str; 7] = [
    "reno",
    "cubic",
    "scalable",
    "robust-aimd",
    "pcc",
    "vegas",
    "bin(1,0.5,1,0)",
];

#[test]
fn fluid_runs_are_bit_identical_per_seed() {
    for name in LINEUP {
        let run = |seed: u64| {
            let link = LinkParams::new(1000.0, 0.05, 20.0);
            Scenario::new(link)
                .sender(SenderConfig::new(resolve(name).unwrap()).initial_window(2.0))
                .sender(SenderConfig::new(resolve(name).unwrap()).initial_window(50.0))
                .wire_loss(LossModel::Bernoulli { rate: 0.01 })
                .seed(seed)
                .steps(600)
                .run()
        };
        assert_eq!(run(42), run(42), "{name} diverged under same seed");
        assert_ne!(
            run(42).senders[0].window,
            run(43).senders[0].window,
            "{name} ignored the seed"
        );
    }
}

#[test]
fn packet_runs_are_bit_identical_per_seed() {
    for name in ["reno", "cubic", "scalable", "robust-aimd", "pcc"] {
        let run = |seed: u64| {
            let link = LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0);
            let out = PacketScenario::new(link)
                .sender(PacketSenderConfig::new(resolve(name).unwrap()))
                .sender(PacketSenderConfig::new(resolve(name).unwrap()).start_at_secs(1.0))
                .duration_secs(8.0)
                .wire_loss(LossModel::Bernoulli { rate: 0.01 })
                .seed(seed)
                .run();
            (out.trace, out.flows, out.queue)
        };
        let (t1, f1, q1) = run(7);
        let (t2, f2, q2) = run(7);
        assert_eq!(t1, t2, "{name} trace diverged");
        assert_eq!(f1, f2, "{name} flow stats diverged");
        assert_eq!(q1, q2, "{name} queue stats diverged");
    }
}

#[test]
fn fluid_gilbert_elliott_runs_are_bit_identical_per_seed() {
    for name in LINEUP {
        let run = |seed: u64| {
            let link = LinkParams::new(1000.0, 0.05, 20.0);
            Scenario::new(link)
                .sender(SenderConfig::new(resolve(name).unwrap()).initial_window(2.0))
                .sender(SenderConfig::new(resolve(name).unwrap()).initial_window(50.0))
                .wire_loss(LossModel::bursty(0.01, 8.0, 0.25))
                .seed(seed)
                .steps(600)
                .run()
        };
        assert_eq!(run(42), run(42), "{name} diverged under same seed");
        assert_ne!(
            run(42).senders[0].window,
            run(43).senders[0].window,
            "{name} ignored the seed"
        );
    }
}

#[test]
fn packet_runs_under_every_impairment_are_bit_identical_per_seed() {
    use axiomatic_cc::packetsim::RedConfig;
    // Every random process the packet engine draws from: each wire-loss
    // model on the data path, RED's early drops, and both at once.
    let red = Some(RedConfig::classic(100.0));
    let cases: Vec<(&str, LossModel, Option<RedConfig>)> = vec![
        ("bernoulli loss", LossModel::Bernoulli { rate: 0.02 }, None),
        ("bursty loss", LossModel::bursty(0.02, 6.0, 0.3), None),
        (
            "lossy good state",
            LossModel::GilbertElliott {
                p_enter: 0.01,
                p_exit: 0.2,
                loss_good: 0.005,
                loss_bad: 0.3,
            },
            None,
        ),
        ("RED early drops", LossModel::None, red),
        ("everything at once", LossModel::bursty(0.02, 6.0, 0.3), red),
    ];
    for (label, model, red) in cases {
        let run = |seed: u64| {
            let link = LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0);
            let mut sc = PacketScenario::new(link)
                .sender(PacketSenderConfig::new(resolve("reno").unwrap()))
                .sender(PacketSenderConfig::new(resolve("cubic").unwrap()).start_at_secs(0.5))
                .duration_secs(6.0)
                .wire_loss(model)
                .seed(seed);
            if let Some(red) = red {
                sc = sc.red(red);
            }
            let out = sc.run();
            (out.trace, out.flows, out.queue)
        };
        let (t1, f1, q1) = run(9);
        let (t2, f2, q2) = run(9);
        assert_eq!(t1, t2, "{label}: trace diverged under same seed");
        assert_eq!(f1, f2, "{label}: flow stats diverged under same seed");
        assert_eq!(q1, q2, "{label}: queue stats diverged under same seed");
        let (t3, _, _) = run(10);
        assert_ne!(t1, t3, "{label}: ignored the seed");
    }
}

#[test]
fn churn_family_jobs_are_bit_identical_parallel_vs_serial() {
    // The churn experiment fans dynamic-population cells out through the
    // sweep runner; worker count must never leak into the report. Run the
    // whole family serially and with 8 workers (cacheless, so every job
    // really executes both times) and demand exact bit equality on every
    // settle/fairness/utilization number.
    use axiomatic_cc::analysis::experiments::churn::{run_churn_with, ChurnReport};
    use axiomatic_cc::sweep::SweepRunner;
    fn bits(rep: &ChurnReport) -> Vec<(String, Vec<u64>)> {
        rep.rows
            .iter()
            .map(|r| {
                let mut b: Vec<u64> = r
                    .cells
                    .iter()
                    .flat_map(|c| {
                        [
                            c.settle.to_bits(),
                            c.fairness.to_bits(),
                            c.utilization.to_bits(),
                        ]
                    })
                    .collect();
                b.push(r.packet_utilization.to_bits());
                (r.protocol.clone(), b)
            })
            .collect()
    }
    let serial = run_churn_with(&SweepRunner::serial(), 400, 4.0);
    let parallel = run_churn_with(&SweepRunner::without_cache(8), 400, 4.0);
    assert_eq!(
        bits(&serial),
        bits(&parallel),
        "churn family diverged between serial and parallel runners"
    );
}

#[test]
fn deterministic_scenarios_ignore_seed_entirely() {
    // Without wire loss there is no randomness at all: seeds must not
    // matter.
    let run = |seed: u64| {
        let link = LinkParams::new(1000.0, 0.05, 20.0);
        Scenario::new(link)
            .sender(SenderConfig::new(resolve("reno").unwrap()).initial_window(1.0))
            .seed(seed)
            .steps(400)
            .run()
            .senders[0]
            .window
            .clone()
    };
    assert_eq!(run(1), run(2));
}

#[test]
fn protocol_reset_restores_initial_behaviour() {
    use axiomatic_cc::core::Observation;
    for name in LINEUP {
        let mut p = resolve(name).unwrap();
        let feed = |p: &mut Box<dyn axiomatic_cc::core::Protocol>| -> Vec<f64> {
            let mut w = 10.0;
            let mut out = Vec::new();
            for t in 0..80 {
                let loss = if t % 11 == 10 { 0.05 } else { 0.0 };
                let rtt = 0.1 + (t % 7) as f64 * 0.01;
                w = p.next_window(&Observation {
                    tick: t,
                    window: w,
                    loss_rate: loss,
                    rtt,
                    min_rtt: 0.1,
                });
                out.push(w);
            }
            out
        };
        let first = feed(&mut p);
        p.reset();
        let second = feed(&mut p);
        assert_eq!(first, second, "{name} reset is lossy");
    }
}
