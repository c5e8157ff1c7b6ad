//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Robust-AIMD's ε knob** — sweep the loss tolerance and measure the
//!    robustness↔friendliness tradeoff (Theorem 3 made empirical: every
//!    notch of robustness is paid for in TCP-friendliness).
//! 2. **PCC's controller constants** — sweep the base step δ₀ and the
//!    rate-change amplifier and measure friendliness and convergence;
//!    shows the aggressiveness envelope is a controller property, not an
//!    accident of the default constants.
//! 3. **Theorem 2 tightness across the AIMD grid** — measured friendliness
//!    vs the bound 3(1−b)/(a(1+b)): the relative error column should stay
//!    in single-digit percent (the paper calls the bound tight).
//! 4. **Synchronized vs per-packet feedback** — the §6 model extension.
//!
//! The committed output is `results/ablations.txt`:
//!
//! ```sh
//! cargo run --release --example ablations > results/ablations.txt
//! ```

use axiomatic_cc::analysis::estimators::{
    measure_friendliness_fluid, measure_robustness_fluid, measure_solo_fluid, stream_options_for,
    SweepConfig, ROBUSTNESS_RATES,
};
use axiomatic_cc::analysis::report::{fmt_score, TextTable};
use axiomatic_cc::core::theory::theorems::theorem2_friendliness_upper_bound;
use axiomatic_cc::core::units::Bandwidth;
use axiomatic_cc::core::{LinkParams, Protocol};
use axiomatic_cc::fluidsim::{
    run_scenario_streaming, FeedbackMode, MetricSet, Scenario, SenderConfig,
};
use axiomatic_cc::protocols::{Aimd, Cubic, Mimd, Pcc, RobustAimd};
use axiomatic_cc::sweep::SweepRunner;

const STEPS: usize = 3000;

fn link() -> LinkParams {
    LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0)
}

fn main() {
    let runner = SweepRunner::without_cache(0);

    // --- 1. Robust-AIMD ε sweep -------------------------------------------
    let eps_grid = [0.002, 0.005, 0.01, 0.02, 0.05];
    let measured = runner.sweep("ablations/robust-eps", &eps_grid, |&eps| {
        let p = RobustAimd::new(1.0, 0.8, eps);
        let rob = measure_robustness_fluid(&p, &ROBUSTNESS_RATES, STEPS);
        let fr = measure_friendliness_fluid(&p, &Aimd::reno(), link(), 1, 1, STEPS, &[(1.0, 1.0)]);
        (rob, fr)
    });
    let mut t = TextTable::new(["eps", "measured robustness", "friendliness to Reno"]);
    for (eps, (rob, fr)) in eps_grid.iter().zip(&measured) {
        t.row([format!("{eps}"), fmt_score(*rob), fmt_score(*fr)]);
    }
    println!(
        "Ablation 1 — Robust-AIMD(1, 0.8, ε): robustness is paid in friendliness\n\n{}",
        t.render()
    );

    // --- 2. PCC controller constants ---------------------------------------
    let pcc_grid = [
        (0.005, 0.5),
        (0.01, 0.0),
        (0.01, 0.5),
        (0.02, 0.5),
        (0.05, 1.0),
    ];
    let measured = runner.sweep("ablations/pcc-controller", &pcc_grid, |&(step, amp)| {
        let p = Pcc::with_params(step, amp, (step * 8.0).min(0.5), 100.0);
        let fr = measure_friendliness_fluid(&p, &Aimd::reno(), link(), 1, 1, STEPS, &[(1.0, 1.0)]);
        let solo = measure_solo_fluid(&p, &SweepConfig::standard(link(), 2, STEPS));
        (fr, solo.convergence)
    });
    let mut t = TextTable::new([
        "base step",
        "amplifier",
        "friendliness to Reno",
        "convergence",
    ]);
    for ((step, amp), (fr, conv)) in pcc_grid.iter().zip(&measured) {
        t.row([
            format!("{step}"),
            format!("{amp}"),
            fmt_score(*fr),
            fmt_score(*conv),
        ]);
    }
    println!(
        "\nAblation 2 — PCC controller: step size / amplification vs friendliness\n\n{}",
        t.render()
    );

    // --- 3. Theorem 2 tightness --------------------------------------------
    let aimd_grid = [
        (0.5, 0.5),
        (1.0, 0.5),
        (2.0, 0.5),
        (4.0, 0.5),
        (1.0, 0.7),
        (1.0, 0.9),
        (2.0, 0.8),
    ];
    let measured = runner.sweep("ablations/theorem2-tightness", &aimd_grid, |&(a, b)| {
        let p = Aimd::new(a, b);
        measure_friendliness_fluid(&p, &Aimd::reno(), link(), 1, 1, STEPS, &[(1.0, 1.0)])
    });
    let mut t = TextTable::new(["protocol", "bound", "measured", "relative error"]);
    for ((a, b), fr) in aimd_grid.iter().zip(&measured) {
        let bound = theorem2_friendliness_upper_bound(*a, *b);
        let err = (fr - bound).abs() / bound;
        t.row([
            Aimd::new(*a, *b).name(),
            fmt_score(bound),
            fmt_score(*fr),
            format!("{:.1}%", err * 100.0),
        ]);
    }
    println!(
        "\nAblation 3 — Theorem 2 tightness on the AIMD(a,b) grid\n\n{}",
        t.render()
    );

    // --- 4. Synchronized vs per-packet feedback ----------------------------
    let protocols = ["reno", "scalable", "cubic"];
    let measured = runner.sweep("ablations/feedback-mode", &protocols, |name| {
        let build = || -> Box<dyn Protocol> {
            match *name {
                "scalable" => Box::new(Mimd::scalable()),
                "cubic" => Box::new(Cubic::linux()),
                _ => Box::new(Aimd::reno()),
            }
        };
        let fairness = |mode: FeedbackMode| -> f64 {
            let sc = Scenario::new(link())
                .sender(SenderConfig::new(build()).initial_window(120.0))
                .sender(SenderConfig::new(build()).initial_window(30.0))
                .feedback(mode)
                .seed(5)
                .steps(STEPS);
            let opts = stream_options_for(MetricSet::FAIRNESS);
            run_scenario_streaming(sc, &opts).measured_fairness()
        };
        (
            fairness(FeedbackMode::Synchronized),
            fairness(FeedbackMode::PerPacket),
        )
    });
    let mut t = TextTable::new(["protocol", "synchronized", "per-packet"]);
    for (name, (sync, unsync)) in protocols.iter().zip(&measured) {
        t.row([name.to_string(), fmt_score(*sync), fmt_score(*unsync)]);
    }
    println!(
        "\nAblation 4 — feedback synchronization (the §6 model extension):\n\
         fairness of two same-protocol senders from a 4:1 start\n\n{}\
         MIMD's worst-case 0-fairness needs the model's synchronized losses;\n\
         per-packet feedback (losses fall where the packets are) restores convergence.\n",
        t.render()
    );
}
