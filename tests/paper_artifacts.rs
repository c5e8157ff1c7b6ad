//! Integration tests pinning the paper's headline results, end-to-end
//! (protocols → simulators → estimators → experiment builders), at reduced
//! budgets so the suite stays fast. The full-budget regenerations are the
//! experiment registry's reports (`axcc run-all --out-dir results`).

#![allow(clippy::float_cmp)] // exact comparisons are deliberate in tests
use axiomatic_cc::analysis::estimators::{
    measure_friendliness_fluid, measure_robustness_fluid, ROBUSTNESS_RATES,
};
use axiomatic_cc::analysis::experiments::figure1::frontier_surface;
use axiomatic_cc::analysis::experiments::table1::theoretical_table1;
use axiomatic_cc::analysis::experiments::table2::{TABLE2_BUFFER_MSS, TABLE2_RTT_MS};
use axiomatic_cc::analysis::experiments::theorems;
use axiomatic_cc::core::theory::ProtocolSpec;
use axiomatic_cc::core::units::Bandwidth;
use axiomatic_cc::core::LinkParams;
use axiomatic_cc::protocols::{Aimd, Pcc, RobustAimd};
use axiomatic_cc::sweep::SweepRunner;

/// Table 1, worst-case column, exactly as printed in the paper (up to the
/// documented MIMD loss-cell convention normalization).
#[test]
fn table1_worst_case_column_matches_paper() {
    let t = theoretical_table1(350.0, 100.0, 2);
    let get = |name: &str| {
        t.rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("row {name}"))
    };

    let reno = get("AIMD(1,0.5)");
    assert_eq!(reno.worst_case.efficiency, 0.5); // <b>
    assert_eq!(reno.worst_case.loss_bound, 1.0); // <1>
    assert_eq!(reno.worst_case.fast_utilization, 1.0); // <a>
    assert!((reno.worst_case.tcp_friendliness - 1.0).abs() < 1e-12); // <3(1-b)/(a(1+b))>
    assert_eq!(reno.worst_case.fairness, 1.0); // <1>
    assert!((reno.worst_case.convergence - 2.0 / 3.0).abs() < 1e-12); // <2b/(1+b)>

    let mimd = get("MIMD(1.01,0.875)");
    assert!(mimd.worst_case.fast_utilization.is_infinite()); // <∞>
    assert_eq!(mimd.worst_case.fairness, 0.0); // <0>
    assert_eq!(mimd.worst_case.tcp_friendliness, 0.0); // <0>

    let bin = get("BIN(1,0.5,1,0)"); // IIAD: k=1, l=0
    assert_eq!(bin.worst_case.fast_utilization, 0.0); // <0> if k>0
    assert!((bin.worst_case.tcp_friendliness - (1.5f64).sqrt() * 0.5f64.sqrt()).abs() < 1e-12);

    let cubic = get("CUBIC(0.4,0.8)");
    assert_eq!(cubic.worst_case.efficiency, 0.8); // <b>
    assert_eq!(cubic.worst_case.fast_utilization, 0.4); // <c>

    let raimd = get("R-AIMD(1,0.8,0.01)");
    assert!((raimd.worst_case.efficiency - 0.8 / 0.99).abs() < 1e-12); // <b/(1-k)>
    assert_eq!(raimd.worst_case.robustness, 0.01); // k-robust
}

/// Table 2's headline: Robust-AIMD(1,0.8,0.01) is consistently friendlier
/// to Reno than PCC. One representative cell at test budget.
#[test]
fn table2_robust_aimd_beats_pcc() {
    let link = LinkParams::from_experiment(Bandwidth::Mbps(30.0), TABLE2_RTT_MS, TABLE2_BUFFER_MSS);
    let reno = Aimd::reno();
    let pairs = [(1.0, 1.0)];
    let f_r = measure_friendliness_fluid(&RobustAimd::table2(), &reno, link, 1, 1, 3000, &pairs);
    let f_p = measure_friendliness_fluid(&Pcc::new(), &reno, link, 1, 1, 3000, &pairs);
    assert!(f_r > f_p, "R-AIMD {f_r} must beat PCC {f_p}");
    // The paper reports >1.5x in every cell; at this budget demand >1.2x.
    assert!(f_r / f_p > 1.2, "improvement {:.2}x", f_r / f_p);
}

/// Table 2's monotonicity remark: "the more Robust-AIMD connections share
/// a link the better its friendliness to TCP connections".
#[test]
fn robust_aimd_friendliness_monotone_in_connections() {
    let link = LinkParams::from_experiment(Bandwidth::Mbps(20.0), TABLE2_RTT_MS, TABLE2_BUFFER_MSS);
    let reno = Aimd::reno();
    let robust = RobustAimd::table2();
    let pairs = [(1.0, 1.0)];
    let f1 = measure_friendliness_fluid(&robust, &reno, link, 1, 1, 3000, &pairs);
    let f3 = measure_friendliness_fluid(&robust, &reno, link, 3, 1, 3000, &pairs);
    assert!(
        f3 > f1,
        "friendliness should improve with more R-AIMD senders: 1→{f1}, 3→{f3}"
    );
}

/// Figure 1: the AIMD(α, β) surface is a clean Pareto frontier and Reno
/// sits at friendliness exactly 1.
#[test]
fn figure1_surface_is_clean_frontier() {
    let fig = frontier_surface(&[0.5, 1.0, 2.0, 3.0], &[0.5, 0.7, 0.9]);
    assert_eq!(fig.dominated_count(), 0);
    let reno_pt = fig
        .points
        .iter()
        .find(|p| p.alpha == 1.0 && p.beta == 0.5)
        .unwrap();
    assert!((reno_pt.friendliness_bound - 1.0).abs() < 1e-12);
}

/// Section 4's results hold end-to-end at test budget.
#[test]
fn all_theorem_checks_pass() {
    for check in theorems::check_all_with(&SweepRunner::serial(), 2000) {
        assert!(check.passed, "{}: {}", check.name, check.detail);
    }
}

/// Robustness scores end-to-end: the ε-knob is what buys robustness, and
/// the measured score tracks ε across the paper's three settings.
#[test]
fn robustness_tracks_epsilon() {
    let mut last = 0.0;
    for eps in [0.005, 0.007, 0.01] {
        let r = measure_robustness_fluid(&RobustAimd::new(1.0, 0.8, eps), &ROBUSTNESS_RATES, 1200);
        assert!(r > 0.0, "ε={eps} must be robust");
        assert!(r < eps, "measured robustness {r} must stay below ε={eps}");
        assert!(r >= last, "robustness must not decrease with ε");
        last = r;
    }
    // And Reno is 0-robust.
    assert_eq!(
        measure_robustness_fluid(&Aimd::reno(), &ROBUSTNESS_RATES, 1200),
        0.0
    );
}

/// The theory and the executable protocols agree on names/parameters via
/// the `ProtocolSpec` bridge (one-source-of-truth check).
#[test]
fn spec_bridge_round_trips() {
    for spec in [
        ProtocolSpec::RENO,
        ProtocolSpec::SCALABLE_MIMD,
        ProtocolSpec::CUBIC_LINUX,
        ProtocolSpec::ROBUST_AIMD_TABLE2,
    ] {
        let proto = axiomatic_cc::protocols::build_protocol(&spec);
        assert_eq!(proto.name(), spec.name());
    }
}
