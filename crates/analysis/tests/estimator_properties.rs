//! Property tests for the empirical estimators: structural facts that must
//! hold for arbitrary protocol parameters and links — self-friendliness of
//! symmetric protocols, range constraints of the assembled score tuple,
//! and agreement between the sweep aggregation and its parts — and the
//! lazy `largest_passing` search against the exhaustive scan it replaced.

#![allow(clippy::float_cmp)] // exact comparisons are deliberate in tests

use axcc_analysis::estimators::{
    empirical_scores_fluid, largest_passing, measure_friendliness_fluid, measure_solo_fluid,
    SweepConfig,
};
use axcc_core::LinkParams;
use axcc_protocols::{Aimd, RobustAimd};
use proptest::prelude::*;

fn arb_link() -> impl Strategy<Value = LinkParams> {
    (400.0f64..4000.0, 0.02f64..0.08, 5.0f64..150.0)
        .prop_map(|(b, th, tau)| LinkParams::new(b, th, tau))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any AIMD instance is near-1-friendly to itself: two identical
    /// additive-increase senders converge to equal shares from the
    /// standard initial pairs.
    #[test]
    fn aimd_self_friendliness(
        a in 0.5f64..2.0,
        b in 0.3f64..0.8,
        link in arb_link(),
    ) {
        let p = Aimd::new(a, b);
        let f = measure_friendliness_fluid(&p, &p, link, 1, 1, 2500, &[(1.0, 1.0)]);
        prop_assert!(f > 0.75, "AIMD({a},{b}) self-friendliness {f}");
    }

    /// The assembled empirical tuple is always within the metrics' ranges.
    #[test]
    fn empirical_scores_in_range(
        a in 0.5f64..2.0,
        b in 0.3f64..0.8,
        link in arb_link(),
    ) {
        let s = empirical_scores_fluid(&Aimd::new(a, b), link, 2, 800);
        prop_assert!((0.0..=1.0).contains(&s.efficiency));
        prop_assert!((0.0..1.0).contains(&s.loss_bound));
        prop_assert!((0.0..=1.0).contains(&s.fairness));
        prop_assert!((0.0..=1.0).contains(&s.convergence));
        prop_assert!(s.fast_utilization >= 0.0);
        prop_assert!(s.tcp_friendliness >= 0.0);
        prop_assert!(s.robustness >= 0.0);
    }

    /// The sweep aggregation is the per-metric worst of its runs: the
    /// aggregate can never beat any single configuration's score.
    #[test]
    fn sweep_is_worst_case(
        a in 0.5f64..2.0,
        b in 0.3f64..0.8,
        link in arb_link(),
    ) {
        let p = Aimd::new(a, b);
        let full = measure_solo_fluid(&p, &SweepConfig::standard(link, 2, 800));
        // Re-run with just the uniform-small configuration.
        let single = measure_solo_fluid(
            &p,
            &SweepConfig {
                link,
                n_senders: 2,
                steps: 800,
                initial_configs: vec![vec![1.0, 1.0]],
            },
        );
        prop_assert!(full.efficiency <= single.efficiency + 1e-12);
        prop_assert!(full.loss_bound >= single.loss_bound - 1e-12);
        prop_assert!(full.fairness <= single.fairness + 1e-12);
        prop_assert!(full.convergence <= single.convergence + 1e-12);
    }

    /// Robust-AIMD's measured friendliness decreases (or holds) as ε grows
    /// — the Theorem 3 tradeoff, at property-test scale.
    #[test]
    fn eps_monotonically_costs_friendliness(
        link in arb_link(),
        eps_low in 0.002f64..0.008,
    ) {
        let eps_high = eps_low * 4.0;
        let reno = Aimd::reno();
        let f = |eps: f64| {
            measure_friendliness_fluid(
                &RobustAimd::new(1.0, 0.8, eps),
                &reno,
                link,
                1,
                1,
                2500,
                &[(1.0, 1.0)],
            )
        };
        let low = f(eps_low);
        let high = f(eps_high);
        prop_assert!(
            high <= low + 0.1,
            "ε {eps_low} → {low}, ε {eps_high} → {high}"
        );
    }
}

/// The exhaustive "largest tolerated level" scan: evaluate every
/// `(level, seed)` pair and keep `best = level.max(best)` from 0 for each
/// level a strict majority of seeds pass. Returns the score and the number
/// of predicate calls.
fn exhaustive_largest_passing(
    levels: &[f64],
    seeds: usize,
    passes: impl Fn(f64, usize) -> bool,
) -> (f64, usize) {
    let mut best = 0.0;
    let mut calls = 0;
    for &level in levels {
        let passed = (0..seeds)
            .filter(|&seed| {
                calls += 1;
                passes(level, seed)
            })
            .count();
        if 2 * passed > seeds {
            best = level.max(best);
        }
    }
    (best, calls)
}

/// `largest_passing` over a pass/fail matrix (row per distinct level bit
/// pattern, column per seed), with its predicate call count.
fn searched(levels: &[f64], seeds: usize, passes: impl Fn(f64, usize) -> bool) -> (f64, usize) {
    let seed_ids: Vec<usize> = (0..seeds).collect();
    let mut calls = 0;
    let got = largest_passing(levels, &seed_ids, |level, seed| {
        calls += 1;
        passes(level, seed)
    });
    (got, calls)
}

/// Levels drawn from the real grids, signed zeros, negatives, NaN,
/// infinity and arbitrary values in (-1, 1), so duplicates and
/// non-positive levels occur often.
fn arb_level() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0f64..1.0,
        Just(0.0),
        Just(-0.0),
        Just(-0.25),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(0.0002),
        Just(0.005),
        Just(0.02),
        Just(0.05),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// On random pass/fail matrices (1–10 levels in any order, 1–7
    /// seeds, rows as non-monotone as chance makes them), the search
    /// returns exactly the exhaustive score and never calls the predicate
    /// more often than the exhaustive scan does.
    #[test]
    fn largest_passing_matches_the_exhaustive_scan(
        levels in proptest::collection::vec(arb_level(), 1..=10),
        seeds in 1usize..=7,
        matrix in proptest::collection::vec(any::<bool>(), 70),
    ) {
        // The predicate depends only on (level, seed): a level's row is
        // that of its first occurrence with the same bits.
        let passes = |level: f64, seed: usize| {
            let row = levels
                .iter()
                .position(|l| l.to_bits() == level.to_bits())
                .unwrap_or(0);
            matrix[row * 7 + seed]
        };
        let (want, exhaustive_calls) = exhaustive_largest_passing(&levels, seeds, passes);
        let (got, calls) = searched(&levels, seeds, passes);
        prop_assert!(got == want, "levels {levels:?}, {seeds} seeds: search {got}, exhaustive {want}");
        prop_assert!(
            calls <= exhaustive_calls,
            "{calls} predicate calls, exhaustive {exhaustive_calls}"
        );
    }
}

/// The measured R-AIMD column at burst length 4 (passes per frequency
/// 4, 5, 5, 3, 1, 0, 1, 0): a lone passing seed at f = 0.02 sits above
/// failing cells, and the score is 0.002, not 0.02.
#[test]
fn largest_passing_skips_a_lone_passing_seed_above_failing_cells() {
    let freqs = [0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05];
    let counts = [4, 5, 5, 3, 1, 0, 1, 0];
    let passes = |freq: f64, seed: usize| {
        let row = freqs.iter().position(|&f| f == freq).unwrap_or(0);
        seed < counts[row]
    };
    let (got, calls) = searched(&freqs, 5, passes);
    assert_eq!(got, 0.002);
    assert_eq!(got, exhaustive_largest_passing(&freqs, 5, passes).0);
    // 0.05 and 0.01 fail after three runs; 0.02 and 0.005 after four
    // (one pass, then three fails); 0.002 passes after three.
    assert_eq!(calls, 3 + 4 + 3 + 4 + 3);
}

/// With an even seed count a tie is a failure (2 of 4 is no majority),
/// and the search stops a level as soon as a majority is out of reach.
#[test]
fn largest_passing_treats_an_even_tie_as_failure() {
    let (got, calls) = searched(&[0.5], 4, |_, seed| seed % 2 == 0);
    assert_eq!(got, 0.0);
    // pass, fail, pass, fail: the second failure already rules out three
    // passes of four.
    assert_eq!(calls, 4);
    let (got, calls) = searched(&[0.5], 4, |_, seed| seed >= 2);
    assert_eq!(got, 0.0);
    assert_eq!(calls, 2);
}
