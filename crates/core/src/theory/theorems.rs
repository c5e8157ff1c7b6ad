//! Claim 1 and Theorems 1–5 of Section 4, as executable bound functions and
//! checkable propositions.
//!
//! Every bound here is exercised twice in this repository: by unit tests
//! against the closed forms (this module) and by the experiment harness in
//! `axcc-analysis`, which simulates protocols and verifies their *measured*
//! scores respect the bounds (the registry's `theorems` experiment;
//! property tests).

/// **Claim 1.** *"Any loss-based protocol that is 0-loss is not
/// α-fast-utilizing for any α > 0."*
///
/// Returns `true` when the score combination is ruled out by the claim —
/// i.e. the protocol is loss-based, incurs no loss in steady state, and
/// claims a positive fast-utilization score. A loss-based protocol that is
/// α-fast-utilizing must, after a long enough loss-free stretch, keep
/// growing its window until it induces loss again; so it cannot be 0-loss.
pub fn claim1_violated(loss_based: bool, zero_loss: bool, fast_utilization: f64) -> bool {
    loss_based && zero_loss && fast_utilization > 0.0
}

/// **Theorem 1.** *"Any protocol that is α-convergent and β-fast-utilizing,
/// for some β > 0, is at least α/(2−α)-efficient."*
///
/// Returns the guaranteed efficiency lower bound.
///
/// Intuition: convergence pins every window within `[α·x*, (2−α)·x*]`;
/// positive fast-utilization forces the dynamics to keep pushing into the
/// link until loss/queueing constrains it near capacity, so the fixed point
/// satisfies `(2−α)·X* ≥ C` and the floor `α·X* ≥ αC/(2−α)` follows.
pub fn theorem1_efficiency_lower_bound(alpha_convergent: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&alpha_convergent),
        "convergence score must be in [0,1]"
    );
    alpha_convergent / (2.0 - alpha_convergent)
}

/// **Theorem 2.** *"Any loss-based protocol that is α-fast-utilizing and
/// β-efficient is at most 3(1−β)/(α(1+β))-TCP-friendly."*
///
/// Returns the TCP-friendliness upper bound. The bound is **tight**:
/// AIMD(α, β) attains it (paper, citing Cai et al.).
///
/// ```
/// use axcc_core::theory::theorems::theorem2_friendliness_upper_bound;
/// // Reno's own coordinates (α = 1, β = 0.5) allow exactly friendliness 1:
/// assert!((theorem2_friendliness_upper_bound(1.0, 0.5) - 1.0).abs() < 1e-12);
/// // Doubling the additive increase halves the permissible friendliness:
/// assert!((theorem2_friendliness_upper_bound(2.0, 0.5) - 0.5).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics for `alpha_fast ≤ 0` (the theorem presumes positive
/// fast-utilization) or `beta_efficient` outside `[0, 1]`.
pub fn theorem2_friendliness_upper_bound(alpha_fast: f64, beta_efficient: f64) -> f64 {
    assert!(alpha_fast > 0.0, "theorem 2 requires α > 0");
    assert!(
        (0.0..=1.0).contains(&beta_efficient),
        "efficiency must be in [0,1]"
    );
    3.0 * (1.0 - beta_efficient) / (alpha_fast * (1.0 + beta_efficient))
}

/// **Theorem 3.** *"Any loss-based protocol that is α-fast-utilizing,
/// β-efficient, and ε-robust, for ε > 0, is at most
/// 3(1−β) / ((4·(C+τ)/(1−ε) − α)·(1+β))-TCP-friendly."*
/// (Footnote: assumes `C + τ > α/2`.)
///
/// Unlike Theorems 1–2, this bound depends explicitly on the link
/// (`c_plus_tau = C + τ`). Robustness is *expensive*: the bound shrinks
/// roughly as `1/(C+τ)`, so a robust protocol on a fat link is necessarily
/// very unfriendly (or conversely must give up robustness).
///
/// ```
/// use axcc_core::theory::theorems::{
///     theorem2_friendliness_upper_bound, theorem3_friendliness_upper_bound,
/// };
/// // At Robust-AIMD(1, 0.8, 0.01)'s coordinates on a 450-MSS link, the
/// // robustness requirement costs three orders of magnitude of headroom:
/// let t2 = theorem2_friendliness_upper_bound(1.0, 0.8);
/// let t3 = theorem3_friendliness_upper_bound(1.0, 0.8, 0.01, 450.0);
/// assert!(t3 < t2 / 100.0);
/// ```
///
/// # Panics
///
/// Panics when the footnote's assumption `C + τ > α/2` fails, or for
/// parameters outside their domains.
pub fn theorem3_friendliness_upper_bound(
    alpha_fast: f64,
    beta_efficient: f64,
    eps_robust: f64,
    c_plus_tau: f64,
) -> f64 {
    assert!(alpha_fast > 0.0, "theorem 3 requires α > 0");
    assert!(
        (0.0..=1.0).contains(&beta_efficient),
        "efficiency must be in [0,1]"
    );
    assert!(
        eps_robust > 0.0 && eps_robust < 1.0,
        "theorem 3 requires ε ∈ (0,1)"
    );
    assert!(
        c_plus_tau > alpha_fast / 2.0,
        "theorem 3 assumes C + τ > α/2"
    );
    let denom = (4.0 * c_plus_tau / (1.0 - eps_robust) - alpha_fast) * (1.0 + beta_efficient);
    3.0 * (1.0 - beta_efficient) / denom
}

/// **Theorem 4.** *"Let P and Q be two protocols such that (1) each protocol
/// is either AIMD, BIN, or MIMD, (2) P is α-TCP-friendly, and (3) Q is more
/// aggressive than Reno. Then, P is α-friendly to Q."*
///
/// Given that the hypotheses hold, the conclusion transfers P's friendliness
/// score verbatim; this helper just encodes the transfer so harness code
/// reads like the theorem.
pub fn theorem4_transferred_friendliness(
    hypotheses_hold: bool,
    alpha_tcp_friendly: f64,
) -> Option<f64> {
    hypotheses_hold.then_some(alpha_tcp_friendly)
}

/// **Theorem 5.** *"A loss-based protocol that is α-efficient, for any
/// α > 0, is not β-friendly, for any β > 0, with respect to any protocol
/// that is γ-latency avoiding, for any γ > 0."*
///
/// Returns `true` when a claimed score combination contradicts the theorem:
/// a loss-based, positively-efficient protocol claiming positive
/// friendliness towards a latency-avoiding protocol. (Intuition, after Mo
/// et al. on Reno vs Vegas: the loss-based sender keeps growing until the
/// buffer fills; the latency-avoider backs off as soon as RTT exceeds its
/// bound, and is eventually squeezed to nothing.)
pub fn theorem5_violated(
    loss_based: bool,
    alpha_efficient: f64,
    beta_friendly_to_latency_avoider: f64,
) -> bool {
    loss_based && alpha_efficient > 0.0 && beta_friendly_to_latency_avoider > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory::table1::ProtocolSpec;

    #[test]
    fn claim1_rules_out_the_right_combinations() {
        assert!(claim1_violated(true, true, 1.0));
        assert!(!claim1_violated(true, true, 0.0)); // not fast-utilizing: fine
        assert!(!claim1_violated(true, false, 1.0)); // incurs loss: fine
        assert!(!claim1_violated(false, true, 1.0)); // delay-based: exempt
    }

    #[test]
    fn theorem1_bound_values() {
        assert_eq!(theorem1_efficiency_lower_bound(0.0), 0.0);
        assert_eq!(theorem1_efficiency_lower_bound(1.0), 1.0);
        // α = 2/3 (Reno's convergence score) ⇒ efficiency ≥ 0.5 — exactly
        // Reno's worst-case efficiency in Table 1. The bound is consistent.
        let reno_conv = 2.0 / 3.0;
        let bound = theorem1_efficiency_lower_bound(reno_conv);
        assert!((bound - 0.5).abs() < 1e-12);
        assert!(ProtocolSpec::RENO.efficiency_worst() >= bound - 1e-12);
    }

    #[test]
    fn theorem1_monotone() {
        let mut prev = -1.0;
        for i in 0..=10 {
            let a = i as f64 / 10.0;
            let b = theorem1_efficiency_lower_bound(a);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    #[should_panic(expected = "convergence score")]
    fn theorem1_rejects_out_of_range() {
        theorem1_efficiency_lower_bound(1.5);
    }

    #[test]
    fn theorem2_tight_for_aimd() {
        // AIMD(a, b) is a-fast-utilizing, (worst-case) b-efficient, and
        // exactly 3(1−b)/(a(1+b))-TCP-friendly: the bound is attained.
        for (a, b) in [(1.0, 0.5), (2.0, 0.5), (1.0, 0.8), (0.5, 0.9)] {
            let spec = ProtocolSpec::Aimd { a, b };
            let bound = theorem2_friendliness_upper_bound(a, b);
            let actual = spec.tcp_friendliness_worst();
            assert!((bound - actual).abs() < 1e-12, "a={a} b={b}");
        }
    }

    #[test]
    fn theorem2_tradeoffs() {
        // Faster utilization ⇒ lower permissible friendliness.
        assert!(
            theorem2_friendliness_upper_bound(2.0, 0.5)
                < theorem2_friendliness_upper_bound(1.0, 0.5)
        );
        // Higher efficiency ⇒ lower permissible friendliness.
        assert!(
            theorem2_friendliness_upper_bound(1.0, 0.9)
                < theorem2_friendliness_upper_bound(1.0, 0.5)
        );
        // Perfect efficiency ⇒ zero friendliness allowed.
        assert_eq!(theorem2_friendliness_upper_bound(1.0, 1.0), 0.0);
    }

    #[test]
    fn theorem3_bound_matches_robust_aimd_row() {
        // Robust-AIMD(a, b, ε)'s Table 1 friendliness equals the Theorem 3
        // bound at α = a, β = b, ε = ε ("cannot be improved upon …
        // and thus lies on the Pareto frontier").
        let (a, b, eps) = (1.0, 0.8, 0.01);
        let ct = 450.0;
        let spec = ProtocolSpec::RobustAimd { a, b, eps };
        let bound = theorem3_friendliness_upper_bound(a, b, eps, ct);
        let c = 350.0;
        let tau = 100.0;
        assert!((spec.tcp_friendliness(c, tau) - bound).abs() < 1e-12);
    }

    #[test]
    fn theorem3_much_stricter_than_theorem2() {
        // On a 450-MSS link, robustness costs orders of magnitude of
        // friendliness headroom.
        let t2 = theorem2_friendliness_upper_bound(1.0, 0.8);
        let t3 = theorem3_friendliness_upper_bound(1.0, 0.8, 0.01, 450.0);
        assert!(t3 < t2 / 100.0, "t2={t2} t3={t3}");
    }

    #[test]
    fn theorem3_bound_shrinks_with_link_size() {
        let small = theorem3_friendliness_upper_bound(1.0, 0.8, 0.01, 50.0);
        let big = theorem3_friendliness_upper_bound(1.0, 0.8, 0.01, 5000.0);
        assert!(big < small);
    }

    #[test]
    fn theorem3_bound_shrinks_with_robustness() {
        let low = theorem3_friendliness_upper_bound(1.0, 0.8, 0.01, 450.0);
        let high = theorem3_friendliness_upper_bound(1.0, 0.8, 0.5, 450.0);
        assert!(high < low);
    }

    #[test]
    #[should_panic(expected = "C + τ > α/2")]
    fn theorem3_footnote_assumption() {
        theorem3_friendliness_upper_bound(10.0, 0.5, 0.01, 4.0);
    }

    #[test]
    fn theorem4_transfers_only_under_hypotheses() {
        assert_eq!(theorem4_transferred_friendliness(true, 0.7), Some(0.7));
        assert_eq!(theorem4_transferred_friendliness(false, 0.7), None);
    }

    #[test]
    fn theorem5_rules_out_loss_based_vs_latency_avoiders() {
        assert!(theorem5_violated(true, 0.5, 0.1));
        assert!(!theorem5_violated(false, 0.5, 0.1)); // delay-based P: fine
        assert!(!theorem5_violated(true, 0.0, 0.1)); // zero efficiency: fine
        assert!(!theorem5_violated(true, 0.5, 0.0)); // claims no friendliness
    }
}
