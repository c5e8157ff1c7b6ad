//! Empirical metric estimation via scenario sweeps.
//!
//! The paper's axioms quantify over **all** initial window configurations
//! (and, for friendliness, all sender mixes). Empirically we realize those
//! universal quantifiers by sweeping a set of adversarial initial
//! configurations — uniform tiny windows, near-capacity fair shares, and a
//! heavily skewed split — and taking the per-metric **worst** result, which
//! is the score the protocol can actually guarantee on the scenario family.
//!
//! Two backends run the scenarios: the fluid model (`axcc-fluidsim`,
//! exact Section 2 dynamics, used for fast sweeps and theorem checks) and
//! the packet-level simulator (`axcc-packetsim`, the Emulab stand-in, used
//! for the validation experiments). Both are scored by the same axiom
//! folds: either engine streams each step (a fluid RTT step, or a packet
//! sample) into a [`MetricAccumulator`] as it runs. A [`RunTrace`] kept
//! for plotting is scored by [`replay`], which feeds it through the same
//! fold.

use axcc_core::protocol::MAX_WINDOW;
use axcc_core::{LinkParams, Protocol, RunTrace};
use axcc_fluidsim::{
    metric_accumulator_for, run_scenario_streaming, run_scenario_streaming_into, LossModel,
    MetricAccumulator, MetricConfig, MetricSet, Scenario, SenderConfig, StreamOptions,
};
use axcc_packetsim::{PacketScenario, PacketSenderConfig};
use serde::{Deserialize, Serialize};

/// Fraction of each run treated as transient.
pub const TAIL_FRACTION: f64 = 0.5;

/// Minimum ascent horizon for the fast-utilization estimator (RTT steps).
pub const FAST_UTIL_HORIZON: usize = 8;

/// The β threshold the robustness estimators use for the escape witness
/// ([`MetricAccumulator::window_escapes`]).
pub const ROBUSTNESS_ESCAPE_BETA: f64 = 100.0;

/// Evaluation options carrying this module's estimator parameters.
pub fn stream_options() -> StreamOptions {
    StreamOptions {
        tail_fraction: TAIL_FRACTION,
        min_horizon: FAST_UTIL_HORIZON,
        escape_beta: ROBUSTNESS_ESCAPE_BETA,
        metrics: MetricSet::ALL,
    }
}

/// [`stream_options`] restricted to the metric families a job will
/// actually read — the sink-specialization entry point: the accumulator
/// skips every other family's per-block fold.
pub fn stream_options_for(metrics: MetricSet) -> StreamOptions {
    StreamOptions {
        metrics,
        ..stream_options()
    }
}

/// Score a trace kept for its columns (either engine's `try_run`) with
/// this module's estimator parameters: the columns replay through the
/// same fold a streaming run drives, keeping the `metrics` families.
pub fn replay(trace: &RunTrace, metrics: MetricSet) -> MetricAccumulator {
    MetricAccumulator::replay(
        trace,
        &MetricConfig {
            tail_fraction: TAIL_FRACTION,
            min_horizon: FAST_UTIL_HORIZON,
            escape_beta: ROBUSTNESS_ESCAPE_BETA,
            metrics,
            ..MetricConfig::for_trace(trace)
        },
    )
}

/// Run a packet-level scenario, folding every sample into a fresh
/// [`MetricAccumulator`] of the `metrics` families with this module's
/// estimator parameters: the packet [`run_scenario_streaming`].
///
/// # Panics
///
/// Panics on an invalid scenario.
pub fn run_packet_streaming(sc: PacketScenario, metrics: MetricSet) -> MetricAccumulator {
    let mut acc = metric_accumulator_for(&sc, &stream_options_for(metrics));
    // tidy-allow: panic-freedom — documented panicking façade over try_run_with; fallible callers use the try_ path
    let out = sc.try_run_with(&mut acc).unwrap_or_else(|e| panic!("{e}"));
    debug_assert!(out.conservation_ok());
    acc
}

/// Configuration of a homogeneous ("all senders employ P") sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The bottleneck link.
    pub link: LinkParams,
    /// Number of senders.
    pub n_senders: usize,
    /// Steps per run (fluid model RTT steps).
    pub steps: usize,
    /// Initial window configurations to sweep (each of length
    /// `n_senders`); the measured score is the worst over these.
    pub initial_configs: Vec<Vec<f64>>,
}

impl SweepConfig {
    /// The default adversarial sweep for a link: uniform 1-MSS start,
    /// near-capacity fair shares, and an 80/20-style skew.
    pub fn standard(link: LinkParams, n_senders: usize, steps: usize) -> Self {
        assert!(n_senders > 0, "sweep needs at least one sender");
        let ct = link.loss_threshold();
        let fair = ct / n_senders as f64;
        let uniform_small = vec![1.0; n_senders];
        let fair_share = vec![fair; n_senders];
        let mut skewed = vec![1.0; n_senders];
        skewed[0] = 0.8 * ct;
        SweepConfig {
            link,
            n_senders,
            steps,
            initial_configs: vec![uniform_small, fair_share, skewed],
        }
    }
}

/// Empirical scores from homogeneous runs (Metrics I–V and VIII).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SoloMetrics {
    /// Metric I (worst over configs).
    pub efficiency: f64,
    /// Metric III (worst over configs).
    pub loss_bound: f64,
    /// Metric IV (worst over configs).
    pub fairness: f64,
    /// Metric V (worst over configs).
    pub convergence: f64,
    /// Metric II (worst over configs; `None` when no run had a long enough
    /// loss-free ascent to judge).
    pub fast_utilization: Option<f64>,
    /// Metric VIII (worst over configs; ∞ when the tail still overflows
    /// the buffer — the loss-based case).
    pub latency_inflation: f64,
    /// Companion statistic: mean utilization over tails (best-effort mean
    /// across configs).
    pub mean_utilization: f64,
}

/// Measure Metrics I–V and VIII for one recorded trace.
pub fn solo_metrics_of_trace(trace: &RunTrace) -> SoloMetrics {
    solo_metrics_of_acc(&replay(trace, MetricSet::SOLO))
}

/// Measure Metrics I–V and VIII from an accumulator that consumed a run.
pub fn solo_metrics_of_acc(acc: &MetricAccumulator) -> SoloMetrics {
    let fast = (0..acc.num_senders())
        .filter_map(|i| acc.measured_fast_utilization(i))
        .fold(None, |agg: Option<f64>, v| {
            Some(agg.map_or(v, |a| a.min(v)))
        });
    SoloMetrics {
        efficiency: acc.measured_efficiency(),
        loss_bound: acc.measured_loss_bound(),
        fairness: acc.measured_fairness(),
        convergence: acc.measured_convergence(),
        fast_utilization: fast,
        latency_inflation: acc.measured_latency_inflation(),
        mean_utilization: acc.mean_utilization(),
    }
}

impl axcc_sweep::Cacheable for SoloMetrics {
    fn to_record(&self) -> axcc_sweep::Record {
        let mut r = axcc_sweep::Record::new();
        self.encode_into(&mut r);
        r
    }
    fn from_record(record: &axcc_sweep::Record) -> Option<Self> {
        let mut rd = record.reader();
        let m = SoloMetrics::decode_from(&mut rd)?;
        rd.exhausted().then_some(m)
    }
}

impl SoloMetrics {
    /// Append the seven metrics to `r` in field order: the one record
    /// layout of a solo measurement, wherever it is cached.
    pub fn encode_into(&self, r: &mut axcc_sweep::Record) {
        r.push_f64(self.efficiency);
        r.push_f64(self.loss_bound);
        r.push_f64(self.fairness);
        r.push_f64(self.convergence);
        r.push_opt_f64(self.fast_utilization);
        r.push_f64(self.latency_inflation);
        r.push_f64(self.mean_utilization);
    }

    /// Read back what [`encode_into`](Self::encode_into) wrote; `None`
    /// on a short or malformed record.
    pub fn decode_from(rd: &mut axcc_sweep::RecordReader<'_>) -> Option<Self> {
        Some(SoloMetrics {
            efficiency: rd.f64()?,
            loss_bound: rd.f64()?,
            fairness: rd.f64()?,
            convergence: rd.f64()?,
            fast_utilization: rd.opt_f64()?,
            latency_inflation: rd.f64()?,
            mean_utilization: rd.f64()?,
        })
    }

    /// Per-metric worst of two measurements (the universal-quantifier
    /// aggregation).
    pub fn pointwise_worst(&self, other: &SoloMetrics) -> SoloMetrics {
        SoloMetrics {
            efficiency: self.efficiency.min(other.efficiency),
            loss_bound: self.loss_bound.max(other.loss_bound),
            fairness: self.fairness.min(other.fairness),
            convergence: self.convergence.min(other.convergence),
            fast_utilization: match (self.fast_utilization, other.fast_utilization) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            latency_inflation: self.latency_inflation.max(other.latency_inflation),
            mean_utilization: (self.mean_utilization + other.mean_utilization) / 2.0,
        }
    }
}

/// Run the homogeneous sweep in the **fluid** model and return the
/// worst-case (guaranteed) solo metrics. Every configuration streams into
/// one reused [`MetricAccumulator`] — all share one scenario shape.
pub fn measure_solo_fluid(proto: &dyn Protocol, cfg: &SweepConfig) -> SoloMetrics {
    let opts = stream_options_for(MetricSet::SOLO);
    let mut acc: Option<MetricAccumulator> = None;
    let mut agg: Option<SoloMetrics> = None;
    for init in &cfg.initial_configs {
        assert_eq!(init.len(), cfg.n_senders, "config arity mismatch");
        let mut sc = Scenario::new(cfg.link).steps(cfg.steps);
        for &w in init {
            sc = sc.sender(SenderConfig::new(proto.clone_box()).initial_window(w));
        }
        let acc = acc.get_or_insert_with(|| metric_accumulator_for(&sc, &opts));
        run_scenario_streaming_into(sc, acc);
        let m = solo_metrics_of_acc(acc);
        agg = Some(match agg {
            None => m,
            Some(a) => a.pointwise_worst(&m),
        });
    }
    #[allow(clippy::expect_used)] // invariant: SweepConfig always carries configurations
    // tidy-allow: panic-freedom — SweepConfig construction guarantees a non-empty sweep; None is unreachable
    agg.expect("sweep had no configurations")
}

/// Run a homogeneous **packet-level** scenario (all flows start at 1 MSS,
/// as real connections do; flow `i` starts at `i · stagger_secs`, so with a
/// positive stagger the run probes late-joiner convergence — the situation
/// in which MIMD's worst-case unfairness actually shows) and return its
/// solo metrics.
pub fn measure_solo_packet(
    proto: &dyn Protocol,
    link: LinkParams,
    n_senders: usize,
    duration_secs: f64,
    stagger_secs: f64,
    seed: u64,
) -> SoloMetrics {
    let mut sc = PacketScenario::new(link)
        .duration_secs(duration_secs)
        .seed(seed);
    for i in 0..n_senders {
        sc = sc.sender(
            PacketSenderConfig::new(proto.clone_box()).start_at_secs(i as f64 * stagger_secs),
        );
    }
    solo_metrics_of_acc(&run_packet_streaming(sc, MetricSet::SOLO))
}

/// Measure the friendliness of `p` towards `q` (Metric VII) in the fluid
/// model: `n_p` P-senders and `n_q` Q-senders share the link; the score is
/// the worst over the provided `(p_init, q_init)` initial-window pairs of
/// `min_j avg_j(Q) / max_i avg_i(P)` over the tail.
///
/// # Panics
///
/// Panics unless both sender sets are non-empty.
pub fn measure_friendliness_fluid(
    p: &dyn Protocol,
    q: &dyn Protocol,
    link: LinkParams,
    n_p: usize,
    n_q: usize,
    steps: usize,
    initial_pairs: &[(f64, f64)],
) -> f64 {
    assert!(n_p > 0 && n_q > 0, "friendliness needs both sender sets");
    let opts = stream_options_for(MetricSet::FAIRNESS);
    let p_idx: Vec<usize> = (0..n_p).collect();
    let q_idx: Vec<usize> = (n_p..n_p + n_q).collect();
    let mut acc: Option<MetricAccumulator> = None;
    let mut worst = f64::INFINITY;
    for &(pi, qi) in initial_pairs {
        let sc = Scenario::new(link)
            .steps(steps)
            .homogeneous(p, n_p, pi)
            .homogeneous(q, n_q, qi);
        let acc = acc.get_or_insert_with(|| metric_accumulator_for(&sc, &opts));
        run_scenario_streaming_into(sc, acc);
        worst = worst.min(acc.measured_friendliness(&p_idx, &q_idx));
    }
    worst
}

/// Packet-level friendliness: `n_p` P-flows and `n_q` Q-flows, all starting
/// from 1 MSS, measured by tail-average windows.
pub fn measure_friendliness_packet(
    p: &dyn Protocol,
    q: &dyn Protocol,
    link: LinkParams,
    n_p: usize,
    n_q: usize,
    duration_secs: f64,
    seed: u64,
) -> f64 {
    assert!(n_p > 0 && n_q > 0, "friendliness needs both sender sets");
    let sc = PacketScenario::new(link)
        .duration_secs(duration_secs)
        .seed(seed)
        .homogeneous(p, n_p)
        .homogeneous(q, n_q);
    let p_idx: Vec<usize> = (0..n_p).collect();
    let q_idx: Vec<usize> = (n_p..n_p + n_q).collect();
    run_packet_streaming(sc, MetricSet::FAIRNESS).measured_friendliness(&p_idx, &q_idx)
}

/// Empirically decide the paper's "more aggressive than" relation
/// (Section 4): *"P is more aggressive than Q if for any combination of
/// P- and Q-senders, and initial sending rates, from some point in time
/// onwards, the average goodput of any P-sender is higher than that of
/// any Q-sender."*
///
/// Sweeps a small family of mixes (1v1, 2v1, 1v2) and initial-rate pairs
/// and returns `true` iff **every** P-sender out-earns **every** Q-sender
/// in the tail of every run — the conservative empirical realization of
/// the universal quantifiers (complementing the syntactic sufficient
/// conditions in `axcc_core::theory::aggressiveness`).
pub fn empirically_more_aggressive(
    p: &dyn Protocol,
    q: &dyn Protocol,
    link: LinkParams,
    steps: usize,
) -> bool {
    let opts = stream_options_for(MetricSet::FAIRNESS);
    let ct = link.loss_threshold();
    for (n_p, n_q) in [(1usize, 1usize), (2, 1), (1, 2)] {
        for &(pi, qi) in &[(1.0, 1.0), (1.0, 0.8 * ct), (0.8 * ct, 1.0)] {
            let sc = Scenario::new(link)
                .steps(steps)
                .homogeneous(p, n_p, pi)
                .homogeneous(q, n_q, qi);
            let acc = run_scenario_streaming(sc, &opts);
            let worst_p = (0..n_p)
                .map(|i| acc.tail_mean_goodput(i))
                .fold(f64::INFINITY, f64::min);
            let best_q = (n_p..n_p + n_q)
                .map(|j| acc.tail_mean_goodput(j))
                .fold(0.0, f64::max);
            if worst_p <= best_q {
                return false;
            }
        }
    }
    true
}

/// The default loss-rate grid for robustness sweeps (Metric VI): spans the
/// paper's ε values (0.5%, 0.7%, 1%) plus coarser rates.
pub const ROBUSTNESS_RATES: [f64; 7] = [0.001, 0.002, 0.005, 0.007, 0.009, 0.02, 0.05];

/// The largest of `levels` that a strict majority of `seeds` pass, or 0
/// when none does: the score of a "largest tolerated level" sweep such as
/// Metric VI's robustness rate or the gauntlet's burst frequency.
///
/// The search is exact but lazy. Levels are tried from the highest value
/// down, so the first level that passes is the maximum and ends the
/// search; within a level, seeds stop running as soon as the verdict is
/// decided (a majority has passed, or too many have failed for one to).
/// Levels that are not positive are never tried: they cannot raise the
/// score above 0. The result equals the exhaustive scan that runs every
/// `(level, seed)` pair and keeps `best = level.max(best)` from 0, for
/// any level order and any seed count, provided each `passes` call
/// depends only on its own `(level, seed)`.
pub fn largest_passing<S: Copy>(
    levels: &[f64],
    seeds: &[S],
    mut passes: impl FnMut(f64, S) -> bool,
) -> f64 {
    let mut descending: Vec<f64> = levels.iter().copied().filter(|&l| l > 0.0).collect();
    descending.sort_unstable_by(|a, b| b.total_cmp(a));
    let majority = seeds.len() / 2 + 1;
    let max_failures = seeds.len() - majority;
    descending
        .into_iter()
        .find(|&level| {
            let (mut passed, mut failed) = (0, 0);
            for &seed in seeds {
                if passes(level, seed) {
                    passed += 1;
                } else {
                    failed += 1;
                }
                if passed == majority || failed > max_failures {
                    break;
                }
            }
            passed == majority
        })
        .unwrap_or(0.0)
}

/// Measure robustness (Metric VI): on an effectively infinite-capacity
/// link under constant non-congestion loss, the score is the largest rate
/// in `rates` at which the sender's window still **diverges** (keeps
/// growing at the end of the run — the trace witness that it escapes every
/// finite `β`). Returns 0 when even the smallest rate defeats the
/// protocol. Rates are searched from the highest down
/// ([`largest_passing`]), so only the rates above the score and the score
/// itself are simulated.
pub fn measure_robustness_fluid(proto: &dyn Protocol, rates: &[f64], steps: usize) -> f64 {
    // A link whose capacity exceeds the model's maximum window: congestion
    // loss can never occur.
    let infinite = LinkParams::new(MAX_WINDOW * 100.0, 0.05, MAX_WINDOW);
    let opts = stream_options_for(MetricSet::ROBUSTNESS);
    let mut acc: Option<MetricAccumulator> = None;
    largest_passing(rates, &[()], |rate, ()| {
        let sc = Scenario::new(infinite)
            .sender(SenderConfig::new(proto.clone_box()).initial_window(10.0))
            .wire_loss(LossModel::Constant { rate })
            .steps(steps);
        let acc = acc.get_or_insert_with(|| metric_accumulator_for(&sc, &opts));
        run_scenario_streaming_into(sc, acc);
        // Divergence evidence: clearly escaped the starting window AND
        // either still growing at the end or already pinned at the model's
        // maximum window `M` (aggressive climbers like PCC/BBR saturate
        // the cap long before the run ends, which is the strongest escape
        // a finite run can witness).
        let escaped = acc.window_escapes(0, 0.2);
        let growing = acc.window_diverging(0, 1e-9);
        let capped = acc.last_window(0) >= 0.9 * MAX_WINDOW;
        escaped && (growing || capped)
    })
}

/// Convenience: the full empirical 8-tuple for a protocol (fluid backend):
/// solo metrics on `link` with `n` senders, friendliness towards TCP Reno,
/// and the robustness sweep.
pub fn empirical_scores_fluid(
    proto: &dyn Protocol,
    link: LinkParams,
    n_senders: usize,
    steps: usize,
) -> axcc_core::AxiomScores {
    let solo = measure_solo_fluid(proto, &SweepConfig::standard(link, n_senders, steps));
    let reno = axcc_protocols::Aimd::reno();
    let ct = link.loss_threshold();
    let pairs = [(1.0, 1.0), (0.8 * ct, 1.0), (1.0, 0.8 * ct)];
    let friendliness = measure_friendliness_fluid(proto, &reno, link, 1, 1, steps, &pairs);
    let robustness = measure_robustness_fluid(proto, &ROBUSTNESS_RATES, steps);
    axcc_core::AxiomScores {
        efficiency: solo.efficiency,
        fast_utilization: solo.fast_utilization.unwrap_or(0.0),
        loss_bound: solo.loss_bound,
        fairness: solo.fairness,
        convergence: solo.convergence,
        robustness,
        tcp_friendliness: friendliness,
        latency_inflation: solo.latency_inflation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcc_protocols::{Aimd, Mimd, RobustAimd, Vegas};

    /// C = 100 MSS, τ = 20 MSS.
    fn link() -> LinkParams {
        LinkParams::new(1000.0, 0.05, 20.0)
    }

    #[test]
    fn reno_solo_metrics_match_table1_shapes() {
        let m = measure_solo_fluid(&Aimd::reno(), &SweepConfig::standard(link(), 2, 2000));
        // Efficiency ≥ worst case b = 0.5, ≤ parameterized 0.5·1.2 = 0.6.
        assert!(m.efficiency >= 0.5 - 0.02, "eff {}", m.efficiency);
        assert!(m.efficiency <= 0.65, "eff {}", m.efficiency);
        // Loss bound small (n·a overshoot over C+τ = 120).
        assert!(m.loss_bound < 0.05, "loss {}", m.loss_bound);
        assert!(m.loss_bound > 0.0);
        // Fair and 2b/(1+b)-convergent-ish.
        assert!(m.fairness > 0.8, "fair {}", m.fairness);
        assert!(m.convergence > 0.5, "conv {}", m.convergence);
        // Fast-utilization ≈ a = 1.
        let f = m.fast_utilization.expect("should have ascents");
        assert!(f > 0.8 && f < 1.5, "fast {f}");
        // Loss-based: unbounded latency score.
        assert!(m.latency_inflation.is_infinite());
    }

    #[test]
    fn mimd_unfair_in_skewed_config() {
        let m = measure_solo_fluid(&Mimd::scalable(), &SweepConfig::standard(link(), 2, 2000));
        assert!(m.fairness < 0.3, "fair {}", m.fairness);
    }

    #[test]
    fn vegas_latency_bounded_and_zero_loss() {
        let m = measure_solo_fluid(&Vegas::classic(), &SweepConfig::standard(link(), 2, 2000));
        assert!(m.latency_inflation.is_finite());
        assert!(m.latency_inflation < 0.15, "lat {}", m.latency_inflation);
        assert_eq!(m.loss_bound, 0.0);
    }

    #[test]
    fn reno_friendly_to_itself() {
        let reno = Aimd::reno();
        let f = measure_friendliness_fluid(
            &reno,
            &reno,
            link(),
            1,
            1,
            3000,
            &[(1.0, 1.0), (90.0, 1.0)],
        );
        assert!(f > 0.8, "self-friendliness {f}");
    }

    #[test]
    fn aggressive_aimd_less_friendly_than_reno() {
        let reno = Aimd::reno();
        let fast = Aimd::new(4.0, 0.5);
        let pairs = [(1.0, 1.0)];
        let f_fast = measure_friendliness_fluid(&fast, &reno, link(), 1, 1, 3000, &pairs);
        let f_self = measure_friendliness_fluid(&reno, &reno, link(), 1, 1, 3000, &pairs);
        assert!(f_fast < f_self, "{f_fast} vs {f_self}");
        // Theorem 2 ballpark: 3(1−b)/(a(1+b)) = 0.25.
        assert!(f_fast < 0.5, "{f_fast}");
    }

    #[test]
    fn empirical_aggressiveness_agrees_with_syntactic_rules() {
        use axcc_core::theory::aggressiveness::syntactically_more_aggressive;
        use axcc_core::theory::ProtocolSpec;
        let l = link();
        // Syntactic Some(true) pairs must come out empirically true too.
        let scalable = Aimd::scalable(); // AIMD(1, 0.875)
        let reno = Aimd::reno();
        assert_eq!(
            syntactically_more_aggressive(&ProtocolSpec::SCALABLE_AIMD, &ProtocolSpec::RENO),
            Some(true)
        );
        assert!(empirically_more_aggressive(&scalable, &reno, l, 3000));
        // MIMD > AIMD.
        assert!(empirically_more_aggressive(
            &Mimd::scalable(),
            &reno,
            l,
            3000
        ));
        // And the relation is not reflexive-ish: Reno vs Reno fails
        // (goodputs converge, no strict winner).
        assert!(!empirically_more_aggressive(&reno, &reno, l, 3000));
    }

    #[test]
    fn robustness_scores_match_design() {
        // Plain AIMD: 0-robust.
        let r = measure_robustness_fluid(&Aimd::reno(), &ROBUSTNESS_RATES, 1500);
        assert_eq!(r, 0.0);
        // Robust-AIMD(·,·,0.01): robust up to just below ε = 1%.
        let r = measure_robustness_fluid(&RobustAimd::table2(), &ROBUSTNESS_RATES, 1500);
        assert!((r - 0.009).abs() < 1e-12, "robustness {r}");
    }

    #[test]
    fn empirical_scores_assemble() {
        let s = empirical_scores_fluid(&Aimd::reno(), link(), 2, 1500);
        assert!(s.efficiency > 0.4);
        assert!(s.tcp_friendliness > 0.7); // Reno vs Reno
        assert_eq!(s.robustness, 0.0);
        assert!(s.latency_inflation.is_infinite());
    }

    #[test]
    fn pointwise_worst_semantics() {
        let a = SoloMetrics {
            efficiency: 0.8,
            loss_bound: 0.02,
            fairness: 1.0,
            convergence: 0.7,
            fast_utilization: Some(1.0),
            latency_inflation: 0.1,
            mean_utilization: 0.9,
        };
        let mut b = a;
        b.efficiency = 0.6;
        b.loss_bound = 0.05;
        b.fast_utilization = None;
        let w = a.pointwise_worst(&b);
        assert_eq!(w.efficiency, 0.6);
        assert_eq!(w.loss_bound, 0.05);
        assert_eq!(w.fast_utilization, Some(1.0));
    }

    /// Every field of two [`SoloMetrics`] equal to the bit.
    fn assert_solo_bits_equal(a: &SoloMetrics, b: &SoloMetrics) {
        assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits());
        assert_eq!(a.loss_bound.to_bits(), b.loss_bound.to_bits());
        assert_eq!(a.fairness.to_bits(), b.fairness.to_bits());
        assert_eq!(a.convergence.to_bits(), b.convergence.to_bits());
        assert_eq!(
            a.fast_utilization.map(f64::to_bits),
            b.fast_utilization.map(f64::to_bits)
        );
        assert_eq!(a.latency_inflation.to_bits(), b.latency_inflation.to_bits());
        assert_eq!(a.mean_utilization.to_bits(), b.mean_utilization.to_bits());
    }

    #[test]
    fn replayed_trace_scores_match_the_streamed_run_bit_for_bit() {
        // A recorded fluid run replayed through the fold scores exactly
        // what the same run streamed — the trace keeps every column the
        // fold consumed.
        for proto in [
            Box::new(Aimd::reno()) as Box<dyn axcc_core::Protocol>,
            Box::new(Mimd::scalable()),
            Box::new(Vegas::classic()),
        ] {
            let sc = || {
                Scenario::new(link())
                    .sender(SenderConfig::new(proto.clone_box()).initial_window(90.0))
                    .sender(SenderConfig::new(proto.clone_box()).initial_window(1.0))
                    .steps(600)
            };
            let traced = solo_metrics_of_trace(&sc().run());
            let streamed = solo_metrics_of_acc(&run_scenario_streaming(
                sc(),
                &stream_options_for(MetricSet::SOLO),
            ));
            assert_solo_bits_equal(&traced, &streamed);
        }
    }

    #[test]
    #[should_panic(expected = "config arity")]
    fn config_arity_checked() {
        let cfg = SweepConfig {
            link: link(),
            n_senders: 2,
            steps: 100,
            initial_configs: vec![vec![1.0]],
        };
        measure_solo_fluid(&Aimd::reno(), &cfg);
    }
}
