//! **Figure 1** — the Pareto frontier of efficiency, TCP-friendliness, and
//! fast-utilization.
//!
//! Paper, Section 5.2: *"Points on this Pareto frontier are of the form
//! (α, β, 3(1−β)/(α(1+β))) (corresponding to fast-utilization, efficiency,
//! and TCP-friendliness scores, respectively). Observe that each of these
//! points is indeed feasible as AIMD(α, β) attains these scores."*
//!
//! This module regenerates the surface: a grid over (α, β) with the
//! Theorem 2 friendliness value at each point, and — optionally — a
//! *feasibility validation* that simulates AIMD(α, β) against Reno and
//! measures its actual (fast-utilization, efficiency, friendliness),
//! confirming that the analytic frontier points are attained (within
//! simulation tolerance) and never exceeded.

use crate::estimators::{measure_friendliness_fluid, measure_solo_fluid, SweepConfig};
use crate::pareto::{pareto_front_indices, ScoredPoint, FIGURE1_METRICS};
use crate::report::{fmt_score, TextTable};
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::theory::theorems::theorem2_friendliness_upper_bound;
use axcc_core::{AxiomScores, LinkParams};
use axcc_protocols::Aimd;
use axcc_sweep::{Cacheable, EvalMode, Record, SweepJob, SweepRunner};

/// Default α (fast-utilization) grid for the surface.
pub const DEFAULT_ALPHAS: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 3.0];
/// Default β (efficiency) grid for the surface.
pub const DEFAULT_BETAS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];

/// One point of the Figure 1 surface.
#[derive(Debug, Clone)]
pub struct Figure1Point {
    /// Fast-utilization coordinate α.
    pub alpha: f64,
    /// Efficiency coordinate β.
    pub beta: f64,
    /// The frontier's friendliness coordinate `3(1−β)/(α(1+β))`
    /// (Theorem 2's upper bound, attained by AIMD(α, β)).
    pub friendliness_bound: f64,
    /// Measured friendliness of AIMD(α, β) vs Reno (when validated).
    pub measured_friendliness: Option<f64>,
    /// Measured efficiency of AIMD(α, β) (when validated).
    pub measured_efficiency: Option<f64>,
    /// Measured fast-utilization of AIMD(α, β) (when validated).
    pub measured_fast_utilization: Option<f64>,
}

/// The generated figure.
#[derive(Debug, Clone)]
pub struct Figure1 {
    /// Surface points, β-major.
    pub points: Vec<Figure1Point>,
    /// Whether feasibility was validated by simulation.
    pub validated: bool,
}

/// The analytic surface only (no simulation).
pub fn frontier_surface(alphas: &[f64], betas: &[f64]) -> Figure1 {
    let mut points = Vec::with_capacity(alphas.len() * betas.len());
    for &beta in betas {
        for &alpha in alphas {
            points.push(Figure1Point {
                alpha,
                beta,
                friendliness_bound: theorem2_friendliness_upper_bound(alpha, beta),
                measured_friendliness: None,
                measured_efficiency: None,
                measured_fast_utilization: None,
            });
        }
    }
    Figure1 {
        points,
        validated: false,
    }
}

/// The measured triple attached to one surface point by validation.
struct MeasuredPoint {
    friendliness: f64,
    efficiency: f64,
    fast_utilization: Option<f64>,
}

impl Cacheable for MeasuredPoint {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push_f64(self.friendliness);
        r.push_f64(self.efficiency);
        r.push_opt_f64(self.fast_utilization);
        r
    }
    fn from_record(record: &Record) -> Option<Self> {
        let mut rd = record.reader();
        let m = MeasuredPoint {
            friendliness: rd.f64()?,
            efficiency: rd.f64()?,
            fast_utilization: rd.opt_f64()?,
        };
        rd.exhausted().then_some(m)
    }
}

/// One feasibility-validation job: AIMD(α, β) solo and against Reno.
struct PointJob {
    alpha: f64,
    beta: f64,
    link: LinkParams,
    steps: usize,
}

impl Fingerprint for PointJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_f64(self.alpha);
        fp.write_f64(self.beta);
        self.link.fingerprint(fp);
        fp.write_usize(self.steps);
        EvalMode::Streaming.fingerprint(fp);
    }
}

impl SweepJob for PointJob {
    type Output = MeasuredPoint;
    fn run(&self) -> MeasuredPoint {
        let aimd = Aimd::new(self.alpha, self.beta);
        let reno = Aimd::reno();
        let solo = measure_solo_fluid(&aimd, &SweepConfig::standard(self.link, 2, self.steps));
        let friendliness =
            measure_friendliness_fluid(&aimd, &reno, self.link, 1, 1, self.steps, &[(1.0, 1.0)]);
        MeasuredPoint {
            friendliness,
            efficiency: solo.efficiency,
            fast_utilization: solo.fast_utilization,
        }
    }
}

/// The surface with feasibility validation: each point's AIMD(α, β) is
/// simulated solo (efficiency, fast-utilization) and against Reno
/// (friendliness) on `link` for `steps` fluid steps, one sweep job per
/// (α, β) grid point.
pub fn validated_surface_with(
    runner: &SweepRunner,
    alphas: &[f64],
    betas: &[f64],
    link: LinkParams,
    steps: usize,
) -> Figure1 {
    let mut fig = frontier_surface(alphas, betas);
    let jobs: Vec<PointJob> = fig
        .points
        .iter()
        .map(|p| PointJob {
            alpha: p.alpha,
            beta: p.beta,
            link,
            steps,
        })
        .collect();
    let measured = runner.run_jobs("figure1/validate", &jobs);
    for (p, m) in fig.points.iter_mut().zip(measured) {
        p.measured_friendliness = Some(m.friendliness);
        p.measured_efficiency = Some(m.efficiency);
        p.measured_fast_utilization = m.fast_utilization;
    }
    fig.validated = true;
    fig
}

impl Figure1 {
    /// The surface as labeled score points (for Pareto machinery).
    pub fn as_scored_points(&self) -> Vec<ScoredPoint> {
        self.points
            .iter()
            .map(|p| {
                let mut s = AxiomScores::worst();
                s.fast_utilization = p.alpha;
                s.efficiency = p.beta;
                s.tcp_friendliness = p.friendliness_bound;
                ScoredPoint::new(format!("AIMD({},{})", p.alpha, p.beta), s)
            })
            .collect()
    }

    /// Verify the defining property of the frontier: in the 3-metric
    /// subspace, **no surface point dominates another** (they all trade
    /// off). Returns the number of dominated points (0 = clean frontier).
    pub fn dominated_count(&self) -> usize {
        let pts = self.as_scored_points();
        pts.len() - pareto_front_indices(&pts, &FIGURE1_METRICS).len()
    }

    /// Render as one series per β (rows: α; columns: bound and measured
    /// values) — the textual analogue of the paper's 3-D plot.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Figure 1 — Pareto frontier (fast-utilization α, efficiency β, TCP-friendliness)\n\n",
        );
        let mut t = TextTable::new([
            "alpha",
            "beta",
            "bound 3(1-β)/(α(1+β))",
            "measured friendliness",
            "measured efficiency",
            "measured fast-util",
        ]);
        for p in &self.points {
            t.row([
                format!("{}", p.alpha),
                format!("{}", p.beta),
                fmt_score(p.friendliness_bound),
                p.measured_friendliness.map_or("-".into(), fmt_score),
                p.measured_efficiency.map_or("-".into(), fmt_score),
                p.measured_fast_utilization.map_or("-".into(), fmt_score),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "\ndominated surface points: {} (0 = clean Pareto frontier)\n",
            self.dominated_count()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The validation record's encoded bytes, pinned (see
    /// `experiments::tests::cached_record_bytes_are_pinned`).
    #[test]
    fn measured_point_record_bytes_are_pinned() {
        for (fast_utilization, want) in [
            (None, "3\n3ff8000000000000\n3feeb851eb851eb8\n-\n"),
            (
                Some(0.25),
                "3\n3ff8000000000000\n3feeb851eb851eb8\n3fd0000000000000\n",
            ),
        ] {
            let m = MeasuredPoint {
                friendliness: 1.5,
                efficiency: 0.96,
                fast_utilization,
            };
            assert_eq!(m.to_record().encode(), want);
        }
    }

    #[test]
    fn surface_is_a_clean_frontier() {
        let fig = frontier_surface(&DEFAULT_ALPHAS, &DEFAULT_BETAS);
        assert_eq!(fig.points.len(), 25);
        assert_eq!(fig.dominated_count(), 0);
    }

    #[test]
    fn friendliness_decreases_along_both_axes() {
        let fig = frontier_surface(&DEFAULT_ALPHAS, &DEFAULT_BETAS);
        // For fixed β, larger α ⇒ smaller friendliness.
        let beta0: Vec<&Figure1Point> = fig.points.iter().filter(|p| p.beta == 0.5).collect();
        for w in beta0.windows(2) {
            assert!(w[1].friendliness_bound < w[0].friendliness_bound);
        }
        // For fixed α, larger β ⇒ smaller friendliness.
        let alpha1: Vec<&Figure1Point> = fig.points.iter().filter(|p| p.alpha == 1.0).collect();
        for w in alpha1.windows(2) {
            assert!(w[1].friendliness_bound < w[0].friendliness_bound);
        }
    }

    #[test]
    fn reno_sits_on_the_surface_at_unity() {
        let fig = frontier_surface(&[1.0], &[0.5]);
        assert!((fig.points[0].friendliness_bound - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_attains_the_bound_within_tolerance() {
        // A small grid, small link, enough steps to converge.
        let link = LinkParams::new(1000.0, 0.05, 20.0);
        let fig = validated_surface_with(&SweepRunner::serial(), &[1.0, 2.0], &[0.5], link, 3000);
        for p in &fig.points {
            let measured = p.measured_friendliness.unwrap();
            // Feasible: measured friendliness within ~35% of the analytic
            // frontier value (the fluid sawtooth quantizes the ratio), and
            // the bound is never *exceeded* by more than tolerance.
            assert!(
                measured <= p.friendliness_bound * 1.35 + 0.05,
                "α={} β={}: measured {measured} vs bound {}",
                p.alpha,
                p.beta,
                p.friendliness_bound
            );
            assert!(
                measured >= p.friendliness_bound * 0.5 - 0.05,
                "α={} β={}: measured {measured} vs bound {}",
                p.alpha,
                p.beta,
                p.friendliness_bound
            );
            // Efficiency at least the worst case β.
            assert!(p.measured_efficiency.unwrap() >= p.beta - 0.05);
        }
    }

    #[test]
    fn render_contains_every_point() {
        let fig = frontier_surface(&[1.0, 2.0], &[0.5, 0.9]);
        let s = fig.render();
        assert!(s.contains("dominated surface points: 0"));
        assert!(s.matches('\n').count() >= 6);
    }
}
