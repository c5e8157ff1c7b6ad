//! Scenario description: topology, senders, run length, loss injection.

use crate::engine::try_run_scenario_with;
use crate::loss::LossModel;
use axcc_core::error::{finite_non_negative, positive_finite, require};
use axcc_core::protocol::MAX_WINDOW;
use axcc_core::{LinkParams, Protocol, RunShape, RunTrace, ScenarioError, TraceSink};
use axcc_topo::Topology;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// One sender in a scenario: a protocol, an initial window, a start step
/// (for late-joiner dynamics), an optional stop step (for departures in
/// churned populations), and the path of links it crosses.
pub struct SenderConfig {
    pub(crate) protocol: Box<dyn Protocol>,
    pub(crate) initial_window: f64,
    pub(crate) start_tick: u64,
    pub(crate) stop_tick: Option<u64>,
    pub(crate) path: Cow<'static, [usize]>,
}

impl SenderConfig {
    /// A sender running `protocol` over link 0, starting at step 0 with a
    /// 1-MSS window.
    pub fn new(protocol: Box<dyn Protocol>) -> Self {
        SenderConfig {
            protocol,
            initial_window: 1.0,
            start_tick: 0,
            stop_tick: None,
            path: Cow::Borrowed(&[0]),
        }
    }

    /// Route the sender over `links` (indices into the scenario's
    /// [`Topology`], in crossing order). The default is `[0]`, the one
    /// link of [`Scenario::new`]. Must be non-empty, in range, and cross
    /// each link at most once; checked by [`Scenario::validate`].
    pub fn path(mut self, links: Vec<usize>) -> Self {
        self.path = Cow::Owned(links);
        self
    }

    /// Set the initial congestion window `x_i^(0)` (MSS). Must be finite
    /// and non-negative (the model picks initial windows in `{0, 1, …, M}`);
    /// violations surface from [`Scenario::validate`].
    pub fn initial_window(mut self, w: f64) -> Self {
        self.initial_window = w;
        self
    }

    /// Delay the sender's entry until the given step.
    pub fn start_at(mut self, tick: u64) -> Self {
        self.start_tick = tick;
        self
    }

    /// Remove the sender from the link at the given step: it is active for
    /// steps in `[start, stop)` and holds a zero window afterwards. Must
    /// exceed the start step; checked by [`Scenario::validate`].
    pub fn stop_at(mut self, tick: u64) -> Self {
        self.stop_tick = Some(tick);
        self
    }
}

/// How congestion loss is delivered to senders.
///
/// The paper's model assumes *"senders experience synchronized feedback"*:
/// every sender observes the same droptail loss rate each step. Its
/// Section 6 lists *"unsynchronized network feedback"* as a future-work
/// model extension; [`FeedbackMode::PerPacket`] provides it — each
/// sender's congestion loss is sampled per packet
/// (`Binomial(⌈x_i⌉, L)/⌈x_i⌉`), so small senders often see no loss at
/// all in a lossy step, and large senders bear proportionally more
/// back-offs. This breaks MIMD's ratio-preservation, the mechanism
/// behind its worst-case unfairness (see the crate tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeedbackMode {
    /// All senders observe the exact link loss rate (the paper's model).
    Synchronized,
    /// Each sender's loss is sampled per packet from the link loss rate
    /// (seeded; deterministic per scenario seed).
    PerPacket,
}

/// A complete simulation scenario. Build with the fluent methods, then
/// [`run`](Scenario::run) (panics on invalid configuration) or
/// [`try_run`](Scenario::try_run) (returns [`ScenarioError`]).
///
/// A scenario runs on a [`Topology`]: [`Scenario::new`] is the paper's
/// single bottleneck, [`Scenario::on`] any list of links, with each
/// sender crossing the links of its [`SenderConfig::path`].
///
/// Setters are non-panicking: all validation is centralized in
/// [`validate`](Scenario::validate), which both run paths call first.
pub struct Scenario {
    pub(crate) topology: Topology,
    pub(crate) senders: Vec<SenderConfig>,
    pub(crate) steps: usize,
    pub(crate) max_window: f64,
    pub(crate) loss_model: LossModel,
    pub(crate) seed: u64,
    /// Scheduled bandwidth changes `(step, new bandwidth in MSS/s)`,
    /// applied at the *start* of the given step. Kept sorted by step.
    pub(crate) bandwidth_changes: Vec<(u64, f64)>,
    pub(crate) feedback: FeedbackMode,
}

impl Scenario {
    /// A scenario on the given link with no senders yet, 1000 steps, no
    /// wire loss, seed 0, and the model's default `M`.
    pub fn new(link: LinkParams) -> Self {
        Scenario::on(Topology::single(link))
    }

    /// A scenario on `topology`, otherwise as [`Scenario::new`] (which is
    /// `Scenario::on(Topology::single(link))`). Senders cross the links
    /// of their [`path`](SenderConfig::path); on more than one link a
    /// sender's RTT is its path's summed base RTT plus the links'
    /// queueing delays, and its congestion loss `1 − Π(1 − L_l)` over
    /// the path.
    pub fn on(topology: Topology) -> Self {
        Scenario {
            topology,
            senders: Vec::new(),
            steps: 1000,
            max_window: MAX_WINDOW,
            loss_model: LossModel::None,
            seed: 0,
            bandwidth_changes: Vec::new(),
            feedback: FeedbackMode::Synchronized,
        }
    }

    /// Add a sender.
    pub fn sender(mut self, cfg: SenderConfig) -> Self {
        self.senders.push(cfg);
        self
    }

    /// Add `n` identical senders cloned from a prototype, all with the
    /// given initial window (the "all senders employ P" quantifier of
    /// Metrics I–V).
    pub fn homogeneous(mut self, prototype: &dyn Protocol, n: usize, initial_window: f64) -> Self {
        for _ in 0..n {
            self.senders
                .push(SenderConfig::new(prototype.clone_box()).initial_window(initial_window));
        }
        self
    }

    /// Set the number of time steps to simulate (must be at least one;
    /// checked by [`validate`](Scenario::validate)).
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Cap windows at `m` instead of the default `M` (mostly for tests).
    /// Must be positive; checked by [`validate`](Scenario::validate).
    pub fn max_window(mut self, m: f64) -> Self {
        self.max_window = m;
        self
    }

    /// Apply a wire-loss model (Metric VI scenarios and the adverse-network
    /// gauntlet). Parameter errors surface from
    /// [`validate`](Scenario::validate).
    pub fn wire_loss(mut self, model: LossModel) -> Self {
        self.loss_model = model;
        self
    }

    /// Seed the wire-loss RNG (runs with the same scenario and seed are
    /// bit-for-bit identical).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedule a bandwidth change: from step `at_step` onwards the link
    /// serves `new_bandwidth` MSS/s (propagation delay and buffer are
    /// unchanged, so the capacity `C = B·2Θ` moves with it). Must stay
    /// positive, and the topology must be a single link; both checked by
    /// [`validate`](Scenario::validate).
    ///
    /// This extends the paper's static model towards its "more realistic
    /// network model" future-work direction, and powers the
    /// *responsiveness* extension metric
    /// ([`axcc_core::axioms`] documents the paper's original eight).
    pub fn bandwidth_change(mut self, at_step: u64, new_bandwidth: f64) -> Self {
        self.bandwidth_changes.push((at_step, new_bandwidth));
        self.bandwidth_changes.sort_by_key(|&(t, _)| t);
        self
    }

    /// Select the congestion-feedback mode (default:
    /// [`FeedbackMode::Synchronized`], the paper's model).
    pub fn feedback(mut self, mode: FeedbackMode) -> Self {
        self.feedback = mode;
        self
    }

    /// Add a churned flow population: expand `plan` over this scenario's
    /// current step count (set [`steps`](Scenario::steps) *first*) and add
    /// one sender per activity interval, each a clone of `prototype`
    /// entering with a 1-MSS window at its arrival step and departing at
    /// its stop step. Plan parameter errors surface immediately.
    pub fn churn(
        self,
        plan: &axcc_topo::ChurnPlan,
        prototype: &dyn Protocol,
    ) -> Result<Self, ScenarioError> {
        self.churn_on(plan, prototype, vec![0])
    }

    /// [`churn`](Scenario::churn) with every arrival routed over `path`.
    pub fn churn_on(
        mut self,
        plan: &axcc_topo::ChurnPlan,
        prototype: &dyn Protocol,
        path: Vec<usize>,
    ) -> Result<Self, ScenarioError> {
        for iv in plan.try_expand(self.steps as u64)? {
            self.senders.push(
                SenderConfig::new(prototype.clone_box())
                    .initial_window(1.0)
                    .start_at(iv.start)
                    .stop_at(iv.stop)
                    .path(path.clone()),
            );
        }
        Ok(self)
    }

    /// Whether the topology has more than one link.
    pub(crate) fn is_multi_link(&self) -> bool {
        self.topology.num_links() > 1
    }

    /// Check the full configuration. Both [`run`](Scenario::run) and
    /// [`try_run`](Scenario::try_run) call this before simulating; it is
    /// public so schedulers can validate scenarios they did not build.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.senders.is_empty() {
            return Err(ScenarioError::NoSenders);
        }
        require(self.steps > 0, "steps", 0.0, "at least one step")?;
        positive_finite("max_window", self.max_window)?;
        self.topology.validate()?;
        self.loss_model.validate()?;
        for (i, cfg) in self.senders.iter().enumerate() {
            let check = || {
                finite_non_negative("initial_window", cfg.initial_window)?;
                cfg.stop_tick.map_or(Ok(()), |stop| {
                    let after = "after the sender's start step";
                    require(stop > cfg.start_tick, "stop_tick", stop as f64, after)
                })?;
                self.topology.validate_path(&cfg.path)
            };
            check().map_err(|e| e.for_sender(i))?;
        }
        for &(_, bw) in &self.bandwidth_changes {
            let ok = bw > 0.0 && bw.is_finite();
            let constraint = "positive and finite (bandwidth must stay positive)";
            require(ok, "bandwidth_change", bw, constraint)?;
        }
        if self.is_multi_link() && !self.bandwidth_changes.is_empty() {
            // Which link would change is undefined; no caller needs it.
            return Err(ScenarioError::ConflictingOptions {
                first: "bandwidth_change",
                second: "multi-link topology",
            });
        }
        Ok(())
    }

    /// Execute the scenario and return the trace, or a typed error for an
    /// invalid configuration or a numerically divergent run: the engine
    /// loop driving a [`TraceSink`].
    pub fn try_run(self) -> Result<RunTrace, ScenarioError> {
        let max_window = self.max_window;
        let mut sink = TraceSink::for_scenario(&self);
        try_run_scenario_with(self, &mut sink)?;
        let trace = sink.into_trace();
        debug_assert_eq!(trace.validate(max_window), Ok(()));
        Ok(trace)
    }

    /// Execute the scenario and return the trace.
    ///
    /// # Panics
    ///
    /// Panics (with the [`ScenarioError`] message) on an invalid
    /// configuration — e.g. no senders, zero steps, an out-of-range loss
    /// model — or if the simulation diverges numerically. Use
    /// [`try_run`](Scenario::try_run) to handle these as values.
    pub fn run(self) -> RunTrace {
        // tidy-allow: panic-freedom — documented panicking façade over try_run; fallible callers use the try_ path
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A fluid trace records one row per RTT step; a multi-link run gives
/// every sender its own path RTT column.
impl RunShape for Scenario {
    /// The single link, or on a multi-link topology the one with the
    /// smallest RTT floor ([`Topology::floor_link`]).
    fn trace_link(&self) -> LinkParams {
        *self.topology.link(self.topology.floor_link())
    }

    fn trace_seed(&self) -> u64 {
        self.seed
    }

    fn trace_len(&self) -> usize {
        self.steps
    }

    fn trace_protocols(&self) -> impl Iterator<Item = &dyn Protocol> {
        self.senders.iter().map(|s| s.protocol.as_ref())
    }

    fn trace_sender_rtts(&self) -> bool {
        self.is_multi_link()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcc_protocols::Aimd;

    fn link() -> LinkParams {
        LinkParams::new(1000.0, 0.05, 20.0)
    }

    #[test]
    fn builder_defaults() {
        let s = Scenario::new(link());
        assert_eq!(s.steps, 1000);
        assert_eq!(s.seed, 0);
        assert!(matches!(s.loss_model, LossModel::None));
        assert!(s.senders.is_empty());
    }

    #[test]
    fn homogeneous_clones_n_senders() {
        let reno = Aimd::reno();
        let s = Scenario::new(link()).homogeneous(&reno, 4, 2.0);
        assert_eq!(s.senders.len(), 4);
        for cfg in &s.senders {
            assert_eq!(cfg.initial_window, 2.0);
            assert_eq!(cfg.protocol.name(), "AIMD(1,0.5)");
        }
    }

    #[test]
    fn sender_config_builders() {
        let cfg = SenderConfig::new(Box::new(Aimd::reno()))
            .initial_window(30.0)
            .start_at(100);
        assert_eq!(cfg.initial_window, 30.0);
        assert_eq!(cfg.start_tick, 100);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_rejected() {
        Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .steps(0)
            .run();
    }

    #[test]
    #[should_panic(expected = "initial_window")]
    fn negative_initial_window_rejected() {
        Scenario::new(link())
            .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(-1.0))
            .run();
    }

    #[test]
    #[should_panic(expected = "invalid loss model")]
    fn invalid_loss_model_rejected() {
        Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .wire_loss(LossModel::Constant { rate: 1.5 })
            .run();
    }

    #[test]
    fn try_run_returns_typed_errors_instead_of_panicking() {
        let err = Scenario::new(link()).try_run().unwrap_err();
        assert_eq!(err, ScenarioError::NoSenders);

        let err = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .steps(0)
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidParameter { field: "steps", .. }
        ));

        let err = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .wire_loss(LossModel::Bernoulli { rate: -0.5 })
            .try_run()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidLossModel(_)));

        let err = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .max_window(0.0)
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidParameter {
                field: "max_window",
                ..
            }
        ));

        let err = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .bandwidth_change(10, -5.0)
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidParameter {
                field: "bandwidth_change",
                ..
            }
        ));
    }

    #[test]
    fn bad_paths_are_typed_sender_errors() {
        for (path, value) in [(vec![], 0.0), (vec![2], 2.0), (vec![0, 1, 0], 0.0)] {
            let err = Scenario::on(Topology::parking_lot(2, link()))
                .homogeneous(&Aimd::reno(), 1, 1.0)
                .sender(SenderConfig::new(Box::new(Aimd::reno())).path(path.clone()))
                .try_run()
                .unwrap_err();
            match err {
                ScenarioError::InvalidSender {
                    index: 1,
                    field: "path",
                    value: v,
                    ..
                } => assert_eq!(v, value, "{path:?}"),
                other => panic!("{path:?}: expected a path error, got {other:?}"),
            }
        }
        // On the one-link topology of `Scenario::new`, link 1 is out of
        // range too.
        let err = Scenario::new(link())
            .sender(SenderConfig::new(Box::new(Aimd::reno())).path(vec![1]))
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidSender { field: "path", .. }
        ));
    }

    #[test]
    fn bandwidth_changes_are_refused_on_multi_link_topologies() {
        let err = Scenario::on(Topology::parking_lot(2, link()))
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .bandwidth_change(10, 500.0)
            .try_run()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::ConflictingOptions {
                first: "bandwidth_change",
                second: "multi-link topology",
            }
        );
    }

    #[test]
    fn validate_accepts_a_well_formed_scenario() {
        let s = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 2, 1.0)
            .wire_loss(LossModel::bursty(0.01, 8.0, 0.2))
            .bandwidth_change(100, 500.0)
            .steps(200);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn bandwidth_changes_are_kept_in_step_order() {
        let s = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .bandwidth_change(150, 1000.0)
            .bandwidth_change(100, 1e-3);
        assert_eq!(s.bandwidth_changes, vec![(100, 1e-3), (150, 1000.0)]);
        assert_eq!(s.validate(), Ok(()));
    }
}
