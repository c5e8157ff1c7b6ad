//! The simulation loop: synchronized discrete-time dynamics (Section 2).
//!
//! The loop is written once, as [`try_run_scenario_with`], against the
//! block visitor both engines share ([`StepSink`], in `axcc-core`): steps
//! are staged into [`StepBlock`]s and each full block is handed to the
//! sink. A `TraceSink` records the [`Scenario::try_run`] trace; a
//! [`MetricAccumulator`] (via [`try_run_scenario_streaming`]) folds each
//! block straight into the axiom scores in O(senders) memory, never
//! materializing a trajectory.
//!
//! The same loop runs every topology. A one-link scenario takes the
//! paper's arithmetic: the step RTT is `link.rtt(X)` and every sender
//! shares it. A multi-link scenario sums per-link loads over the senders'
//! paths, then gives each sender its own RTT (path base RTT plus the sum
//! of queueing delays) and congestion loss (`1 − Π(1 − L_l)`).

use crate::loss::{compose_loss, sample_loss_fraction, LossModel, LossProcess};
use crate::scenario::{FeedbackMode, Scenario, SenderConfig};
use axcc_core::axioms::streaming::{
    metric_accumulator_for, MetricAccumulator, StepBlock, StreamOptions,
};
use axcc_core::protocol::clamp_window;
use axcc_core::sink::StepSink;
use axcc_core::{Observation, ScenarioError};
use axcc_topo::Topology;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;

/// Struct-of-arrays per-sender state: one contiguous lane per field, so
/// the total-window reduction and the per-sender step sweep flat `f64`
/// slices instead of hopping across an array of structs.
#[derive(Debug, Default)]
struct SenderLanes {
    /// Current congestion windows `x_i^(t)` (idle senders hold 0.0).
    windows: Vec<f64>,
    /// Running per-sender min-RTT.
    min_rtts: Vec<f64>,
    /// Admission flags (a sender is active iff started and not stopped).
    started: Vec<bool>,
    /// Departure flags.
    stopped: Vec<bool>,
}

fn reset_lane<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

/// Per-link lanes and per-sender path spans of a multi-link run.
#[derive(Debug, Default)]
struct LinkLanes {
    /// Per-link load `X_l`: the windows of the senders crossing `l`.
    loads: Vec<f64>,
    /// Per-link droptail loss `L_l(X_l)`.
    link_losses: Vec<f64>,
    /// Per-link queueing delay `rtt_l(X_l) − 2Θ_l`.
    qdelays: Vec<f64>,
    /// Every sender's path, concatenated in sender order.
    path_links: Vec<usize>,
    /// Sender `i`'s path is `path_links[spans[i].0..spans[i].1]`.
    spans: Vec<(usize, usize)>,
    /// Per-sender base RTT: the path's summed `2Θ` floors.
    base_rtts: Vec<f64>,
}

impl LinkLanes {
    /// Size the link lanes for `topology` and lay out every sender's path.
    fn prepare(&mut self, topology: &Topology, senders: &[SenderConfig]) {
        let nl = topology.num_links();
        reset_lane(&mut self.loads, nl, 0.0);
        reset_lane(&mut self.link_losses, nl, 0.0);
        reset_lane(&mut self.qdelays, nl, 0.0);
        self.path_links.clear();
        self.spans.clear();
        self.base_rtts.clear();
        for cfg in senders {
            let start = self.path_links.len();
            self.path_links.extend_from_slice(&cfg.path);
            self.spans.push((start, self.path_links.len()));
            // Constant across the run, so summed once, in path order.
            self.base_rtts.push(topology.path_min_rtt(&cfg.path));
        }
    }
}

/// What the per-sender step reads and writes: the senders' protocols and
/// lanes, the wire-loss sampler and the run's one RNG.
struct SenderStep<'a> {
    senders: &'a mut [SenderConfig],
    windows: &'a mut [f64],
    min_rtts: &'a mut [f64],
    wire_loss: &'a mut LossProcess,
    rng: ChaCha8Rng,
    feedback: FeedbackMode,
    max_window: f64,
}

impl SenderStep<'_> {
    /// Step `t` for each sender in `active` (ascending) on the RTT and
    /// congestion loss `link(i, block)` gives it (a multi-link `link` also
    /// stages the sender's path RTT): composed loss (the congestion loss
    /// as is under `path_loss_only`), min-RTT, staged row, the protocol's
    /// next window, divergence check and clamp. The first non-finite
    /// request aborts, so the lowest-index offender is named. Always
    /// inlined: each topology's body gets its own copy, specialized to
    /// its `link` closure (DESIGN.md §8).
    #[inline(always)]
    fn step_senders(
        &mut self,
        active: &[usize],
        t: u64,
        block: &mut StepBlock,
        path_loss_only: bool,
        link: impl Fn(usize, &mut StepBlock) -> (f64, f64),
    ) -> Result<(), ScenarioError> {
        for &i in active {
            let (rtt, congestion_loss) = link(i, block);
            let w = self.windows[i];
            let loss = if path_loss_only {
                congestion_loss
            } else {
                let wire = self.wire_loss.sample(&mut self.rng, i, w);
                let observed = match self.feedback {
                    FeedbackMode::Synchronized => congestion_loss,
                    FeedbackMode::PerPacket => {
                        sample_loss_fraction(&mut self.rng, w, congestion_loss)
                    }
                };
                compose_loss(observed, wire)
            };
            self.min_rtts[i] = self.min_rtts[i].min(rtt);
            block.stage_sender(i, w, loss, w * (1.0 - loss) / rtt);
            let requested = self.senders[i].protocol.next_window(&Observation {
                tick: t,
                window: w,
                loss_rate: loss,
                rtt,
                min_rtt: self.min_rtts[i],
            });
            if !requested.is_finite() {
                return Err(ScenarioError::NumericalDivergence {
                    step: t,
                    sender: i,
                    context: "requested window",
                    value: requested,
                });
            }
            self.windows[i] = clamp_window(requested, self.max_window);
        }
        Ok(())
    }
}

/// The engine's per-run arena: every buffer a simulation needs, owned in
/// one reusable bundle so back-to-back runs (sweep workers, the serve
/// daemon) stop paying per-run allocation. [`EngineWorkspace::new`] is
/// free — lanes size themselves lazily on first run — and a workspace can
/// be reused across runs of *different* shapes (each run re-sizes and
/// re-zeroes what it needs; the bit-identity tests cover reuse).
#[derive(Debug, Default)]
struct EngineWorkspace {
    lanes: SenderLanes,
    /// Indices of currently-active senders, ascending — rebuilt at every
    /// activity boundary so the step loop iterates exactly the senders
    /// that matter without per-sender flag checks.
    active: Vec<usize>,
    /// Activity-span boundaries (see `try_run_scenario_with_workspace`).
    boundaries: Vec<u64>,
    /// The staging block batched into the sink.
    block: StepBlock,
    /// Wire-loss sampler; its Gilbert–Elliott chain flags are reused
    /// across runs like the lanes.
    wire_loss: LossProcess,
    /// Link lanes and path spans, prepared only for multi-link runs.
    links: LinkLanes,
}

impl EngineWorkspace {
    /// A fresh, empty workspace (no allocation until first use).
    fn new() -> Self {
        EngineWorkspace::default()
    }

    /// Size every lane for an `n`-sender run under `loss_model` and clear
    /// run state.
    fn prepare(&mut self, n: usize, loss_model: LossModel) {
        reset_lane(&mut self.lanes.windows, n, 0.0);
        reset_lane(&mut self.lanes.min_rtts, n, f64::INFINITY);
        reset_lane(&mut self.lanes.started, n, false);
        reset_lane(&mut self.lanes.stopped, n, false);
        self.active.clear();
        self.active.reserve(n);
        self.boundaries.clear();
        self.block.reshape(n, StepBlock::DEFAULT_CAPACITY);
        self.wire_loss.reset(loss_model, n);
    }
}

thread_local! {
    /// The per-thread engine workspace backing [`try_run_scenario_with`]:
    /// one arena reused across every run this thread executes, so
    /// long-lived sweep workers allocate per-run state once. The
    /// workspace is *taken out* of the cell while a run is in flight, so
    /// a re-entrant call (a sink that itself runs a scenario) falls back
    /// to a fresh workspace instead of aliasing the busy one.
    static WORKSPACE: RefCell<EngineWorkspace> = RefCell::new(EngineWorkspace::new());
}

fn with_workspace<R>(f: impl FnOnce(&mut EngineWorkspace) -> R) -> R {
    WORKSPACE.with(|cell| {
        let mut ws = cell.replace(EngineWorkspace::new());
        let out = f(&mut ws);
        cell.replace(ws);
        out
    })
}

/// Run a scenario to completion, feeding every step to `sink`, or return
/// a typed error for an invalid configuration or a numerically divergent
/// run (the sink then holds a partial prefix and must be discarded).
///
/// At each step `t`:
///
/// 1. senders whose start step is `t` enter with their initial windows,
///    and senders whose stop step is `t` depart — their window drops to
///    zero and stays there (churned populations; see
///    `SenderConfig::stop_at`);
/// 2. the total active window `X^(t)` determines the step's RTT
///    (equation 1) and congestion loss rate (both shared by all senders —
///    synchronized feedback);
/// 3. each active sender's wire loss is sampled and composed with the
///    congestion loss; the sender's protocol observes its window, composed
///    loss, RTT and running min-RTT, and selects the next window;
/// 4. the requested windows are checked for divergence (a NaN or infinite
///    request aborts with [`ScenarioError::NumericalDivergence`] rather
///    than emitting garbage), clamped to `[0, M]`, and become `x̄^(t+1)`.
///
/// Senders that have not yet entered (or have departed) are reported with
/// zero window and goodput so every step is rectangular.
///
/// Uses the calling thread's cached engine workspace.
pub fn try_run_scenario_with<S: StepSink>(
    scenario: Scenario,
    sink: &mut S,
) -> Result<(), ScenarioError> {
    with_workspace(|ws| try_run_scenario_with_workspace(scenario, sink, ws))
}

/// [`try_run_scenario_with`] against a caller-held [`EngineWorkspace`].
///
/// The hot path is organized around two refactors of the scalar loop,
/// both bit-identity-preserving (the equivalence proptests pin the new
/// engine to a verbatim copy of the scalar one):
///
/// * **activity spans** — admissions, departures and bandwidth changes
///   can only take effect at a precomputed set of boundary steps, so the
///   per-step scans are hoisted out of the inner loop entirely and the
///   active-sender set is rebuilt once per span;
/// * **one per-sender step** — each sender's loss draw, protocol update,
///   divergence check and clamp run in one walk over the active senders
///   ([`SenderStep::step_senders`]), which both topologies' bodies call,
///   and finished rows are staged into a [`StepBlock`] delivered to the
///   sink in batches ([`StepSink::on_steps`]).
///
/// A protocol sees only its own [`Observation`] and never the engine's
/// RNG, so fusing the walk leaves the draws, and the bits, as they were.
/// The engine keeps one shortcut, measured to pay for itself (DESIGN.md
/// §8): the flat-link hoist (step RTT and congestion loss become span
/// constants when `n` clamped windows cannot reach capacity). The only
/// other kept shortcut, Cubic's cube-root cache, lives in the protocol.
///
/// Every f64 reduction keeps the scalar engine's exact evaluation order:
/// the total window is a strict left-to-right `iter().sum()` and goodput
/// is `w * (1 - l) / rtt`. A multi-link topology keeps the push-based
/// network reference's order instead: per-link loads summed in sender
/// order, a sender's RTT as its base RTT plus the sum of its links'
/// queueing delays, and its congestion loss as `1 − Π(1 − L_l)` clamped
/// below 1.
fn try_run_scenario_with_workspace<S: StepSink>(
    scenario: Scenario,
    sink: &mut S,
    ws: &mut EngineWorkspace,
) -> Result<(), ScenarioError> {
    scenario.validate()?;
    let multi_link = scenario.is_multi_link();
    let floor = scenario.topology.floor_link();
    let Scenario {
        topology,
        mut senders,
        steps,
        max_window,
        loss_model,
        seed,
        bandwidth_changes,
        feedback,
    } = scenario;
    let link = *topology.link(0);

    let n = senders.len();
    let horizon = steps as u64;

    // Without wire loss or sampled feedback a multi-link sender's loss is
    // its path's congestion loss as is, not passed through `compose_loss`.
    let path_loss_only = matches!(
        (loss_model, feedback),
        (LossModel::None, FeedbackMode::Synchronized)
    );

    ws.prepare(n, loss_model);
    if multi_link {
        ws.links.prepare(&topology, &senders);
        ws.block.track_sender_rtts();
    }
    let EngineWorkspace {
        lanes,
        active,
        boundaries,
        block,
        wire_loss,
        links,
    } = ws;

    // Activity boundaries: the only steps where the active population or
    // the link can change. The scalar engine re-checked all three every
    // step; between consecutive boundaries those checks are provably
    // no-ops, so the inner loop hoists them. Boundary 0 covers everything
    // scheduled at or before the first step; events scheduled at or past
    // the horizon never fire (exactly as in the per-step scans).
    boundaries.push(0);
    for cfg in &senders {
        if cfg.start_tick > 0 && cfg.start_tick < horizon {
            boundaries.push(cfg.start_tick);
        }
        if let Some(stop) = cfg.stop_tick {
            if stop > 0 && stop < horizon {
                boundaries.push(stop);
            }
        }
    }
    for &(at, _) in &bandwidth_changes {
        if at > 0 && at < horizon {
            boundaries.push(at);
        }
    }
    boundaries.sort_unstable();
    boundaries.dedup();

    // With a fixed population every sender is staged every step, so the
    // block's idle-lane zeroing between flushes is skipped.
    let static_dense = senders
        .iter()
        .all(|s| s.start_tick == 0 && s.stop_tick.is_none());

    // The active link: bandwidth may change mid-run (an extension of the
    // paper's static model; see `Scenario::bandwidth_change`). Propagation
    // delay and buffer never change, so the trace's recorded link keeps
    // the correct RTT floor for validation.
    let mut active_link = link;
    let mut pending_changes = bandwidth_changes.iter().copied().peekable();

    let mut run = SenderStep {
        senders: &mut senders,
        windows: &mut lanes.windows,
        min_rtts: &mut lanes.min_rtts,
        wire_loss,
        rng: ChaCha8Rng::seed_from_u64(seed),
        feedback,
        max_window,
    };
    // Commit the staged row of step `t`, flushing a full block to the sink.
    let mut commit = |block: &mut StepBlock, t: u64| {
        if block.advance() {
            sink.on_steps(block);
            block.begin(t as usize + 1);
            if !static_dense {
                block.zero_senders();
            }
        }
    };

    for bi in 0..boundaries.len() {
        let span_start = boundaries[bi];
        let span_end = boundaries.get(bi + 1).copied().unwrap_or(horizon);

        // (0) scheduled link changes up to this span.
        while let Some(&(at, new_bw)) = pending_changes.peek() {
            if at > span_start {
                break;
            }
            pending_changes.next();
            active_link = axcc_core::LinkParams::new(new_bw, link.prop_delay, link.buffer);
        }

        // (1) admissions and departures due at this span, then the span's
        // active set (ascending, so RNG draw order matches the scalar
        // engine's 0..n sweep).
        active.clear();
        for (i, cfg) in run.senders.iter().enumerate() {
            if !lanes.started[i] && span_start >= cfg.start_tick {
                lanes.started[i] = true;
                run.windows[i] = clamp_window(cfg.initial_window, max_window);
            }
            if let Some(stop) = cfg.stop_tick {
                if !lanes.stopped[i] && span_start >= stop {
                    lanes.stopped[i] = true;
                    run.windows[i] = 0.0;
                }
            }
            if lanes.started[i] && !lanes.stopped[i] {
                active.push(i);
            }
        }

        if multi_link {
            let LinkLanes {
                loads,
                link_losses,
                qdelays,
                path_links,
                spans,
                base_rtts,
            } = &mut *links;
            for t in span_start..span_end {
                // (2) per-link state: each active sender's window added to
                // every link on its path, senders in order (idle senders
                // hold 0.0 and would add nothing).
                loads.fill(0.0);
                for &i in active.iter() {
                    let (a, b) = spans[i];
                    for &l in &path_links[a..b] {
                        loads[l] += run.windows[i];
                    }
                }
                for (l, hop) in topology.links().iter().enumerate() {
                    link_losses[l] = hop.loss_rate(loads[l]);
                    qdelays[l] = hop.rtt(loads[l]) - hop.min_rtt();
                }
                let total: f64 = run.windows.iter().sum();
                let floor_link = topology.link(floor);
                block.stage_shared(total, floor_link.rtt(loads[floor]), link_losses[floor]);

                // (3) every sender's path RTT, recorded for idle senders
                // too, and the active senders' step on their own paths.
                let path_rtt = |i: usize| {
                    let (a, b) = spans[i];
                    base_rtts[i] + path_links[a..b].iter().map(|&l| qdelays[l]).sum::<f64>()
                };
                for i in (0..n).filter(|&i| !lanes.started[i] || lanes.stopped[i]) {
                    block.stage_sender_rtt(i, path_rtt(i));
                }
                run.step_senders(active, t, block, path_loss_only, |i, block| {
                    let (a, b) = spans[i];
                    let rtt = path_rtt(i);
                    block.stage_sender_rtt(i, rtt);
                    // Two near-1 link losses can round the product's
                    // complement to exactly 1.0; clamp as `compose_loss`.
                    let loss = 1.0
                        - path_links[a..b]
                            .iter()
                            .map(|&l| 1.0 - link_losses[l])
                            .product::<f64>();
                    (rtt, loss.min(1.0 - f64::EPSILON))
                })?;
                commit(block, t);
            }
            continue;
        }

        // Below link capacity the step RTT sits on its `2Θ` floor and the
        // congestion-loss branch is dead, so when even the largest
        // representable total — `n` clamped windows plus summation
        // rounding headroom — cannot reach capacity, both per-step link
        // equations hoist to span constants. The robustness sweeps'
        // infinite-capacity link is the motivating case; `min_rtt()` is
        // the same `2.0 * prop_delay` expression `rtt()` floors to.
        let flat_link = (n as f64) * max_window * (1.0 + 1e-9) < active_link.capacity();
        let flat_rtt = active_link.min_rtt();

        for t in span_start..span_end {
            // (2) shared link state. Idle senders hold exactly 0.0, and
            // adding +0.0 to a non-negative partial sum is exact, so
            // summing every slot is bit-identical to filtering on the
            // active set. (A delta-incremental running total is
            // deliberately NOT used: f64 addition is non-associative, so
            // incremental updates would drift from the recorded column
            // and break the streaming path's bit-identity contract.)
            let total: f64 = run.windows.iter().sum();
            let (rtt, congestion_loss) = if flat_link {
                (flat_rtt, 0.0)
            } else {
                (active_link.rtt(total), active_link.loss_rate(total))
            };
            block.stage_shared(total, rtt, congestion_loss);

            // (3) the active senders' step on the shared RTT and loss;
            // idle senders keep the block's staged zeros.
            run.step_senders(active, t, block, false, |_, _| (rtt, congestion_loss))?;
            commit(block, t);
        }
    }
    if !block.is_empty() {
        sink.on_steps(block);
    }
    Ok(())
}

/// Run a scenario through the trace-free streaming path, returning the
/// populated accumulator. Bit-identical to replaying the trace
/// [`Scenario::try_run`] records, without the O(steps × senders) trace
/// allocation.
pub fn try_run_scenario_streaming(
    scenario: Scenario,
    options: &StreamOptions,
) -> Result<MetricAccumulator, ScenarioError> {
    let mut acc = metric_accumulator_for(&scenario, options);
    try_run_scenario_streaming_into(scenario, &mut acc)?;
    Ok(acc)
}

/// Like [`try_run_scenario_streaming`], but reusing a caller-held
/// accumulator (reset first) so sweep jobs running many same-shape
/// scenarios allocate it once. The accumulator must have been built for
/// this scenario's shape (same sender count and step count).
pub fn try_run_scenario_streaming_into(
    scenario: Scenario,
    acc: &mut MetricAccumulator,
) -> Result<(), ScenarioError> {
    debug_assert_eq!(acc.num_senders(), scenario.senders.len());
    debug_assert_eq!(acc.steps_expected(), scenario.steps);
    acc.reset();
    let (steps, n) = (scenario.steps, scenario.senders.len());
    try_run_scenario_with(scenario, acc)?;
    crate::stats::record_streamed(steps, n);
    Ok(())
}

/// Streaming counterpart of [`Scenario::run`]: run the scenario and fold
/// it straight into a fresh [`MetricAccumulator`].
///
/// # Panics
///
/// Panics on an invalid scenario or a numerically divergent run.
pub fn run_scenario_streaming(scenario: Scenario, options: &StreamOptions) -> MetricAccumulator {
    // tidy-allow: panic-freedom — documented panicking façade over try_run_scenario_streaming; fallible callers use the try_ path
    try_run_scenario_streaming(scenario, options).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`run_scenario_streaming`], but reusing a caller-held accumulator
/// (see [`try_run_scenario_streaming_into`]).
///
/// # Panics
///
/// Panics on an invalid scenario or a numerically divergent run.
pub fn run_scenario_streaming_into(scenario: Scenario, acc: &mut MetricAccumulator) {
    // tidy-allow: panic-freedom — documented panicking façade over try_run_scenario_streaming_into; fallible callers use the try_ path
    try_run_scenario_streaming_into(scenario, acc).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossModel;
    use crate::scenario::SenderConfig;
    use axcc_core::axioms::streaming::{MetricConfig, StepRecord};
    use axcc_core::protocol::MAX_WINDOW;
    use axcc_core::{LinkParams, RunTrace, TraceSink};
    use axcc_protocols::{Aimd, Mimd, Pcc, RobustAimd, Vegas};

    /// C = 100 MSS, τ = 20 MSS.
    fn link() -> LinkParams {
        LinkParams::new(1000.0, 0.05, 20.0)
    }

    /// Score a recorded trace over its second half.
    fn score(trace: &RunTrace) -> MetricAccumulator {
        MetricAccumulator::replay(trace, &MetricConfig::for_trace(trace))
    }

    /// A verbatim copy of the pre-SoA scalar engine: per-step admission,
    /// departure and bandwidth scans, array-of-records emission, one
    /// `on_step` per step. This is the bit-identity reference the lane
    /// engine is pinned against.
    fn run_reference<S: StepSink>(scenario: Scenario, sink: &mut S) -> Result<(), ScenarioError> {
        scenario.validate()?;
        let Scenario {
            topology,
            mut senders,
            steps,
            max_window,
            loss_model,
            seed,
            bandwidth_changes,
            feedback,
        } = scenario;
        let link = *topology.link(0);

        let mut active_link = link;
        let mut pending_changes = bandwidth_changes.into_iter().peekable();

        let n = senders.len();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut wire_loss = LossProcess::new(loss_model, n);

        let mut windows: Vec<f64> = vec![0.0; n];
        let mut started: Vec<bool> = vec![false; n];
        let mut stopped: Vec<bool> = vec![false; n];
        let mut min_rtts: Vec<f64> = vec![f64::INFINITY; n];
        let mut records: Vec<StepRecord> = Vec::with_capacity(n);

        let mut pending_admissions = n;
        let mut pending_departures = senders.iter().filter(|s| s.stop_tick.is_some()).count();

        for t in 0..steps as u64 {
            while let Some(&(at, new_bw)) = pending_changes.peek() {
                if at > t {
                    break;
                }
                pending_changes.next();
                active_link = axcc_core::LinkParams::new(new_bw, link.prop_delay, link.buffer);
            }

            if pending_admissions > 0 {
                for (i, cfg) in senders.iter().enumerate() {
                    if !started[i] && t >= cfg.start_tick {
                        started[i] = true;
                        windows[i] = clamp_window(cfg.initial_window, max_window);
                        pending_admissions -= 1;
                    }
                }
            }
            if pending_departures > 0 {
                for (i, cfg) in senders.iter().enumerate() {
                    if let Some(stop) = cfg.stop_tick {
                        if !stopped[i] && t >= stop {
                            stopped[i] = true;
                            windows[i] = 0.0;
                            pending_departures -= 1;
                        }
                    }
                }
            }

            let total: f64 = windows.iter().sum();
            let rtt = active_link.rtt(total);
            let congestion_loss = active_link.loss_rate(total);

            records.clear();
            for i in 0..n {
                if !started[i] || stopped[i] {
                    records.push(StepRecord {
                        window: 0.0,
                        loss: 0.0,
                        rtt,
                        goodput: 0.0,
                    });
                    continue;
                }
                let wire = wire_loss.sample(&mut rng, i, windows[i]);
                let observed_congestion = match feedback {
                    FeedbackMode::Synchronized => congestion_loss,
                    FeedbackMode::PerPacket => {
                        sample_loss_fraction(&mut rng, windows[i], congestion_loss)
                    }
                };
                let loss = compose_loss(observed_congestion, wire);
                min_rtts[i] = min_rtts[i].min(rtt);

                let w = windows[i];
                records.push(StepRecord {
                    window: w,
                    loss,
                    rtt,
                    goodput: w * (1.0 - loss) / rtt,
                });

                let obs = Observation {
                    tick: t,
                    window: w,
                    loss_rate: loss,
                    rtt,
                    min_rtt: min_rtts[i],
                };
                let requested = senders[i].protocol.next_window(&obs);
                if !requested.is_finite() {
                    return Err(ScenarioError::NumericalDivergence {
                        step: t,
                        sender: i,
                        context: "requested window",
                        value: requested,
                    });
                }
                windows[i] = clamp_window(requested, max_window);
            }

            sink.on_step(t, total, rtt, congestion_loss, &records);
        }
        Ok(())
    }

    /// The multi-hop oracle: the push-based network loop multi-link runs
    /// used before they joined the SoA engine, kept as written (per-step
    /// allocations, base RTTs re-summed every step, every sender visited
    /// every step), plus the divergence guard, the clamp of the composed
    /// path loss below 1 and the wire-loss/feedback composition of the
    /// one-link engine.
    fn run_network_reference<S: StepSink>(
        scenario: Scenario,
        sink: &mut S,
    ) -> Result<(), ScenarioError> {
        scenario.validate()?;
        let floor = scenario.topology.floor_link();
        let Scenario {
            topology,
            mut senders,
            steps,
            max_window,
            loss_model,
            seed,
            feedback,
            ..
        } = scenario;

        let n = senders.len();
        let nl = topology.num_links();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut wire_loss = LossProcess::new(loss_model, n);
        let mut windows: Vec<f64> = vec![0.0; n];
        let mut min_rtts = vec![f64::INFINITY; n];
        let mut records: Vec<StepRecord> = Vec::with_capacity(n);

        for t in 0..steps as u64 {
            for (f, cfg) in senders.iter().enumerate() {
                if t == cfg.start_tick {
                    windows[f] = clamp_window(cfg.initial_window, max_window);
                }
                if cfg.stop_tick == Some(t) {
                    windows[f] = 0.0;
                }
            }

            let mut loads = vec![0.0; nl];
            for (f, cfg) in senders.iter().enumerate() {
                for &l in cfg.path.iter() {
                    loads[l] += windows[f];
                }
            }
            let losses: Vec<f64> = (0..nl)
                .map(|l| topology.link(l).loss_rate(loads[l]))
                .collect();
            let qdelays: Vec<f64> = (0..nl)
                .map(|l| {
                    let link = topology.link(l);
                    link.rtt(loads[l]) - link.min_rtt()
                })
                .collect();
            let total: f64 = windows.iter().sum();

            records.clear();
            for (f, cfg) in senders.iter_mut().enumerate() {
                let base_rtt: f64 = cfg.path.iter().map(|&l| topology.link(l).min_rtt()).sum();
                let rtt: f64 = base_rtt + cfg.path.iter().map(|&l| qdelays[l]).sum::<f64>();

                let active = t >= cfg.start_tick && cfg.stop_tick.is_none_or(|s| t < s);
                if !active {
                    records.push(StepRecord {
                        window: 0.0,
                        loss: 0.0,
                        rtt,
                        goodput: 0.0,
                    });
                    continue;
                }

                let congestion = (1.0 - cfg.path.iter().map(|&l| 1.0 - losses[l]).product::<f64>())
                    .min(1.0 - f64::EPSILON);
                let loss = match (loss_model, feedback) {
                    (LossModel::None, FeedbackMode::Synchronized) => congestion,
                    _ => {
                        let wire = wire_loss.sample(&mut rng, f, windows[f]);
                        let observed = match feedback {
                            FeedbackMode::Synchronized => congestion,
                            FeedbackMode::PerPacket => {
                                sample_loss_fraction(&mut rng, windows[f], congestion)
                            }
                        };
                        compose_loss(observed, wire)
                    }
                };
                min_rtts[f] = min_rtts[f].min(rtt);

                let w = windows[f];
                records.push(StepRecord {
                    window: w,
                    loss,
                    rtt,
                    goodput: w * (1.0 - loss) / rtt,
                });

                let obs = Observation {
                    tick: t,
                    window: w,
                    loss_rate: loss,
                    rtt,
                    min_rtt: min_rtts[f],
                };
                let requested = cfg.protocol.next_window(&obs);
                if !requested.is_finite() {
                    return Err(ScenarioError::NumericalDivergence {
                        step: t,
                        sender: f,
                        context: "requested window",
                        value: requested,
                    });
                }
                windows[f] = clamp_window(requested, max_window);
            }

            let floor_link = topology.link(floor);
            sink.on_step(
                t,
                total,
                floor_link.rtt(loads[floor]),
                losses[floor],
                &records,
            );
        }
        Ok(())
    }

    /// Run `build()` through the engine and its reference (the scalar
    /// loop on one link, the network loop on several) and require
    /// bit-identical traces (or identical typed errors).
    fn assert_engines_match(build: impl Fn() -> Scenario) {
        let sc = build();
        let mut reference = TraceSink::for_scenario(&sc);
        let ra = if sc.is_multi_link() {
            run_network_reference(sc, &mut reference)
        } else {
            run_reference(sc, &mut reference)
        };
        let sc = build();
        let mut lanes = TraceSink::for_scenario(&sc);
        let rb = try_run_scenario_with(sc, &mut lanes);
        match (ra, rb) {
            (Ok(()), Ok(())) => {
                let a = reference.into_trace();
                let b = lanes.into_trace();
                assert_eq!(a, b, "lane engine diverged from scalar reference");
            }
            (Err(ea), Err(eb)) => assert_eq!(format!("{ea:?}"), format!("{eb:?}")),
            (ra, rb) => panic!("engines disagree on outcome: {ra:?} vs {rb:?}"),
        }
    }

    #[test]
    fn single_reno_fills_the_pipe() {
        let trace = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .steps(1000)
            .run();
        trace.validate(axcc_core::protocol::MAX_WINDOW).unwrap();
        // Sawtooth between 0.5·(C+τ) = 60 and C+τ = 120: mean utilization
        // well above the worst-case b = 0.5.
        let acc = score(&trace);
        let eff = acc.measured_efficiency();
        assert!(eff >= 0.5, "efficiency {eff}");
        let mean = acc.mean_utilization();
        assert!(mean > 0.8, "mean utilization {mean}");
    }

    #[test]
    fn reno_sawtooth_is_periodic_and_lossy_at_peaks() {
        let trace = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .steps(600)
            .run();
        let tail = trace.tail_start(0.5);
        // Loss recurs (Claim 1: a fast-utilizing loss-based protocol cannot
        // be 0-loss)…
        let events: usize = trace.loss[tail..].iter().filter(|&&l| l > 0.0).count();
        assert!(events >= 2, "loss events in tail: {events}");
        // …but single-step loss is bounded by the overshoot of one +1 step.
        let max_loss = trace.loss[tail..].iter().copied().fold(0.0, f64::max);
        assert!(max_loss < 0.05, "max loss {max_loss}");
    }

    #[test]
    fn two_renos_converge_to_fairness_from_skewed_start() {
        let trace = Scenario::new(link())
            .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(100.0))
            .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(1.0))
            .steps(3000)
            .run();
        let f = score(&trace).measured_fairness();
        assert!(f > 0.8, "fairness {f}");
    }

    #[test]
    fn two_mimds_preserve_imbalance() {
        let trace = Scenario::new(link())
            .sender(SenderConfig::new(Box::new(Mimd::scalable())).initial_window(40.0))
            .sender(SenderConfig::new(Box::new(Mimd::scalable())).initial_window(10.0))
            .steps(2000)
            .run();
        let f = score(&trace).measured_fairness();
        // Ratio stays 1:4 — far from fair (Table 1's <0> fairness).
        assert!(f < 0.3, "fairness {f}");
    }

    #[test]
    fn late_joiner_enters_at_start_tick() {
        let trace = Scenario::new(link())
            .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(1.0))
            .sender(
                SenderConfig::new(Box::new(Aimd::reno()))
                    .initial_window(1.0)
                    .start_at(200),
            )
            .steps(400)
            .run();
        // Before step 200 the second sender is idle.
        assert!(trace.senders[1].window[..200].iter().all(|&w| w == 0.0));
        assert_eq!(trace.senders[1].window[200], 1.0);
        assert!(trace.senders[1].window[399] > 1.0);
    }

    #[test]
    fn departing_sender_holds_zero_window_after_stop() {
        let trace = Scenario::new(link())
            .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(1.0))
            .sender(
                SenderConfig::new(Box::new(Aimd::reno()))
                    .initial_window(1.0)
                    .start_at(100)
                    .stop_at(300),
            )
            .steps(500)
            .run();
        // Active exactly in [100, 300).
        assert!(trace.senders[1].window[..100].iter().all(|&w| w == 0.0));
        assert_eq!(trace.senders[1].window[100], 1.0);
        assert!(trace.senders[1].window[150] > 1.0);
        assert!(trace.senders[1].window[300..].iter().all(|&w| w == 0.0));
        assert!(trace.senders[1].goodput[300..].iter().all(|&g| g == 0.0));
        // The survivor reclaims the vacated capacity.
        let before = axcc_core::trace::mean(&trace.senders[0].window[250..300]);
        let after = axcc_core::trace::mean(&trace.senders[0].window[450..]);
        assert!(after > before, "after {after} vs before {before}");
    }

    #[test]
    fn departed_sender_never_contributes_to_the_total() {
        let trace = Scenario::new(link())
            .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(1.0))
            .sender(
                SenderConfig::new(Box::new(Aimd::reno()))
                    .initial_window(50.0)
                    .stop_at(50),
            )
            .steps(200)
            .run();
        for t in 50..200 {
            assert_eq!(
                trace.total_window[t].to_bits(),
                trace.senders[0].window[t].to_bits(),
                "step {t}"
            );
        }
    }

    #[test]
    fn stop_at_or_before_start_is_rejected() {
        let err = Scenario::new(link())
            .sender(
                SenderConfig::new(Box::new(Aimd::reno()))
                    .start_at(100)
                    .stop_at(100),
            )
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidSender {
                field: "stop_tick",
                ..
            }
        ));
    }

    #[test]
    fn churn_builder_expands_the_plan_into_senders() {
        let plan = axcc_topo::ChurnPlan::poisson(0.02, 200.0).seed(9);
        let sc = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 2, 1.0)
            .steps(1000)
            .churn(&plan, &Aimd::reno())
            .unwrap();
        let n_churned = sc.senders.len() - 2;
        let expected = plan.try_expand(1000).unwrap();
        assert_eq!(n_churned, expected.len());
        assert!(n_churned > 0, "plan produced no arrivals at this scale");
        let trace = sc.run();
        // Every churned sender is idle outside its interval.
        for (k, iv) in expected.iter().enumerate() {
            let s = &trace.senders[2 + k];
            for t in 0..trace.len() as u64 {
                if !iv.contains(t) {
                    assert_eq!(s.window[t as usize], 0.0, "sender {k} step {t}");
                }
            }
        }
    }

    #[test]
    fn churned_runs_are_deterministic_per_seed() {
        let run = |seed| {
            Scenario::new(link())
                .homogeneous(&Aimd::reno(), 2, 1.0)
                .steps(800)
                .churn(
                    &axcc_topo::ChurnPlan::poisson(0.01, 150.0).seed(seed),
                    &Aimd::reno(),
                )
                .unwrap()
                .run()
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4), run(5));
    }

    #[test]
    fn deterministic_without_wire_loss() {
        let run = || {
            Scenario::new(link())
                .homogeneous(&Aimd::reno(), 3, 2.0)
                .steps(500)
                .run()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deterministic_per_seed_with_wire_loss() {
        let run = |seed| {
            Scenario::new(link())
                .homogeneous(&Aimd::reno(), 2, 2.0)
                .wire_loss(LossModel::Bernoulli { rate: 0.01 })
                .seed(seed)
                .steps(500)
                .run()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn zero_rate_bernoulli_runs_as_no_wire_loss() {
        // The CLI and the daemon always pass their wire rate through
        // `Bernoulli`; at rate 0 the run is the lossless one, bit for bit.
        let run = |model| {
            Scenario::new(link())
                .homogeneous(&Aimd::reno(), 2, 2.0)
                .wire_loss(model)
                .seed(3)
                .steps(500)
                .run()
        };
        assert_eq!(
            run(LossModel::Bernoulli { rate: 0.0 }),
            run(LossModel::None)
        );
    }

    #[test]
    fn deterministic_per_seed_with_bursty_loss() {
        let run = |seed| {
            Scenario::new(link())
                .homogeneous(&Aimd::reno(), 2, 2.0)
                .wire_loss(LossModel::bursty(0.01, 8.0, 0.2))
                .seed(seed)
                .steps(500)
                .run()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn bursty_loss_reaches_the_senders() {
        // The composed per-sender loss column must show wire loss above
        // the congestion floor in bad-state steps.
        let trace = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .wire_loss(LossModel::bursty(0.02, 8.0, 0.2))
            .seed(3)
            .steps(1000)
            .run();
        let lossy = trace.senders[0].loss.iter().filter(|&&l| l >= 0.19).count();
        assert!(lossy > 10, "bad-state steps observed: {lossy}");
    }

    #[test]
    fn robustness_scenario_robust_aimd_escapes_reno_collapses() {
        // Metric VI: infinite capacity (huge link), constant 0.5% loss.
        let big = LinkParams::new(1.0e9, 0.05, 1.0e9);
        let run = |p: Box<dyn axcc_core::Protocol>| {
            Scenario::new(big)
                .sender(SenderConfig::new(p).initial_window(10.0))
                .wire_loss(LossModel::Constant { rate: 0.005 })
                .steps(2000)
                .run()
        };
        let robust = run(Box::new(RobustAimd::table2()));
        let reno = run(Box::new(Aimd::reno()));
        let r_final = *robust.senders[0].window.last().unwrap();
        let t_final = *reno.senders[0].window.last().unwrap();
        // Robust-AIMD climbs ~1 MSS/step; Reno halves every step.
        assert!(r_final > 1000.0, "robust final {r_final}");
        assert!(t_final < 2.0, "reno final {t_final}");
    }

    #[test]
    fn vegas_holds_rtt_near_floor() {
        let trace = Scenario::new(link())
            .homogeneous(&Vegas::classic(), 2, 1.0)
            .steps(1500)
            .run();
        let acc = score(&trace);
        let inflation = acc.measured_latency_inflation();
        // 2 senders × β = 4 packets of standing queue over C = 100:
        // inflation ≈ 8% worst case.
        assert!(inflation < 0.12, "latency inflation {inflation}");
        // And no loss at all in the tail.
        assert!(acc.is_zero_loss());
    }

    #[test]
    fn max_window_is_respected() {
        let trace = Scenario::new(link())
            .homogeneous(&Mimd::scalable(), 1, 1.0)
            .max_window(50.0)
            .steps(300)
            .run();
        assert!(trace.senders[0].window.iter().all(|&w| w <= 50.0));
        trace.validate(50.0).unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one sender")]
    fn empty_scenario_panics() {
        Scenario::new(link()).run();
    }

    /// A pathological protocol whose window arithmetic blows up after a
    /// set number of steps — exercises the engine's divergence guard.
    #[derive(Debug, Clone)]
    struct DivergeAfter {
        remaining: u64,
        emit: f64,
    }

    impl axcc_core::Protocol for DivergeAfter {
        fn name(&self) -> String {
            "DivergeAfter".into()
        }
        fn next_window(&mut self, obs: &Observation) -> f64 {
            if self.remaining == 0 {
                self.emit
            } else {
                self.remaining -= 1;
                obs.window + 1.0
            }
        }
        fn loss_based(&self) -> bool {
            true
        }
        fn reset(&mut self) {}
        fn clone_box(&self) -> Box<dyn axcc_core::Protocol> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn nan_window_is_caught_as_numerical_divergence() {
        let err = Scenario::new(link())
            .sender(SenderConfig::new(Box::new(DivergeAfter {
                remaining: 5,
                emit: f64::NAN,
            })))
            .steps(100)
            .try_run()
            .unwrap_err();
        match err {
            ScenarioError::NumericalDivergence {
                step,
                sender,
                context,
                value,
            } => {
                assert_eq!(step, 5);
                assert_eq!(sender, 0);
                assert_eq!(context, "requested window");
                assert!(value.is_nan());
            }
            other => panic!("expected NumericalDivergence, got {other:?}"),
        }
    }

    #[test]
    fn infinite_window_is_caught_as_numerical_divergence() {
        let err = Scenario::new(link())
            .sender(SenderConfig::new(Box::new(DivergeAfter {
                remaining: 0,
                emit: f64::INFINITY,
            })))
            .steps(10)
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::NumericalDivergence {
                step: 0,
                sender: 0,
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "numerical divergence")]
    fn run_panics_on_divergence_with_diagnostic_message() {
        Scenario::new(link())
            .sender(SenderConfig::new(Box::new(DivergeAfter {
                remaining: 2,
                emit: f64::NAN,
            })))
            .steps(10)
            .run();
    }

    #[test]
    fn per_packet_feedback_breaks_mimd_ratio_preservation() {
        // Under the paper's synchronized feedback, two MIMD senders keep
        // their initial 4:1 imbalance forever. Under per-packet
        // (unsynchronized) feedback — the §6 extension — the larger
        // sender statistically sees loss more often and the pair drifts
        // towards fairness.
        let run = |mode: FeedbackMode| {
            let trace = Scenario::new(link())
                .sender(SenderConfig::new(Box::new(Mimd::scalable())).initial_window(40.0))
                .sender(SenderConfig::new(Box::new(Mimd::scalable())).initial_window(10.0))
                .feedback(mode)
                .seed(5)
                .steps(4000)
                .run();
            score(&trace).measured_fairness()
        };
        let sync = run(FeedbackMode::Synchronized);
        let unsync = run(FeedbackMode::PerPacket);
        assert!(sync < 0.3, "synchronized fairness {sync}");
        assert!(
            unsync > sync + 0.2,
            "unsynchronized {unsync} should improve on synchronized {sync}"
        );
    }

    #[test]
    fn per_packet_feedback_is_seeded() {
        let run = |seed| {
            Scenario::new(link())
                .homogeneous(&Aimd::reno(), 2, 2.0)
                .feedback(FeedbackMode::PerPacket)
                .seed(seed)
                .steps(400)
                .run()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1).senders[0].window, run(2).senders[0].window);
    }

    #[test]
    fn bandwidth_change_moves_the_operating_point() {
        // Halve the bandwidth mid-run: C drops 100 → 50, so the Reno
        // sawtooth re-converges around the smaller loss threshold.
        let trace = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .bandwidth_change(600, 500.0)
            .steps(1200)
            .run();
        let before = axcc_core::trace::mean(&trace.total_window[400..600]);
        let after = axcc_core::trace::mean(&trace.total_window[1000..1200]);
        // Before: sawtooth in [60, 120] (mean ≈ 90); after: C = 50,
        // threshold 70, sawtooth in [35, 70] (mean ≈ 52).
        assert!(before > 80.0, "before {before}");
        assert!(after < 65.0, "after {after}");
        assert!(after > 30.0, "after {after}");
    }

    #[test]
    fn bandwidth_increase_is_reclaimed() {
        // Double the bandwidth at step 500; the sender must grow into the
        // new capacity (this is what the responsiveness extension metric
        // measures).
        let trace = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .bandwidth_change(500, 2000.0)
            .steps(1500)
            .run();
        let tail_mean = axcc_core::trace::mean(&trace.total_window[1200..]);
        // New C = 200, threshold 220: the sawtooth mean should exceed the
        // old threshold of 120.
        assert!(tail_mean > 140.0, "tail mean {tail_mean}");
    }

    #[test]
    fn outage_collapses_goodput_then_recovers() {
        // A 100-step outage: total goodput during the blackout is a
        // trickle; after recovery the sender re-fills the pipe.
        let trace = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .bandwidth_change(500, 1e-3)
            .bandwidth_change(600, 1000.0)
            .steps(1500)
            .run();
        let during = axcc_core::trace::mean(&trace.senders[0].goodput[520..600]);
        let after = axcc_core::trace::mean(&trace.senders[0].goodput[1200..]);
        // During the outage the residual bandwidth (and the ballooned RTT)
        // cap goodput at a trickle — the buffer still holds a standing
        // window, so the *window* barely moves, but deliveries stop…
        assert!(during < 1.0, "mean goodput during outage {during}");
        // …and afterwards the sawtooth refills the nominal 1000 MSS/s pipe.
        assert!(after > 500.0, "mean goodput after recovery {after}");
    }

    #[test]
    fn trace_shape_matches_steps_and_senders() {
        let trace = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 3, 1.0)
            .steps(123)
            .run();
        assert_eq!(trace.len(), 123);
        assert_eq!(trace.num_senders(), 3);
        for s in &trace.senders {
            assert_eq!(s.len(), 123);
        }
    }

    #[test]
    fn fluid_traces_share_the_rtt_column() {
        // Dedup satellite: the fluid engine records no per-sender RTT
        // copies; readers resolve through the shared column.
        let trace = Scenario::new(link())
            .homogeneous(&Aimd::reno(), 3, 1.0)
            .steps(50)
            .run();
        for (i, s) in trace.senders.iter().enumerate() {
            assert!(s.rtt.is_none(), "sender {i} holds a redundant RTT copy");
            assert_eq!(trace.sender_rtt(i), &trace.rtt[..]);
        }
    }

    /// The two sinks over one loop: the accumulator folded as the engine
    /// runs must score exactly what the replay of the recorded trace
    /// scores — the trace sink records the very columns the fold saw.
    fn assert_streaming_matches(build: impl Fn() -> Scenario, opts: StreamOptions) {
        let trace = build().try_run().unwrap();
        let acc = try_run_scenario_streaming(build(), &opts).unwrap();
        let replayed = MetricAccumulator::replay(
            &trace,
            &MetricConfig {
                tail_fraction: opts.tail_fraction,
                min_horizon: opts.min_horizon,
                escape_beta: opts.escape_beta,
                metrics: opts.metrics,
                ..MetricConfig::for_trace(&trace)
            },
        );
        let pairs = [
            (acc.measured_efficiency(), replayed.measured_efficiency()),
            (acc.mean_utilization(), replayed.mean_utilization()),
            (acc.measured_loss_bound(), replayed.measured_loss_bound()),
            (
                acc.measured_latency_inflation(),
                replayed.measured_latency_inflation(),
            ),
            (acc.measured_fairness(), replayed.measured_fairness()),
            (acc.measured_convergence(), replayed.measured_convergence()),
        ];
        for (k, (a, b)) in pairs.iter().enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "score {k}");
        }
        for i in 0..trace.num_senders() {
            assert_eq!(
                acc.measured_fast_utilization(i).map(f64::to_bits),
                replayed.measured_fast_utilization(i).map(f64::to_bits)
            );
            assert_eq!(acc.window_escapes(i, 0.2), replayed.window_escapes(i, 0.2));
        }
    }

    #[test]
    fn streaming_matches_trace_for_reno_pair() {
        assert_streaming_matches(
            || {
                Scenario::new(link())
                    .homogeneous(&Aimd::reno(), 2, 1.0)
                    .steps(800)
            },
            StreamOptions::default(),
        );
    }

    #[test]
    fn streaming_matches_trace_with_wire_loss_and_late_joiner() {
        assert_streaming_matches(
            || {
                Scenario::new(link())
                    .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(10.0))
                    .sender(
                        SenderConfig::new(Box::new(Vegas::classic()))
                            .initial_window(1.0)
                            .start_at(150),
                    )
                    .wire_loss(LossModel::bursty(0.01, 4.0, 0.2))
                    .seed(11)
                    .steps(600)
            },
            StreamOptions::default(),
        );
    }

    #[test]
    fn streaming_matches_trace_with_bandwidth_change_and_per_packet_feedback() {
        assert_streaming_matches(
            || {
                Scenario::new(link())
                    .homogeneous(&Mimd::scalable(), 2, 4.0)
                    .bandwidth_change(200, 500.0)
                    .feedback(FeedbackMode::PerPacket)
                    .seed(3)
                    .steps(500)
            },
            StreamOptions {
                tail_fraction: 0.25,
                ..StreamOptions::default()
            },
        );
    }

    #[test]
    fn streaming_matches_trace_with_departures_and_churn() {
        assert_streaming_matches(
            || {
                Scenario::new(link())
                    .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(10.0))
                    .sender(
                        SenderConfig::new(Box::new(Aimd::reno()))
                            .initial_window(1.0)
                            .start_at(100)
                            .stop_at(400),
                    )
                    .steps(600)
                    .churn(
                        &axcc_topo::ChurnPlan::poisson(0.01, 120.0).seed(2),
                        &Aimd::reno(),
                    )
                    .unwrap()
            },
            StreamOptions::default(),
        );
    }

    #[test]
    fn streaming_matches_trace_on_a_parking_lot_with_churn() {
        // Multi-link runs stage per-sender RTT columns; the fold must see
        // the same ones the trace records.
        assert_streaming_matches(
            || {
                Scenario::on(Topology::parking_lot(2, link()))
                    .sender(SenderConfig::new(Box::new(Aimd::reno())).path(vec![0, 1]))
                    .sender(
                        SenderConfig::new(Box::new(Vegas::classic()))
                            .initial_window(4.0)
                            .path(vec![1]),
                    )
                    .steps(600)
                    .churn_on(
                        &axcc_topo::ChurnPlan::poisson(0.01, 120.0).seed(2),
                        &Aimd::reno(),
                        vec![0],
                    )
                    .unwrap()
            },
            StreamOptions::default(),
        );
    }

    #[test]
    fn multi_link_traces_record_per_sender_rtts() {
        let trace = Scenario::on(Topology::parking_lot(2, link()))
            .sender(SenderConfig::new(Box::new(Aimd::reno())).path(vec![0, 1]))
            .sender(
                SenderConfig::new(Box::new(Aimd::reno()))
                    .path(vec![1])
                    .start_at(20),
            )
            .steps(50)
            .run();
        trace.validate(axcc_core::protocol::MAX_WINDOW).unwrap();
        for (i, s) in trace.senders.iter().enumerate() {
            assert_eq!(s.rtt.as_ref().map(Vec::len), Some(50), "sender {i}");
        }
        // The idle sender's path RTT is recorded before it starts.
        assert_eq!(trace.sender_rtt(1)[0], link().min_rtt());
        assert_eq!(trace.sender_rtt(0)[0], 2.0 * link().min_rtt());
    }

    #[test]
    fn multi_link_divergence_is_a_typed_error() {
        let err = Scenario::on(Topology::parking_lot(2, link()))
            .sender(SenderConfig::new(Box::new(Aimd::reno())).path(vec![0]))
            .sender(
                SenderConfig::new(Box::new(DivergeAfter {
                    remaining: 7,
                    emit: f64::INFINITY,
                }))
                .path(vec![0, 1]),
            )
            .steps(50)
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::NumericalDivergence {
                step: 7,
                sender: 1,
                ..
            }
        ));
    }

    #[test]
    fn churn_accumulator_streams_bit_identically_to_the_trace() {
        use axcc_core::axioms::churn::{ChurnAccumulator, ChurnConfig};
        let plan = axcc_topo::ChurnPlan::poisson(0.015, 150.0).seed(6);
        let steps = 800usize;
        let base = 2usize;
        let build = || {
            Scenario::new(link())
                .homogeneous(&Aimd::reno(), base, 1.0)
                .steps(steps)
                .churn(&plan, &Aimd::reno())
                .unwrap()
        };
        let intervals = plan.try_expand(steps as u64).unwrap();
        let arrivals: Vec<u64> = intervals.iter().map(|iv| iv.start).collect();
        let mut boundaries: Vec<usize> = intervals
            .iter()
            .flat_map(|iv| [iv.start as usize, iv.stop as usize])
            .collect();
        boundaries.sort_unstable();
        let mut activity: Vec<(u64, u64)> = vec![(0, steps as u64); base];
        activity.extend(intervals.iter().map(|iv| (iv.start, iv.stop)));
        let cfg = ChurnConfig {
            capacity: link().capacity(),
            steps,
            settle_threshold: 0.8 * link().capacity(),
            arrivals: arrivals.clone(),
            boundaries: boundaries.clone(),
            activity: activity.clone(),
        };

        // Streaming: drive the ChurnAccumulator straight off the loop.
        let mut acc = ChurnAccumulator::new(&cfg, base + intervals.len());
        try_run_scenario_with(build(), &mut acc).unwrap();

        // Recorded: the trace's rows, fed one step at a time.
        let trace = build().try_run().unwrap();
        let mut replayed = ChurnAccumulator::new(&cfg, trace.num_senders());
        for t in 0..trace.len() {
            let records: Vec<StepRecord> = trace
                .senders
                .iter()
                .map(|s| StepRecord {
                    window: s.window[t],
                    loss: s.loss[t],
                    rtt: trace.rtt[t],
                    goodput: s.goodput[t],
                })
                .collect();
            replayed.on_step(
                t as u64,
                trace.total_window[t],
                trace.rtt[t],
                trace.loss[t],
                &records,
            );
        }
        assert!(!arrivals.is_empty());
        assert_eq!(
            acc.mean_settle_after_arrival().to_bits(),
            replayed.mean_settle_after_arrival().to_bits()
        );
        assert_eq!(
            acc.coexistence_fairness().to_bits(),
            replayed.coexistence_fairness().to_bits()
        );
        assert_eq!(
            acc.utilization_under_churn().to_bits(),
            replayed.utilization_under_churn().to_bits()
        );
    }

    #[test]
    fn streaming_into_reuses_one_accumulator_across_runs() {
        let build = |seed| {
            Scenario::new(link())
                .homogeneous(&Aimd::reno(), 2, 1.0)
                .wire_loss(LossModel::Bernoulli { rate: 0.005 })
                .seed(seed)
                .steps(400)
        };
        let opts = StreamOptions::default();
        let mut acc = metric_accumulator_for(&build(1), &opts);
        let mut scores = Vec::new();
        for seed in [1, 2, 1] {
            try_run_scenario_streaming_into(build(seed), &mut acc).unwrap();
            scores.push(acc.measured_efficiency().to_bits());
        }
        // Same seed ⇒ same score through the reused accumulator; the
        // middle run (different seed) must not leak into the third.
        assert_eq!(scores[0], scores[2]);
        let fresh = try_run_scenario_streaming(build(1), &opts).unwrap();
        assert_eq!(scores[2], fresh.measured_efficiency().to_bits());
    }

    #[test]
    fn streaming_propagates_divergence_errors() {
        let scenario = Scenario::new(link())
            .sender(SenderConfig::new(Box::new(DivergeAfter {
                remaining: 5,
                emit: f64::NAN,
            })))
            .steps(100);
        let err = try_run_scenario_streaming(scenario, &StreamOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::NumericalDivergence { step: 5, .. }
        ));
    }

    #[test]
    fn lane_engine_matches_reference_on_canonical_shapes() {
        // The named scenarios every other engine test leans on, pinned
        // against the scalar reference bit-for-bit.
        assert_engines_match(|| {
            Scenario::new(link())
                .homogeneous(&Aimd::reno(), 2, 1.0)
                .steps(600)
        });
        assert_engines_match(|| {
            Scenario::new(link())
                .sender(SenderConfig::new(Box::new(Mimd::scalable())).initial_window(40.0))
                .sender(SenderConfig::new(Box::new(Vegas::classic())).initial_window(10.0))
                .wire_loss(LossModel::bursty(0.01, 6.0, 0.2))
                .seed(11)
                .steps(500)
        });
        assert_engines_match(|| {
            Scenario::new(link())
                .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(10.0))
                .sender(
                    SenderConfig::new(Box::new(Aimd::reno()))
                        .initial_window(1.0)
                        .start_at(100)
                        .stop_at(400),
                )
                .bandwidth_change(250, 500.0)
                .feedback(FeedbackMode::PerPacket)
                .seed(7)
                .steps(600)
        });
    }

    #[test]
    fn lane_engine_matches_reference_with_events_at_and_past_the_horizon() {
        // Admissions, departures and bandwidth changes scheduled at or
        // past the last step must never fire in either engine (they are
        // not activity boundaries).
        assert_engines_match(|| {
            Scenario::new(link())
                .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(1.0))
                .sender(
                    SenderConfig::new(Box::new(Aimd::reno()))
                        .initial_window(5.0)
                        .start_at(100),
                )
                .sender(
                    SenderConfig::new(Box::new(Aimd::reno()))
                        .initial_window(5.0)
                        .stop_at(99),
                )
                .sender(
                    SenderConfig::new(Box::new(Aimd::reno()))
                        .initial_window(5.0)
                        .stop_at(1000),
                )
                .bandwidth_change(100, 500.0)
                .bandwidth_change(4000, 2000.0)
                .steps(100)
        });
    }

    #[test]
    fn lane_engine_matches_reference_on_divergent_runs() {
        assert_engines_match(|| {
            Scenario::new(link())
                .sender(SenderConfig::new(Box::new(Aimd::reno())).initial_window(1.0))
                .sender(SenderConfig::new(Box::new(DivergeAfter {
                    remaining: 17,
                    emit: f64::NAN,
                })))
                .steps(100)
        });
    }

    /// The gauntlet's infinite-capacity link, `C = 10¹⁰ MSS`: even three
    /// senders clamped at `M = 10⁹` stay below capacity, so the engine
    /// runs it with the flat-link hoist.
    fn flat_link() -> LinkParams {
        LinkParams::new(MAX_WINDOW * 100.0, 0.05, MAX_WINDOW)
    }

    #[test]
    fn lane_engine_matches_reference_on_a_flat_link() {
        assert!(3.0 * MAX_WINDOW * (1.0 + 1e-9) < flat_link().capacity());
        // PCC climbs to the clamp under sub-cliff loss, so totals reach
        // n·M; R-AIMD and MIMD keep the other lanes moving.
        let senders = || -> Vec<Box<dyn axcc_core::Protocol>> {
            vec![
                Box::new(Pcc::new()),
                Box::new(RobustAimd::table2()),
                Box::new(Mimd::scalable()),
            ]
        };
        for loss in [
            LossModel::Constant { rate: 0.005 },
            LossModel::bursty(0.01, 6.0, 0.2),
        ] {
            for n in [2, 3] {
                assert_engines_match(|| {
                    senders()
                        .into_iter()
                        .take(n)
                        .fold(Scenario::new(flat_link()), |sc, p| {
                            sc.sender(SenderConfig::new(p).initial_window(1.0e6))
                        })
                        .wire_loss(loss)
                        .seed(5)
                        .steps(600)
                });
            }
        }
        // Churn: the active set is sparse for most of the run, and only
        // sender 1 is active before step 100 (a one-sender active set on
        // a lane other than 0).
        assert_engines_match(|| {
            Scenario::new(flat_link())
                .sender(
                    SenderConfig::new(Box::new(Pcc::new()))
                        .initial_window(1.0e6)
                        .start_at(100),
                )
                .sender(
                    SenderConfig::new(Box::new(RobustAimd::table2()))
                        .initial_window(10.0)
                        .stop_at(450),
                )
                .sender(
                    SenderConfig::new(Box::new(Pcc::new()))
                        .initial_window(1.0e6)
                        .start_at(300),
                )
                .wire_loss(LossModel::bursty(0.01, 6.0, 0.2))
                .seed(9)
                .steps(600)
        });
    }

    #[test]
    fn workspace_reuse_matches_fresh_allocation_across_shapes() {
        // One workspace, back-to-back runs of *different* shapes (sender
        // count, churn, loss model): every run must equal the same run on
        // a fresh workspace.
        let shapes: Vec<Box<dyn Fn() -> Scenario>> = vec![
            Box::new(|| {
                Scenario::new(link())
                    .homogeneous(&Aimd::reno(), 3, 1.0)
                    .steps(400)
            }),
            Box::new(|| {
                Scenario::new(link())
                    .homogeneous(&Mimd::scalable(), 1, 4.0)
                    .wire_loss(LossModel::Bernoulli { rate: 0.01 })
                    .seed(5)
                    .steps(273)
            }),
            Box::new(|| {
                Scenario::new(link())
                    .homogeneous(&Aimd::reno(), 2, 1.0)
                    .steps(500)
                    .churn(
                        &axcc_topo::ChurnPlan::poisson(0.01, 120.0).seed(3),
                        &Aimd::reno(),
                    )
                    .unwrap()
            }),
            Box::new(|| {
                Scenario::on(Topology::parking_lot(3, link()))
                    .sender(SenderConfig::new(Box::new(Aimd::reno())).path(vec![0, 1, 2]))
                    .sender(SenderConfig::new(Box::new(Vegas::classic())).path(vec![1]))
                    .steps(300)
            }),
            Box::new(|| {
                Scenario::new(link())
                    .homogeneous(&Aimd::reno(), 3, 1.0)
                    .steps(400)
            }),
        ];
        let mut shared = EngineWorkspace::new();
        for build in &shapes {
            let mut with_shared = TraceSink::for_scenario(&build());
            try_run_scenario_with_workspace(build(), &mut with_shared, &mut shared).unwrap();
            let mut with_fresh = TraceSink::for_scenario(&build());
            try_run_scenario_with_workspace(build(), &mut with_fresh, &mut EngineWorkspace::new())
                .unwrap();
            assert_eq!(with_shared.into_trace(), with_fresh.into_trace());
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        struct Params {
            n: usize,
            steps: usize,
            proto: u8,
            initial: f64,
            loss_sel: u8,
            seed: u64,
            per_packet: bool,
            shape: u8,
            hops: usize,
            uneven: bool,
        }

        fn arb_params() -> impl Strategy<Value = Params> {
            (
                (
                    1usize..5,
                    40usize..220,
                    0u8..4,
                    0.5f64..60.0,
                    0u8..4,
                    any::<u64>(),
                    any::<bool>(),
                    0u8..4,
                ),
                (prop_oneof![Just(1usize), 2usize..5], any::<bool>()),
            )
                .prop_map(
                    |(
                        (n, steps, proto, initial, loss_sel, seed, per_packet, shape),
                        (hops, uneven),
                    )| Params {
                        n,
                        steps,
                        proto,
                        initial,
                        loss_sel,
                        seed,
                        per_packet,
                        shape,
                        hops,
                        uneven,
                    },
                )
        }

        /// One link, or a `hops`-hop parking lot (with per-hop bandwidth,
        /// delay and buffer when `uneven`).
        fn topology(p: &Params) -> Topology {
            if p.hops == 1 {
                Topology::single(link())
            } else if p.uneven {
                Topology::new(
                    (0..p.hops)
                        .map(|h| {
                            let k = h as f64;
                            LinkParams::new(1000.0 + 400.0 * k, 0.05 / (1.0 + k), 20.0 - 5.0 * k)
                        })
                        .collect(),
                )
            } else {
                Topology::parking_lot(p.hops, link())
            }
        }

        fn build(p: &Params) -> Scenario {
            let proto: Box<dyn axcc_core::Protocol> = match p.proto {
                0 => Box::new(Aimd::reno()),
                1 => Box::new(Mimd::scalable()),
                2 => Box::new(Vegas::classic()),
                _ => Box::new(RobustAimd::table2()),
            };
            let steps = p.steps as u64;
            let long: Vec<usize> = (0..p.hops).collect();
            let mut sc = Scenario::on(topology(p)).seed(p.seed).steps(p.steps);
            for k in 0..p.n {
                // Sender 0 crosses every hop; the rest one hop each,
                // round-robin over the links.
                let path = if k == 0 {
                    long.clone()
                } else {
                    vec![k % p.hops]
                };
                let mut cfg = SenderConfig::new(proto.clone_box())
                    .initial_window(p.initial + 3.0 * k as f64)
                    .path(path);
                // Shape 1: every other sender churns in and out mid-run.
                if p.shape == 1 && k % 2 == 1 {
                    cfg = cfg
                        .start_at(steps / 4)
                        .stop_at((3 * steps / 4).max(steps / 4 + 1));
                }
                sc = sc.sender(cfg);
            }
            sc = match p.loss_sel {
                0 => sc,
                1 => sc.wire_loss(LossModel::Constant { rate: 0.01 }),
                2 => sc.wire_loss(LossModel::Bernoulli { rate: 0.02 }),
                _ => sc.wire_loss(LossModel::bursty(0.01, 6.0, 0.25)),
            };
            if p.per_packet {
                sc = sc.feedback(FeedbackMode::PerPacket);
            }
            match p.shape {
                // Bandwidth schedules exist on one link only.
                2 if p.hops == 1 => {
                    sc = sc
                        .bandwidth_change(steps / 3, 500.0)
                        .bandwidth_change(2 * steps / 3, 1500.0)
                }
                3 => {
                    sc = sc
                        .churn_on(
                            &axcc_topo::ChurnPlan::poisson(0.02, p.steps as f64 / 4.0)
                                .seed(p.seed ^ 1),
                            &Aimd::reno(),
                            long,
                        )
                        .unwrap()
                }
                _ => {}
            }
            sc
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The SoA lane engine is bit-identical to its reference over
            /// random scenarios: one link or a random parking lot ×
            /// protocols × loss models × feedback modes ×
            /// staggered/churned populations × bandwidth schedules.
            #[test]
            fn lane_engine_matches_scalar_reference(p in arb_params()) {
                assert_engines_match(|| build(&p));
            }
        }
    }
}
