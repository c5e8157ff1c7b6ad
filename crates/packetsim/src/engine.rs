//! The discrete-event engine: scenario builder, main loop, trace sampling.

use crate::event::{Event, EventQueue};
use crate::queue::{DropTailQueue, Enqueue, QueuedPacket};
use crate::red::{Red, RedConfig, RedVerdict};
use crate::sender::{SendMode, Sender};
use crate::stats::{FlowStats, QueueStats};
use crate::time::Time;
use axcc_core::axioms::streaming::StepBlock;
use axcc_core::error::{finite_non_negative, positive_finite, require};
use axcc_core::protocol::MAX_WINDOW;
use axcc_core::{
    LinkParams, LossModel, Protocol, RunShape, RunTrace, ScenarioError, StepSink, TraceSink,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One flow in a packet-level scenario.
pub struct PacketSenderConfig {
    protocol: Box<dyn Protocol>,
    initial_cwnd: f64,
    start_secs: f64,
    stop_secs: Option<f64>,
    mode: SendMode,
    extra_delay_secs: f64,
}

impl PacketSenderConfig {
    /// A flow running `protocol`, starting at t = 0 with a 1-MSS window.
    pub fn new(protocol: Box<dyn Protocol>) -> Self {
        PacketSenderConfig {
            protocol,
            initial_cwnd: 1.0,
            start_secs: 0.0,
            stop_secs: None,
            mode: SendMode::WindowClocked,
            extra_delay_secs: 0.0,
        }
    }

    /// Add a per-flow access delay (seconds, one-way): the flow's
    /// feedback takes `2 × extra` longer than the bottleneck's own
    /// propagation, modeling heterogeneous RTTs — the substrate of the
    /// classic RTT-unfairness experiments. Must be finite and `>= 0`
    /// (checked by [`PacketScenario::validate`]).
    pub fn extra_delay_secs(mut self, d: f64) -> Self {
        self.extra_delay_secs = d;
        self
    }

    /// Make this flow **paced**: it transmits on a timer at rate
    /// `cwnd/sRTT` and hands its protocol one observation per
    /// monitor interval (one sRTT) — the PCC/BBR sender class the paper's
    /// Section 2 defers to future research.
    pub fn paced(mut self) -> Self {
        self.mode = SendMode::Paced;
        self
    }

    /// Set the initial congestion window (MSS). Must be finite and
    /// `>= 0` (checked by [`PacketScenario::validate`]).
    pub fn initial_cwnd(mut self, w: f64) -> Self {
        self.initial_cwnd = w;
        self
    }

    /// Delay the flow's start (seconds). Must be finite and `>= 0`
    /// (checked by [`PacketScenario::validate`]).
    pub fn start_at_secs(mut self, t: f64) -> Self {
        self.start_secs = t;
        self
    }

    /// Remove the flow at the given time (seconds): it stops transmitting
    /// for good, though packets already in flight still drain. Must be
    /// finite and after the start time (checked by
    /// [`PacketScenario::validate`]). Models flow churn — short
    /// connections arriving and departing around long-lived ones.
    pub fn stop_at_secs(mut self, t: f64) -> Self {
        self.stop_secs = Some(t);
        self
    }
}

/// A packet-level scenario. Build fluently, then [`run`](PacketScenario::run)
/// (panics on invalid configuration) or [`try_run`](PacketScenario::try_run)
/// (returns [`ScenarioError`]).
///
/// Setters are non-panicking: all validation is centralized in
/// [`validate`](PacketScenario::validate), which both run paths call first.
pub struct PacketScenario {
    link: LinkParams,
    senders: Vec<PacketSenderConfig>,
    duration_secs: f64,
    loss: LossModel,
    seed: u64,
    max_window: f64,
    ecn_threshold: Option<usize>,
    red: Option<RedConfig>,
}

impl PacketScenario {
    /// A scenario on the given link: no flows yet, 10 s duration, no
    /// wire loss, seed 0. The trace samples every minimum RTT.
    pub fn new(link: LinkParams) -> Self {
        PacketScenario {
            link,
            senders: Vec::new(),
            duration_secs: 10.0,
            loss: LossModel::None,
            seed: 0,
            max_window: MAX_WINDOW,
            ecn_threshold: None,
            red: None,
        }
    }

    /// Add a flow.
    pub fn sender(mut self, cfg: PacketSenderConfig) -> Self {
        self.senders.push(cfg);
        self
    }

    /// Add `n` flows cloned from a prototype protocol.
    pub fn homogeneous(mut self, prototype: &dyn Protocol, n: usize) -> Self {
        for _ in 0..n {
            self.senders
                .push(PacketSenderConfig::new(prototype.clone_box()));
        }
        self
    }

    /// Add a churned flow population: expand `plan` over the scenario's
    /// current duration (set [`duration_secs`](Self::duration_secs)
    /// *first*) at a resolution of `step_secs` seconds per plan step, and
    /// add one flow per activity interval — each a clone of `prototype`
    /// arriving with a 1-MSS window and departing at its stop time. Using
    /// the fluid engine's step length for `step_secs` makes the two
    /// engines run the *same* arrival pattern.
    pub fn churn(
        mut self,
        plan: &axcc_topo::ChurnPlan,
        prototype: &dyn Protocol,
        step_secs: f64,
    ) -> Result<Self, ScenarioError> {
        positive_finite("step_secs", step_secs)?;
        let horizon = (self.duration_secs / step_secs).floor().max(0.0) as u64;
        for iv in plan.try_expand(horizon)? {
            self.senders.push(
                PacketSenderConfig::new(prototype.clone_box())
                    .start_at_secs(iv.start as f64 * step_secs)
                    .stop_at_secs(iv.stop as f64 * step_secs),
            );
        }
        Ok(self)
    }

    /// Simulated duration in seconds. Must be positive and finite
    /// (checked by [`validate`](Self::validate)).
    pub fn duration_secs(mut self, d: f64) -> Self {
        self.duration_secs = d;
        self
    }

    /// Apply a non-congestion loss model to the data path, sampled once
    /// per packet leaving the bottleneck (one Gilbert–Elliott chain for
    /// the link). [`LossModel::Constant`], a per-step rate, is refused by
    /// [`validate`](Self::validate), as are out-of-domain parameters.
    pub fn wire_loss(mut self, model: LossModel) -> Self {
        self.loss = model;
        self
    }

    /// Seed the RNG behind wire loss and RED.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cap congestion windows (the model's `M`). Must be positive
    /// (checked by [`validate`](Self::validate)).
    pub fn max_window(mut self, m: f64) -> Self {
        self.max_window = m;
        self
    }

    /// Enable ECN marking at the bottleneck: packets enqueued while
    /// `threshold` or more packets wait are marked rather than waiting to
    /// be dropped; senders treat delivered marks as congestion signals
    /// (RFC 3168 loss-equivalence). With a threshold well below the
    /// buffer, loss-based protocols operate *loss-free* at a short
    /// standing queue — the in-network-queueing direction of §6. The
    /// threshold must not exceed the link's buffer (checked by
    /// [`validate`](Self::validate)).
    pub fn ecn_threshold(mut self, threshold: usize) -> Self {
        self.ecn_threshold = Some(threshold);
        self
    }

    /// Enable RED at the bottleneck (random early drop/mark between the
    /// configured thresholds). Mutually exclusive with
    /// [`ecn_threshold`](Self::ecn_threshold) — they are alternative
    /// disciplines for the same queue (checked by
    /// [`validate`](Self::validate)).
    pub fn red(mut self, config: RedConfig) -> Self {
        self.red = Some(config);
        self
    }

    /// Check the full configuration. Both [`run`](Self::run) and
    /// [`try_run`](Self::try_run) call this before simulating; it is
    /// public so schedulers can validate scenarios they did not build.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.senders.is_empty() {
            return Err(ScenarioError::NoSenders);
        }
        self.link.validate()?;
        positive_finite("duration_secs", self.duration_secs)?;
        positive_finite("max_window", self.max_window)?;
        if let Some(threshold) = self.ecn_threshold {
            let (k, buffer) = (threshold as f64, self.link.buffer.round());
            require(k <= buffer, "ecn_threshold", k, "at most the link's buffer")?;
        }
        if let Some(red) = &self.red {
            red.check()?;
            if self.ecn_threshold.is_some() {
                return Err(ScenarioError::ConflictingOptions {
                    first: "RED",
                    second: "step-marking ECN",
                });
            }
        }
        self.loss.validate()?;
        if let LossModel::Constant { rate } = self.loss {
            return Err(ScenarioError::InvalidLossModel(format!(
                "constant per-step rate {rate} has no per-packet meaning; use Bernoulli"
            )));
        }
        for (i, sc) in self.senders.iter().enumerate() {
            let check = || {
                finite_non_negative("initial_cwnd", sc.initial_cwnd)?;
                finite_non_negative("start_at_secs", sc.start_secs)?;
                finite_non_negative("extra_delay_secs", sc.extra_delay_secs)?;
                sc.stop_secs.map_or(Ok(()), |stop| {
                    let ok = stop.is_finite() && stop > sc.start_secs;
                    let after = "finite and after the flow's start time";
                    require(ok, "stop_at_secs", stop, after)
                })
            };
            check().map_err(|e| e.for_sender(i))?;
        }
        Ok(())
    }

    /// Run the scenario, streaming its [`trace_len`](RunShape::trace_len)
    /// samples into `sink` (one [`StepBlock`] row each, every flow with
    /// its own RTT), or return a typed error for an invalid configuration.
    pub fn try_run_with(self, sink: &mut dyn StepSink) -> Result<SimOutput<()>, ScenarioError> {
        self.validate()?;
        Ok(Engine::new(self).run(sink))
    }

    /// [`try_run_with`](Self::try_run_with) driving a [`TraceSink`]: run
    /// the scenario and return its sampled trace.
    pub fn try_run(self) -> Result<SimOutput, ScenarioError> {
        let mut sink = TraceSink::for_scenario(&self);
        let out = self.try_run_with(&mut sink)?;
        Ok(SimOutput {
            trace: sink.into_trace(),
            flows: out.flows,
            queue: out.queue,
            in_flight_at_end: out.in_flight_at_end,
        })
    }

    /// Run the scenario.
    ///
    /// # Panics
    ///
    /// Panics (with the [`ScenarioError`] message) on an invalid
    /// configuration. Use [`try_run`](Self::try_run) to handle errors as
    /// values.
    pub fn run(self) -> SimOutput {
        // tidy-allow: panic-freedom — documented panicking façade over try_run; fallible callers use the try_ path
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The run's end and the sampling period: the link's minimum RTT, at
    /// least one tick so the sampler cannot spin at one instant. Values
    /// `validate` refuses read as zero rather than panicking.
    fn sample_clock(&self) -> (Time, Time) {
        (
            Time::from_secs_f64(self.duration_secs.max(0.0)),
            Time::from_secs_f64(self.link.min_rtt().max(0.0)).max(Time::NANOSECOND),
        )
    }
}

/// A packet trace records one sample per minimum RTT, from t = 0 to the
/// end of the run inclusive; every flow keeps its own RTT column, since
/// flows' RTT floors differ (per-flow access delays).
impl RunShape for PacketScenario {
    fn trace_link(&self) -> LinkParams {
        self.link
    }

    fn trace_seed(&self) -> u64 {
        self.seed
    }

    /// `⌊end / interval⌋ + 1`: the sampler fires at every multiple of the
    /// interval up to and including the end.
    fn trace_len(&self) -> usize {
        let (end, interval) = self.sample_clock();
        (end.as_nanos() / interval.as_nanos()).saturating_add(1) as usize
    }

    fn trace_protocols(&self) -> impl Iterator<Item = &dyn Protocol> {
        self.senders.iter().map(|s| s.protocol.as_ref())
    }

    fn trace_sender_rtts(&self) -> bool {
        true
    }
}

/// Result of a packet-level run: what the run kept of its samples plus
/// packet accounting.
#[derive(Debug)]
pub struct SimOutput<T = RunTrace> {
    /// The sampled trace from [`PacketScenario::try_run`]; `()` from
    /// [`PacketScenario::try_run_with`], whose sink took the samples.
    pub trace: T,
    /// Per-flow packet counters, in flow order.
    pub flows: Vec<FlowStats>,
    /// Bottleneck queue counters.
    pub queue: QueueStats,
    /// Packets still in flight per flow when the run ended.
    pub in_flight_at_end: Vec<u64>,
}

impl<T> SimOutput<T> {
    /// Check packet conservation for every flow:
    /// `sent = acked + lost + in flight`.
    pub fn conservation_ok(&self) -> bool {
        self.flows
            .iter()
            .zip(&self.in_flight_at_end)
            .all(|(f, &inf)| f.conserves(inf))
    }
}

/// When a recurring timer with period `period` fires next: at least one
/// nanosecond after `now`, so a period that rounds to zero (a pacing
/// interval or RTT below half a nanosecond) cannot reschedule the timer
/// at the same instant forever.
fn next_tick(now: Time, period: Time) -> Time {
    now + period.max(Time::NANOSECOND)
}

/// Per-flow accumulators between consecutive trace samples.
#[derive(Default, Clone)]
struct IntervalAccum {
    acked: u64,
    lost: u64,
    rtt_sum: f64,
    rtt_count: u64,
}

struct Engine {
    link: LinkParams,
    senders: Vec<Sender>,
    events: EventQueue,
    queue: DropTailQueue,
    rng: ChaCha8Rng,
    loss: LossModel,
    /// Whether the link's Gilbert–Elliott chain is in its bad state.
    loss_bad: bool,
    serialization: Time,
    /// Per-flow feedback delay: bottleneck RTT floor plus the flow's own
    /// access delay (both directions).
    flow_feedback_delay: Vec<Time>,
    /// The same floor in exact f64 seconds (the integer-nanosecond `Time`
    /// rounds, which would put recorded RTTs epsilon below `2Θ` and fail
    /// trace validation).
    flow_rtt_floor: Vec<f64>,
    red: Option<Red>,
    end: Time,
    /// The trace's sampling period: the link's minimum RTT.
    sample_interval: Time,
    /// Samples the run records ([`RunShape::trace_len`]).
    samples: usize,
    /// One row per sample, flushed to the sink when full.
    block: StepBlock,
    accums: Vec<IntervalAccum>,
    interval_queue_drops: u64,
    interval_queue_offered: u64,
    wire_lost: u64,
    red_dropped: u64,
    red_marked: u64,
}

impl Engine {
    /// Build the runtime from a scenario `PacketScenario::validate` has
    /// already accepted.
    fn new(cfg: PacketScenario) -> Self {
        debug_assert_eq!(cfg.validate(), Ok(()));
        let link = cfg.link;
        let serialization = Time::from_secs_f64(1.0 / link.bandwidth);
        // Feedback takes the sampling period, at least one tick, so an
        // ACK clock cannot spin at one instant either.
        let (end, feedback_delay) = cfg.sample_clock();
        let samples = cfg.trace_len();
        let mut block = StepBlock::new(cfg.senders.len(), StepBlock::DEFAULT_CAPACITY);
        block.track_sender_rtts();

        let mut events = EventQueue::new();
        let mut senders = Vec::with_capacity(cfg.senders.len());
        let mut flow_feedback_delay = Vec::with_capacity(cfg.senders.len());
        let mut flow_rtt_floor = Vec::with_capacity(cfg.senders.len());
        for (i, sc) in cfg.senders.into_iter().enumerate() {
            senders.push(Sender::with_mode(
                sc.protocol,
                sc.initial_cwnd,
                cfg.max_window,
                sc.mode,
            ));
            flow_feedback_delay
                .push(feedback_delay + Time::from_secs_f64(2.0 * sc.extra_delay_secs));
            flow_rtt_floor.push(link.min_rtt() + 2.0 * sc.extra_delay_secs);
            events.schedule(
                Time::from_secs_f64(sc.start_secs),
                Event::FlowStart { flow: i },
            );
            if let Some(stop) = sc.stop_secs {
                events.schedule(Time::from_secs_f64(stop), Event::FlowStop { flow: i });
            }
        }
        events.schedule(Time::ZERO, Event::Sample);

        let n = senders.len();
        Engine {
            link,
            senders,
            events,
            queue: {
                let q = DropTailQueue::new(cfg.link.buffer.round().max(0.0) as usize);
                match cfg.ecn_threshold {
                    Some(k) => q.with_ecn(k),
                    None => q,
                }
            },
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            loss: cfg.loss,
            loss_bad: false,
            serialization,
            flow_feedback_delay,
            flow_rtt_floor,
            red: cfg.red.map(Red::new),
            end,
            sample_interval: feedback_delay,
            samples,
            block,
            accums: vec![IntervalAccum::default(); n],
            interval_queue_drops: 0,
            interval_queue_offered: 0,
            wire_lost: 0,
            red_dropped: 0,
            red_marked: 0,
        }
    }

    fn run(mut self, sink: &mut dyn StepSink) -> SimOutput<()> {
        while let Some((now, ev)) = self.events.pop() {
            if now > self.end {
                break;
            }
            match ev {
                Event::FlowStart { flow } => {
                    self.senders[flow].active = true;
                    match self.senders[flow].mode() {
                        SendMode::WindowClocked => self.try_send(flow, now),
                        SendMode::Paced => {
                            self.events.schedule(now, Event::PacedSend { flow });
                            let mi = Time::from_secs_f64(self.link.min_rtt());
                            self.events.schedule(now + mi, Event::MiBoundary { flow });
                        }
                    }
                }
                Event::FlowStop { flow } => {
                    // The flow departs: no further transmissions (paced
                    // flows' timer events see `active == false` and lapse),
                    // but in-flight packets still drain and their feedback
                    // is still processed, so conservation stays exact.
                    self.senders[flow].active = false;
                }
                Event::QueueDeparture => self.on_departure(now),
                Event::AckArrive {
                    flow,
                    sent_at,
                    marked,
                } => {
                    self.accums[flow].acked += 1;
                    let rtt = now.saturating_since(sent_at).as_secs_f64();
                    self.accums[flow].rtt_sum += rtt;
                    self.accums[flow].rtt_count += 1;
                    self.senders[flow].on_ack(now, sent_at, marked);
                    if self.senders[flow].mode() == SendMode::WindowClocked {
                        self.try_send(flow, now);
                    }
                }
                Event::LossNotify { flow, sent_at } => {
                    self.accums[flow].lost += 1;
                    self.senders[flow].on_loss(now, sent_at);
                    if self.senders[flow].mode() == SendMode::WindowClocked {
                        self.try_send(flow, now);
                    }
                }
                Event::PacedSend { flow } => {
                    if self.senders[flow].active {
                        if self.senders[flow].pacing_gate_open() {
                            self.transmit_one(flow, now);
                        }
                        let next =
                            next_tick(now, self.senders[flow].pacing_interval(self.link.min_rtt()));
                        if next <= self.end {
                            self.events.schedule(next, Event::PacedSend { flow });
                        }
                    }
                }
                Event::MiBoundary { flow } => {
                    if self.senders[flow].active {
                        self.senders[flow].close_epoch_timed(now);
                        // Next boundary after one (estimated) RTT.
                        let rtt = if self.senders[flow].last_rtt() > 0.0 {
                            self.senders[flow].last_rtt()
                        } else {
                            self.link.min_rtt()
                        };
                        let next = next_tick(now, Time::from_secs_f64(rtt));
                        if next <= self.end {
                            self.events.schedule(next, Event::MiBoundary { flow });
                        }
                    }
                }
                Event::Sample => {
                    self.record_sample(sink);
                    let next = next_tick(now, self.sample_interval);
                    if next <= self.end {
                        self.events.schedule(next, Event::Sample);
                    }
                }
            }
        }

        let queue_stats = QueueStats {
            enqueued: self.queue.total_enqueued(),
            dropped: self.queue.total_dropped() + self.red_dropped,
            max_depth: self.queue.max_depth(),
            wire_lost: self.wire_lost,
            marked: self.queue.total_marked() + self.red_marked,
        };
        let flows: Vec<FlowStats> = self.senders.iter().map(|s| s.stats).collect();
        let in_flight: Vec<u64> = self.senders.iter().map(|s| s.in_flight()).collect();

        if !self.block.is_empty() {
            sink.on_steps(&self.block);
        }
        debug_assert_eq!(
            self.block.start_step() + self.block.len(),
            self.samples,
            "the sampler recorded a different row count than trace_len predicts"
        );
        SimOutput {
            trace: (),
            flows,
            queue: queue_stats,
            in_flight_at_end: in_flight,
        }
    }

    /// Transmit as many packets as `flow`'s window allows (window-clocked
    /// flows).
    fn try_send(&mut self, flow: usize, now: Time) {
        if !self.senders[flow].active {
            return;
        }
        while self.senders[flow].can_send() > 0 {
            self.transmit_one(flow, now);
        }
    }

    /// Transmit exactly one packet from `flow`.
    fn transmit_one(&mut self, flow: usize, now: Time) {
        self.senders[flow].on_send();
        self.interval_queue_offered += 1;
        let mut pkt = QueuedPacket {
            flow,
            sent_at: now,
            marked: false,
        };
        // RED inspects every arrival before the droptail check.
        if let Some(red) = &mut self.red {
            let u = self.rng.gen::<f64>();
            match red.on_arrival(self.queue.depth(), u) {
                RedVerdict::Pass => {}
                RedVerdict::Mark => {
                    pkt.marked = true;
                    self.red_marked += 1;
                }
                RedVerdict::EarlyDrop => {
                    self.interval_queue_drops += 1;
                    self.red_dropped += 1;
                    self.events.schedule(
                        now + self.flow_feedback_delay[flow],
                        Event::LossNotify { flow, sent_at: now },
                    );
                    return;
                }
            }
        }
        match self.queue.offer(pkt) {
            Enqueue::StartService => {
                self.events
                    .schedule(now + self.serialization, Event::QueueDeparture);
            }
            Enqueue::Buffered => {}
            Enqueue::Dropped => {
                self.interval_queue_drops += 1;
                // SACK-style discovery: the sender learns of the hole
                // one feedback delay later.
                self.events.schedule(
                    now + self.flow_feedback_delay[flow],
                    Event::LossNotify { flow, sent_at: now },
                );
            }
        }
    }

    fn on_departure(&mut self, now: Time) {
        let (pkt, more) = self.queue.depart();
        if more {
            self.events
                .schedule(now + self.serialization, Event::QueueDeparture);
        }
        let (flow, sent_at) = (pkt.flow, pkt.sent_at);
        let event = if strike(self.loss, &mut self.loss_bad, &mut self.rng) {
            // Wire loss: the packet never arrives.
            self.wire_lost += 1;
            Event::LossNotify { flow, sent_at }
        } else {
            Event::AckArrive {
                flow,
                sent_at,
                marked: pkt.marked,
            }
        };
        self.events
            .schedule(now + self.flow_feedback_delay[flow], event);
    }

    /// Stage one sample row (each flow's window, loss, RTT and goodput
    /// over the interval just ended, then the link's), flushing the block
    /// to `sink` when full.
    fn record_sample(&mut self, sink: &mut dyn StepSink) {
        let block = &mut self.block;
        let mut total = 0.0;
        for (i, s) in self.senders.iter().enumerate() {
            let acc = &mut self.accums[i];
            let w = if s.active { s.cwnd() } else { 0.0 };
            total += w;
            let resolved = acc.acked + acc.lost;
            let loss = if resolved > 0 {
                (acc.lost as f64 / resolved as f64).min(1.0 - f64::EPSILON)
            } else {
                0.0
            };
            let flow_floor = self.flow_rtt_floor[i];
            let rtt = if acc.rtt_count > 0 {
                acc.rtt_sum / acc.rtt_count as f64
            } else if s.last_rtt() > 0.0 {
                s.last_rtt()
            } else {
                flow_floor
            };
            let goodput = acc.acked as f64 / self.sample_interval.as_secs_f64();
            block.stage_sender(i, w, loss, goodput);
            // Flow RTT floors are heterogeneous (per-flow propagation
            // delay), so each flow keeps its own RTT column rather than
            // sharing the link-level one.
            block.stage_sender_rtt(i, rtt.max(flow_floor));
            *acc = IntervalAccum::default();
        }
        // Link-level RTT implied by the instantaneous queue depth.
        let depth = self.queue.depth() as f64 + if self.queue.busy() { 1.0 } else { 0.0 };
        let offered = self.interval_queue_offered;
        let drops = self.interval_queue_drops;
        let loss = if offered > 0 {
            (drops as f64 / offered as f64).min(1.0 - f64::EPSILON)
        } else {
            0.0
        };
        block.stage_shared(
            total,
            self.link.min_rtt() + depth / self.link.bandwidth,
            loss,
        );
        self.interval_queue_offered = 0;
        self.interval_queue_drops = 0;
        if block.advance() {
            sink.on_steps(block);
            block.begin(block.start_step() + block.len());
        }
    }
}

/// Advance the link's loss process by one departing packet: whether
/// `model` strikes it. `bad` is the Gilbert–Elliott chain's state. Draws
/// nothing for [`LossModel::None`] (or a zero Bernoulli rate), one
/// uniform for Bernoulli, and for Gilbert–Elliott one for the emitted
/// rate (when positive) then one for the transition. `Constant` never
/// reaches the engine: `PacketScenario::validate` refuses it.
fn strike(model: LossModel, bad: &mut bool, rng: &mut ChaCha8Rng) -> bool {
    match model {
        LossModel::None | LossModel::Constant { .. } => false,
        LossModel::Bernoulli { rate } => rate > 0.0 && rng.gen::<f64>() < rate,
        LossModel::GilbertElliott {
            p_enter,
            p_exit,
            loss_good,
            loss_bad,
        } => {
            let emitted = if *bad { loss_bad } else { loss_good };
            let lost = emitted > 0.0 && rng.gen::<f64>() < emitted;
            let u = rng.gen::<f64>();
            *bad = if *bad { u >= p_exit } else { u < p_enter };
            lost
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcc_core::axioms::streaming::{MetricAccumulator, MetricConfig};
    use axcc_core::units::Bandwidth;
    use axcc_protocols::{Aimd, RobustAimd};

    /// 20 Mbps, 42 ms RTT, 100-MSS buffer: a paper Emulab configuration.
    fn paper_link() -> LinkParams {
        LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0)
    }

    fn reno() -> PacketSenderConfig {
        PacketSenderConfig::new(Box::new(Aimd::reno()))
    }

    #[test]
    fn single_reno_utilizes_the_link() {
        let out = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 1)
            .duration_secs(30.0)
            .run();
        assert!(out.conservation_ok());
        // Goodput in the second half should be near link rate
        // (C = 70 MSS, τ = 100: efficiency is high).
        let tail = out.trace.tail_start(0.5);
        let goodput = out.trace.senders[0].mean_goodput_from(tail);
        let util = goodput / out.trace.link.bandwidth;
        assert!(util > 0.7, "utilization {util}");
    }

    #[test]
    fn two_renos_split_fairly() {
        let out = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 2)
            .duration_secs(60.0)
            .run();
        let cfg = MetricConfig::for_trace(&out.trace);
        let f = MetricAccumulator::replay(&out.trace, &cfg).measured_fairness();
        assert!(f > 0.5, "fairness {f}");
        assert!(out.conservation_ok());
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let out = PacketScenario::new(paper_link())
                .homogeneous(&Aimd::reno(), 2)
                .duration_secs(10.0)
                .seed(3)
                .run();
            (out.trace, out.flows)
        };
        let (t1, f1) = run();
        let (t2, f2) = run();
        assert_eq!(t1, t2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn queue_never_exceeds_buffer() {
        let link = LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 10.0);
        let out = PacketScenario::new(link)
            .homogeneous(&Aimd::reno(), 3)
            .duration_secs(20.0)
            .run();
        assert!(
            out.queue.max_depth <= 10,
            "max depth {}",
            out.queue.max_depth
        );
        assert!(out.queue.dropped > 0, "shallow buffer must drop");
    }

    #[test]
    fn shallow_buffer_drops_more_than_deep() {
        let run = |buf: f64| {
            let link = LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, buf);
            let out = PacketScenario::new(link)
                .homogeneous(&Aimd::reno(), 3)
                .duration_secs(30.0)
                .run();
            out.queue.drop_fraction()
        };
        assert!(run(10.0) > run(100.0));
    }

    #[test]
    fn wire_loss_is_counted_and_seeded() {
        let out = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 1)
            .duration_secs(10.0)
            .wire_loss(LossModel::Bernoulli { rate: 0.02 })
            .seed(9)
            .run();
        assert!(out.queue.wire_lost > 0);
        assert!(out.conservation_ok());
        let out2 = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 1)
            .duration_secs(10.0)
            .wire_loss(LossModel::Bernoulli { rate: 0.02 })
            .seed(9)
            .run();
        assert_eq!(out.queue.wire_lost, out2.queue.wire_lost);
    }

    #[test]
    fn robust_aimd_beats_reno_under_wire_loss() {
        // The PCC motivating scenario at packet level: 1% random loss,
        // lots of spare capacity.
        let link = LinkParams::from_experiment(Bandwidth::Mbps(100.0), 42.0, 500.0);
        let run = |p: Box<dyn Protocol>| {
            let out = PacketScenario::new(link)
                .sender(PacketSenderConfig::new(p))
                .duration_secs(60.0)
                .wire_loss(LossModel::Bernoulli { rate: 0.005 })
                .seed(1)
                .run();
            let tail = out.trace.tail_start(0.5);
            out.trace.senders[0].mean_goodput_from(tail)
        };
        let robust = run(Box::new(RobustAimd::table2()));
        let reno = run(Box::new(Aimd::reno()));
        // At packet granularity the per-epoch loss rate is quantized at
        // 1/window, so a single drop in a ≤100-packet epoch reads as
        // "loss ≥ ε = 1%" and trips Robust-AIMD's back-off too; the
        // advantage is therefore a solid factor rather than the fluid
        // model's unbounded gap.
        assert!(
            robust > 1.5 * reno,
            "robust {robust} should clearly beat reno {reno}"
        );
    }

    #[test]
    fn late_start_flow_stays_idle_then_sends() {
        let out = PacketScenario::new(paper_link())
            .sender(PacketSenderConfig::new(Box::new(Aimd::reno())))
            .sender(PacketSenderConfig::new(Box::new(Aimd::reno())).start_at_secs(5.0))
            .duration_secs(10.0)
            .run();
        // Samples before t = 5 s show a zero window for flow 1.
        let interval = out.trace.link.min_rtt();
        let cutoff = (5.0 / interval) as usize;
        assert!(out.trace.senders[1].window[..cutoff.saturating_sub(1)]
            .iter()
            .all(|&w| w == 0.0));
        assert!(out.flows[1].sent > 0);
    }

    #[test]
    fn stopped_flow_goes_quiet_and_conserves_packets() {
        let out = PacketScenario::new(paper_link())
            .sender(PacketSenderConfig::new(Box::new(Aimd::reno())))
            .sender(PacketSenderConfig::new(Box::new(Aimd::reno())).stop_at_secs(5.0))
            .duration_secs(15.0)
            .run();
        assert!(out.conservation_ok());
        // Samples after the stop (plus drain slack) show a zero window
        // and zero goodput for the departed flow.
        let interval = out.trace.link.min_rtt();
        let after = (6.0 / interval) as usize;
        assert!(out.trace.senders[1].window[after..]
            .iter()
            .all(|&w| w == 0.0));
        assert!(
            out.trace.senders[1].goodput[after..]
                .iter()
                .all(|&g| g == 0.0),
            "departed flow still earned goodput"
        );
        // The survivor reclaims the capacity the departed flow vacated.
        let g = &out.trace.senders[0].goodput;
        let before =
            axcc_core::trace::mean(&g[(2.0 / interval) as usize..(5.0 / interval) as usize]);
        let later =
            axcc_core::trace::mean(&g[(10.0 / interval) as usize..(14.0 / interval) as usize]);
        assert!(later > before, "survivor {later} vs shared-era {before}");
    }

    #[test]
    fn stop_before_start_is_rejected() {
        let err = PacketScenario::new(paper_link())
            .sender(
                PacketSenderConfig::new(Box::new(Aimd::reno()))
                    .start_at_secs(5.0)
                    .stop_at_secs(5.0),
            )
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidSender {
                index: 0,
                field: "stop_at_secs",
                ..
            }
        ));
    }

    #[test]
    fn churned_packet_runs_are_deterministic() {
        let plan = axcc_topo::ChurnPlan::poisson(0.01, 120.0).seed(7);
        let run = || {
            let out = PacketScenario::new(paper_link())
                .homogeneous(&Aimd::reno(), 1)
                .duration_secs(20.0)
                .churn(&plan, &Aimd::reno(), paper_link().min_rtt())
                .unwrap()
                .run();
            assert!(out.conservation_ok());
            (out.trace, out.flows)
        };
        let (t1, f1) = run();
        let (t2, f2) = run();
        assert_eq!(t1, t2);
        assert_eq!(f1, f2);
        // The plan actually admitted churned flows alongside the base one.
        assert!(t1.senders.len() > 1, "plan produced no arrivals");
    }

    #[test]
    fn churn_uses_the_same_intervals_as_the_fluid_engine() {
        // Expanding the plan at the fluid step length and mapping to
        // seconds must land each packet flow's start/stop exactly where
        // the plan says.
        let plan = axcc_topo::ChurnPlan::poisson(0.02, 80.0).seed(3);
        let step = paper_link().min_rtt();
        let duration = 20.0;
        let ivs = plan.expand((duration / step).floor() as u64);
        let sc = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 1)
            .duration_secs(duration)
            .churn(&plan, &Aimd::reno(), step)
            .unwrap();
        assert_eq!(sc.senders.len(), 1 + ivs.len());
        for (iv, cfg) in ivs.iter().zip(&sc.senders[1..]) {
            assert_eq!(cfg.start_secs, iv.start as f64 * step);
            assert_eq!(cfg.stop_secs, Some(iv.stop as f64 * step));
        }
    }

    #[test]
    fn rtt_samples_respect_propagation_floor() {
        let out = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 2)
            .duration_secs(15.0)
            .run();
        let floor = out.trace.link.min_rtt();
        for i in 0..out.trace.senders.len() {
            assert!(out.trace.sender_rtt(i).iter().all(|&r| r >= floor - 1e-12));
        }
        // And queueing inflates RTTs beyond the floor at least sometimes.
        let max_rtt = out.trace.sender_rtt(0).iter().copied().fold(0.0, f64::max);
        assert!(max_rtt > floor * 1.05, "max rtt {max_rtt}");
    }

    #[test]
    fn trace_is_rectangular_and_valid() {
        let out = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 3)
            .duration_secs(5.0)
            .run();
        out.trace.validate(MAX_WINDOW).unwrap();
        let len = out.trace.len();
        assert!(len > 50);
        for s in &out.trace.senders {
            assert_eq!(s.len(), len);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sender")]
    fn empty_scenario_panics() {
        PacketScenario::new(paper_link()).run();
    }

    #[test]
    fn try_run_returns_typed_errors_instead_of_panicking() {
        let err = PacketScenario::new(paper_link()).try_run().unwrap_err();
        assert_eq!(err, ScenarioError::NoSenders);

        let err = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 1)
            .duration_secs(-3.0)
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidParameter {
                field: "duration_secs",
                ..
            }
        ));

        let err = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 1)
            .wire_loss(LossModel::Bernoulli { rate: 1.5 })
            .try_run()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidLossModel(_)));

        let err = PacketScenario::new(paper_link())
            .sender(PacketSenderConfig::new(Box::new(Aimd::reno())).initial_cwnd(f64::NAN))
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidSender {
                index: 0,
                field: "initial_cwnd",
                ..
            }
        ));

        let err = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 1)
            .ecn_threshold(100_000)
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidParameter {
                field: "ecn_threshold",
                ..
            }
        ));

        // A per-step rate has no per-packet meaning.
        let err = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 1)
            .wire_loss(LossModel::Constant { rate: 0.01 })
            .try_run()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidLossModel(_)));
    }

    #[test]
    fn paced_pcc_utilizes_the_link() {
        use axcc_protocols::Pcc;
        let out = PacketScenario::new(paper_link())
            .sender(PacketSenderConfig::new(Box::new(Pcc::new())).paced())
            .duration_secs(40.0)
            .run();
        assert!(out.conservation_ok());
        let tail = out.trace.tail_start(0.5);
        let goodput = out.trace.senders[0].mean_goodput_from(tail);
        let util = goodput / out.trace.link.bandwidth;
        assert!(util > 0.7, "paced PCC utilization {util}");
        // MI boundaries produced epochs at ~RTT cadence, far fewer than
        // the packet count.
        assert!(out.flows[0].epochs > 100);
        assert!(out.flows[0].epochs < out.flows[0].sent / 4);
    }

    #[test]
    fn paced_flow_is_rate_limited_not_bursty() {
        use axcc_protocols::Pcc;
        // A paced flow's in-flight data stays near cwnd (its pacing rate
        // spreads packets out); the local gate bounds it strictly.
        let out = PacketScenario::new(paper_link())
            .sender(PacketSenderConfig::new(Box::new(Pcc::new())).paced())
            .duration_secs(20.0)
            .run();
        let tail = out.trace.tail_start(0.5);
        let max_cwnd = out.trace.senders[0].window[tail..]
            .iter()
            .copied()
            .fold(0.0, f64::max);
        assert!(
            (out.in_flight_at_end[0] as f64) <= 4.0 * max_cwnd + 64.0,
            "in flight {} vs cwnd {max_cwnd}",
            out.in_flight_at_end[0]
        );
    }

    #[test]
    fn paced_and_windowed_reno_coexist() {
        let out = PacketScenario::new(paper_link())
            .sender(PacketSenderConfig::new(Box::new(Aimd::reno())))
            .sender(PacketSenderConfig::new(Box::new(Aimd::reno())).paced())
            .duration_secs(40.0)
            .run();
        assert!(out.conservation_ok());
        let tail = out.trace.tail_start(0.5);
        let g0 = out.trace.senders[0].mean_goodput_from(tail);
        let g1 = out.trace.senders[1].mean_goodput_from(tail);
        // Same protocol, different clocking. The paced flow wins decisively
        // at a droptail queue — its steady arrivals dodge the synchronized
        // burst drops that hit the ACK-clocked flow — but must not starve
        // the window-clocked one outright.
        assert!(g1 > g0, "paced {g1} should out-earn windowed {g0} here");
        let ratio = g0.min(g1) / g0.max(g1);
        assert!(ratio > 0.08, "goodputs {g0} vs {g1}");
    }

    #[test]
    fn paced_runs_are_deterministic() {
        use axcc_protocols::Pcc;
        let run = || {
            let out = PacketScenario::new(paper_link())
                .sender(PacketSenderConfig::new(Box::new(Pcc::new())).paced())
                .duration_secs(10.0)
                .run();
            (out.trace, out.flows)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn red_keeps_the_average_queue_short() {
        use crate::red::RedConfig;
        let plain = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 3)
            .duration_secs(30.0)
            .run();
        let red = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 3)
            .duration_secs(30.0)
            .red(RedConfig::classic(100.0))
            .seed(2)
            .run();
        assert!(red.conservation_ok());
        // RED's early random signals keep the worst-case queue depth well
        // below droptail's full buffer…
        assert!(
            red.queue.max_depth < plain.queue.max_depth,
            "RED {} vs droptail {}",
            red.queue.max_depth,
            plain.queue.max_depth
        );
        // …at comparable utilization.
        let g = |out: &SimOutput| {
            let tail = out.trace.tail_start(0.5);
            out.trace
                .senders
                .iter()
                .map(|s| s.mean_goodput_from(tail))
                .sum::<f64>()
        };
        assert!(
            g(&red) > 0.7 * g(&plain),
            "RED {} vs plain {}",
            g(&red),
            g(&plain)
        );
    }

    #[test]
    fn red_marking_variant_is_loss_free_at_light_load() {
        use crate::red::RedConfig;
        let out = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 2)
            .duration_secs(20.0)
            .red(RedConfig::classic_marking(100.0))
            .run();
        // Marks replace early drops; tail drops can still occur only if
        // the ramp saturates, which two Renos at τ=100 never force.
        assert!(out.queue.marked > 0);
        assert_eq!(out.queue.dropped, 0, "marking RED dropped packets");
    }

    #[test]
    #[should_panic(expected = "not both")]
    fn red_and_step_ecn_are_exclusive() {
        use crate::red::RedConfig;
        PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 1)
            .ecn_threshold(20)
            .red(RedConfig::classic(100.0))
            .run();
    }

    #[test]
    fn bursty_and_uniform_loss_both_impair_at_packet_granularity() {
        // Same 1% mean rate, two temporal structures. At per-packet
        // granularity a burst of consecutive drops lands inside one
        // SACK-recovery epoch and costs one back-off, while the same
        // number of drops spread uniformly trigger a back-off each — the
        // classic correlated-loss result: at fixed mean rate, bursty loss
        // leaves an AIMD *more* goodput than independent loss.
        let run = |model: LossModel| {
            let link = LinkParams::from_experiment(Bandwidth::Mbps(100.0), 42.0, 500.0);
            let out = PacketScenario::new(link)
                .homogeneous(&Aimd::reno(), 1)
                .duration_secs(30.0)
                .wire_loss(model)
                .seed(11)
                .run();
            assert!(out.conservation_ok());
            let tail = out.trace.tail_start(0.5);
            out.trace.senders[0].mean_goodput_from(tail)
        };
        let clean = run(LossModel::None);
        let uniform = run(LossModel::Bernoulli { rate: 0.01 });
        let bursty = run(LossModel::bursty(0.01, 8.0, 0.25));
        // Both impair badly relative to the clean link…
        assert!(uniform < 0.25 * clean, "uniform {uniform} vs clean {clean}");
        assert!(bursty < 0.5 * clean, "bursty {bursty} vs clean {clean}");
        // …and the burst structure concentrates drops into fewer
        // congestion events, retaining more goodput than uniform.
        assert!(bursty > uniform, "bursty {bursty} vs uniform {uniform}");
    }

    #[test]
    fn gilbert_elliott_loss_keeps_conservation_and_determinism() {
        let run = |seed| {
            let out = PacketScenario::new(paper_link())
                .homogeneous(&Aimd::reno(), 2)
                .duration_secs(10.0)
                .wire_loss(LossModel::bursty(0.005, 4.0, 0.2))
                .seed(seed)
                .run();
            assert!(out.conservation_ok());
            (out.trace, out.flows, out.queue)
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a, b);
        assert_ne!(a.0, run(4).0);
    }

    #[test]
    fn rtt_unfairness_with_heterogeneous_delays() {
        // Two Renos; flow 1 has +42 ms of one-way access delay (3x the
        // total RTT). The short-RTT flow completes its epochs ~3x faster
        // and takes the larger share — classic RTT unfairness.
        let out = PacketScenario::new(paper_link())
            .sender(PacketSenderConfig::new(Box::new(Aimd::reno())))
            .sender(PacketSenderConfig::new(Box::new(Aimd::reno())).extra_delay_secs(0.042))
            .duration_secs(60.0)
            .run();
        assert!(out.conservation_ok());
        let tail = out.trace.tail_start(0.5);
        let g_short = out.trace.senders[0].mean_goodput_from(tail);
        let g_long = out.trace.senders[1].mean_goodput_from(tail);
        assert!(
            g_short > 1.5 * g_long,
            "short-RTT {g_short} vs long-RTT {g_long}"
        );
        // And the long flow's RTT samples include the access delay.
        let long_min_rtt = out
            .trace
            .sender_rtt(1)
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(
            long_min_rtt >= 0.042 + 0.084 - 1e-9,
            "min rtt {long_min_rtt}"
        );
    }

    #[test]
    fn ecn_eliminates_drops_and_shortens_the_queue() {
        // Same two-Reno scenario with and without ECN (mark at 20 of 100
        // MSS): with ECN the senders back off on marks before the buffer
        // ever fills — zero drops, much shorter standing queue, same
        // ballpark of goodput.
        let plain = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 2)
            .duration_secs(30.0)
            .run();
        let ecn = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 2)
            .duration_secs(30.0)
            .ecn_threshold(20)
            .run();
        assert!(plain.queue.dropped > 0);
        assert_eq!(ecn.queue.dropped, 0, "ECN run must be loss-free");
        assert!(ecn.queue.marked > 0);
        assert!(
            ecn.queue.max_depth < plain.queue.max_depth,
            "ECN queue {} vs droptail {}",
            ecn.queue.max_depth,
            plain.queue.max_depth
        );
        // Goodput within 25% of the droptail run.
        let g = |out: &SimOutput| {
            let tail = out.trace.tail_start(0.5);
            out.trace
                .senders
                .iter()
                .map(|s| s.mean_goodput_from(tail))
                .sum::<f64>()
        };
        let (gp, ge) = (g(&plain), g(&ecn));
        assert!(ge > 0.75 * gp, "ECN goodput {ge} vs droptail {gp}");
        // Marks are visible in the flow stats and conservation still holds.
        assert!(ecn.flows.iter().any(|f| f.marked > 0));
        assert!(ecn.conservation_ok());
    }

    #[test]
    fn huge_access_delay_saturates_the_clock_instead_of_overflowing() {
        // 2 × 1e10 s is past the nanosecond clock's range: the flow's
        // feedback is scheduled at `Time::NEVER` and never arrives.
        for extra in [1e10, f64::MAX] {
            let out = PacketScenario::new(paper_link())
                .sender(reno().extra_delay_secs(extra))
                .sender(reno())
                .duration_secs(1.0)
                .try_run()
                .unwrap();
            assert!(out.conservation_ok());
            assert_eq!(out.flows[0].acked + out.flows[0].lost, 0);
            assert_eq!(out.in_flight_at_end[0], out.flows[0].sent);
            assert!(out.flows[1].acked > 0, "the other flow still runs");
        }
    }

    /// A link whose RTT is `rtt` seconds: 10⁹ MSS/s (1 ns per packet),
    /// 100-MSS buffer.
    fn fast_link(rtt: f64) -> LinkParams {
        LinkParams::new(1e9, rtt / 2.0, 100.0)
    }

    #[test]
    fn sub_nanosecond_pacing_interval_still_advances_the_clock() {
        // RTT / cwnd = 1 µs / 10⁴ rounds to 0 ns.
        let out = PacketScenario::new(fast_link(1e-6))
            .sender(reno().paced().initial_cwnd(1e4))
            .duration_secs(1e-4)
            .try_run()
            .unwrap();
        assert!(out.conservation_ok());
        assert!(out.flows[0].sent > 0);
    }

    #[test]
    fn sub_nanosecond_rtt_timers_still_advance_the_clock() {
        // A 0.2 ns RTT rounds to 0 ns: the monitor-interval timer, the
        // default sampler and the feedback delay all tick once per ns.
        let out = PacketScenario::new(fast_link(2e-10))
            .sender(reno().paced())
            .sender(reno())
            .duration_secs(1e-6)
            .try_run()
            .unwrap();
        assert!(out.conservation_ok());
        // One sample per nanosecond, both ends included.
        assert_eq!(out.trace.len(), 1001);
        assert!(out.flows.iter().all(|f| f.acked > 0));
        assert!(out.flows[0].epochs > 0, "monitor intervals closed");
    }

    #[test]
    fn ecn_keeps_rtt_near_the_mark_threshold() {
        let out = PacketScenario::new(paper_link())
            .homogeneous(&Aimd::reno(), 2)
            .duration_secs(30.0)
            .ecn_threshold(20)
            .run();
        let link = out.trace.link;
        let tail = out.trace.tail_start(0.5);
        // Mean RTT stays well below the full-buffer RTT: the standing
        // queue hovers around the 20-packet threshold, not 100.
        let mean_rtt = axcc_core::trace::mean(&out.trace.sender_rtt(0)[tail..]);
        let full_buffer_rtt = link.min_rtt() + link.buffer / link.bandwidth;
        let threshold_rtt = link.min_rtt() + 30.0 / link.bandwidth;
        assert!(
            mean_rtt < threshold_rtt,
            "mean rtt {mean_rtt} vs threshold-ish {threshold_rtt} (full {full_buffer_rtt})"
        );
    }

    fn strikes(model: LossModel, seed: u64, n: usize) -> Vec<bool> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut bad = false;
        (0..n).map(|_| strike(model, &mut bad, &mut rng)).collect()
    }

    #[test]
    fn no_loss_draws_nothing() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut bad = false;
        for model in [LossModel::None, LossModel::Bernoulli { rate: 0.0 }] {
            assert!(!strike(model, &mut bad, &mut rng));
        }
        assert_eq!(rng.gen::<u64>(), ChaCha8Rng::seed_from_u64(1).gen::<u64>());
    }

    #[test]
    fn bernoulli_strikes_hit_near_rate() {
        let n = 20_000;
        let hits = strikes(LossModel::Bernoulli { rate: 0.1 }, 2, n);
        let frac = hits.iter().filter(|&&h| h).count() as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "loss fraction {frac}");
    }

    #[test]
    fn gilbert_elliott_strikes_come_in_bursts() {
        // The chain spends bursts of mean 10 packets in the bad state:
        // hits cluster, unlike Bernoulli at the same mean rate.
        let n = 100_000;
        let seq = strikes(LossModel::bursty(0.05, 10.0, 0.5), 3, n);
        let frac = seq.iter().filter(|&&h| h).count() as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.01, "loss fraction {frac}");
        // Conditional loss probability right after a loss should be near
        // the bad-state rate (0.5), far above the 5% mean.
        let after_loss = seq.windows(2).filter(|w| w[0]).count();
        let after_loss_hits = seq.windows(2).filter(|w| w[0] && w[1]).count();
        let cond = after_loss_hits as f64 / after_loss as f64;
        assert!(cond > 0.3, "conditional loss after loss {cond}");
    }

    #[test]
    fn same_seed_same_strikes() {
        let model = LossModel::bursty(0.02, 8.0, 0.2);
        assert_eq!(strikes(model, 9, 2000), strikes(model, 9, 2000));
        assert_ne!(strikes(model, 9, 2000), strikes(model, 10, 2000));
    }
}
