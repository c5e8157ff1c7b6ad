//! The congestion-control protocol abstraction.
//!
//! Paper, Section 2: *"A congestion control protocol (deterministically)
//! maps the history of congestion-window sizes of that sender, and of the
//! RTTs and loss rates experienced by that sender, to the sender's next
//! selection of congestion window size."*
//!
//! We realize this as a trait whose single stepping method receives the
//! current [`Observation`] (the newest element of the history); protocols
//! that need deeper history (e.g. CUBIC's time-since-last-loss, Vegas's
//! minimum-RTT estimate) carry it as internal state, which [`Protocol::reset`]
//! clears. Determinism is a contract: given the same observation sequence
//! after a `reset`, a protocol must produce the same window sequence — the
//! property-test suites in the simulator crates enforce this.

use crate::link::{LossRate, RttSeconds};
use serde::{Deserialize, Serialize};

/// Everything a sender observes about time step `t`, handed to the protocol
/// when it selects the window for `t + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Index of the time step that just elapsed.
    pub tick: u64,
    /// The sender's own congestion window `x_i^(t)` during the step, in MSS.
    pub window: f64,
    /// Loss rate `L^(t)` the sender experienced during the step.
    pub loss_rate: LossRate,
    /// Duration of the step, `RTT(t)`, in seconds.
    pub rtt: RttSeconds,
    /// The smallest RTT this sender has observed so far (its best estimate
    /// of `2Θ`). Latency-aware protocols (Vegas) use it; loss-based ones
    /// must ignore it.
    pub min_rtt: RttSeconds,
}

impl Observation {
    /// Convenience constructor for loss-only observations (used heavily in
    /// unit tests of loss-based protocols, whose behaviour is invariant to
    /// the RTT fields by definition).
    pub fn loss_only(tick: u64, window: f64, loss_rate: LossRate) -> Self {
        Observation {
            tick,
            window,
            loss_rate,
            rtt: 0.1,
            min_rtt: 0.1,
        }
    }
}

/// One step's observations for *all* senders, laid out as per-field
/// lanes, with one RTT shared by every sender.
///
/// Leftover API: no engine builds this view or calls
/// [`Protocol::next_window_lane`] — each sender's step hands its protocol
/// its own [`Observation`] through [`Protocol::next_window`], and
/// protocols implement that method only. The type and the lane method
/// remain solely because perfbench's `RecordingProtocol` overrides
/// them; both go with the next change to perfbench.
#[derive(Debug, Clone, Copy)]
pub struct LaneObs<'a> {
    /// Index of the time step that just elapsed.
    pub tick: u64,
    /// Duration of the step, `RTT(t)`, in seconds — shared by all senders.
    pub rtt: RttSeconds,
    /// Per-sender congestion windows `x_i^(t)` during the step, in MSS.
    pub windows: &'a [f64],
    /// Per-sender loss rates experienced during the step.
    pub losses: &'a [f64],
    /// Per-sender smallest RTT observed so far.
    pub min_rtts: &'a [f64],
}

impl LaneObs<'_> {
    /// Materialize sender `i`'s scalar [`Observation`] from the lanes.
    pub fn observation(&self, i: usize) -> Observation {
        Observation {
            tick: self.tick,
            window: self.windows[i],
            loss_rate: self.losses[i],
            rtt: self.rtt,
            min_rtt: self.min_rtts[i],
        }
    }
}

/// A window-based congestion-control protocol in congestion-avoidance mode.
///
/// Implementations must be **deterministic**: the next window may depend
/// only on the history of observations since the last [`reset`](Self::reset)
/// (and on the protocol's fixed parameters), never on wall-clock time,
/// randomness, or global state.
///
/// The returned window is a *request*; the simulator clamps it to the model's
/// `[0, M]` range ([`MAX_WINDOW`] by default). Protocols should nevertheless
/// avoid returning negative or non-finite values — the debug assertions in
/// the engines flag them.
///
/// Protocols are `Sync` so a sweep job can hold the protocol it runs and
/// share it with worker threads by reference; a run steps clones
/// ([`clone_box`](Self::clone_box)), never the held value.
pub trait Protocol: Send + Sync + std::fmt::Debug {
    /// Human-readable name, e.g. `"AIMD(1,0.5)"`. Used in reports and
    /// experiment tables.
    fn name(&self) -> String;

    /// Select the congestion window for the next time step, given the
    /// observation of the step that just ended.
    fn next_window(&mut self, obs: &Observation) -> f64;

    /// Lane-slice variant of [`next_window`](Self::next_window) over a
    /// [`LaneObs`]: materializes sender `i`'s observation and delegates.
    ///
    /// Leftover API: no engine calls it, so protocols implement
    /// [`next_window`](Self::next_window) only; it remains solely because
    /// perfbench's `RecordingProtocol` overrides it (see [`LaneObs`]).
    fn next_window_lane(&mut self, lanes: &LaneObs<'_>, i: usize) -> f64 {
        self.next_window(&lanes.observation(i))
    }

    /// Whether this protocol is *loss-based*: its window choices are
    /// invariant to the RTT values in the observations (paper, Section 2).
    /// Several theorems (Claim 1, Theorems 2, 3, 5) apply only to loss-based
    /// protocols, so the analysis code dispatches on this flag.
    fn loss_based(&self) -> bool;

    /// Clear all internal state (history), returning the protocol to the
    /// state it had at construction. Parameters are retained.
    fn reset(&mut self);

    /// Clone into a boxed trait object (protocols are cloned once per sender
    /// when a scenario instantiates `n` senders of the same protocol).
    fn clone_box(&self) -> Box<dyn Protocol>;
}

impl Clone for Box<dyn Protocol> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The model's maximum window `M` (MSS). The paper only requires `1 ≪ M`;
/// we pick a value comfortably above every experiment's bandwidth-delay
/// product (the largest `C + τ` in the paper's experiments is 450 MSS).
pub const MAX_WINDOW: f64 = 1.0e9;

/// Clamp a requested window into the model's valid range `[0, M]`,
/// sanitizing non-finite requests to `0` (and flagging them in debug
/// builds, since a well-formed protocol never produces them).
pub fn clamp_window(requested: f64, max_window: f64) -> f64 {
    debug_assert!(
        requested.is_finite(),
        "protocol produced non-finite window {requested}"
    );
    if !requested.is_finite() {
        return 0.0;
    }
    requested.clamp(0.0, max_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal protocol used to exercise the trait plumbing.
    #[derive(Debug, Clone)]
    struct ConstWindow(f64);

    impl Protocol for ConstWindow {
        fn name(&self) -> String {
            format!("Const({})", self.0)
        }
        fn next_window(&mut self, _obs: &Observation) -> f64 {
            self.0
        }
        fn loss_based(&self) -> bool {
            true
        }
        fn reset(&mut self) {}
        fn clone_box(&self) -> Box<dyn Protocol> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn boxed_clone_preserves_behaviour() {
        let p: Box<dyn Protocol> = Box::new(ConstWindow(7.0));
        let mut q = p.clone();
        let obs = Observation::loss_only(0, 1.0, 0.0);
        assert_eq!(q.next_window(&obs), 7.0);
        assert_eq!(q.name(), "Const(7)");
    }

    #[test]
    fn clamp_window_bounds() {
        assert_eq!(clamp_window(-1.0, 100.0), 0.0);
        assert_eq!(clamp_window(0.0, 100.0), 0.0);
        assert_eq!(clamp_window(50.0, 100.0), 50.0);
        assert_eq!(clamp_window(1e12, 100.0), 100.0);
    }

    #[test]
    fn observation_loss_only_sets_loss() {
        let o = Observation::loss_only(3, 10.0, 0.25);
        assert_eq!(o.tick, 3);
        assert_eq!(o.window, 10.0);
        assert_eq!(o.loss_rate, 0.25);
    }

    #[test]
    fn lane_obs_materializes_per_sender_observations() {
        let lanes = LaneObs {
            tick: 7,
            rtt: 0.05,
            windows: &[10.0, 20.0],
            losses: &[0.0, 0.25],
            min_rtts: &[0.04, 0.05],
        };
        let o = lanes.observation(1);
        assert_eq!(o.tick, 7);
        assert_eq!(o.window, 20.0);
        assert_eq!(o.loss_rate, 0.25);
        assert_eq!(o.rtt, 0.05);
        assert_eq!(o.min_rtt, 0.05);
    }

    #[test]
    fn default_lane_method_delegates_to_next_window() {
        let mut p = ConstWindow(7.0);
        let lanes = LaneObs {
            tick: 0,
            rtt: 0.1,
            windows: &[1.0],
            losses: &[0.0],
            min_rtts: &[0.1],
        };
        assert_eq!(
            p.next_window_lane(&lanes, 0).to_bits(),
            p.next_window(&lanes.observation(0)).to_bits()
        );
    }
}
