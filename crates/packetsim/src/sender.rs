//! The ACK-clocked window sender and its protocol-epoch adapter.
//!
//! A flow keeps `⌊cwnd⌋` packets in flight (at least one, so feedback never
//! dries up). Feedback — ACKs and SACK-style loss notifications — arrives
//! one RTT after transmission. The adapter aggregates a window's worth of
//! feedback into one **epoch**, the packet-level counterpart of the fluid
//! model's synchronized RTT step (and exactly Robust-AIMD's "monitor
//! interval": *"the sender sends at a certain rate and uses selective ACKs
//! from the receiver to learn the resulting loss rate"*). At each epoch
//! boundary the congestion-control [`Protocol`] observes
//! `(window, loss rate, mean RTT, min RTT)` and selects the next window.

use axcc_core::protocol::clamp_window;
use axcc_core::{Observation, Protocol};

use crate::stats::FlowStats;
use crate::time::Time;

/// Minimum congestion window: a sender must keep probing with at least one
/// packet per RTT or it would never receive feedback again. (Real TCPs have
/// the same floor; the fluid model allows windows below 1 MSS, which is the
/// one place the two substrates intentionally differ.)
pub const MIN_CWND: f64 = 1.0;

/// How a flow injects packets into the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Classic ACK clocking: keep `⌊cwnd⌋` packets in flight (the paper's
    /// window-based model).
    WindowClocked,
    /// Pacing: transmit on a timer at rate `cwnd / sRTT`, close protocol
    /// epochs on monitor-interval boundaries rather than feedback counts
    /// — the sender class of PCC and BBR, which the paper's Section 2
    /// defers to future research.
    Paced,
}

/// Per-flow sender state.
pub struct Sender {
    /// The congestion-control protocol driving this flow.
    protocol: Box<dyn Protocol>,
    /// Congestion window (MSS, fractional).
    cwnd: f64,
    /// Cap on the window (the model's `M`).
    max_window: f64,
    /// Packets currently in flight (sent, no feedback yet).
    in_flight: u64,
    /// Whether the flow has started.
    pub active: bool,
    /// Window-clocked or paced.
    mode: SendMode,
    // --- epoch accumulation ---
    epoch_acked: u64,
    epoch_lost: u64,
    epoch_marked: u64,
    epoch_discounted: u64,
    epoch_rtt_sum: f64,
    epoch_rtt_count: u64,
    epoch_target: u64,
    epoch_index: u64,
    last_rtt: f64,
    min_rtt: f64,
    /// Packets sent before this instant belong to an already-handled
    /// congestion event; their losses are discounted (no second back-off).
    recovery_until: Time,
    // --- accounting ---
    pub(crate) stats: FlowStats,
}

impl Sender {
    /// A window-clocked sender with the given protocol, initial window,
    /// and window cap.
    pub fn new(protocol: Box<dyn Protocol>, initial_cwnd: f64, max_window: f64) -> Self {
        Self::with_mode(protocol, initial_cwnd, max_window, SendMode::WindowClocked)
    }

    /// A sender with an explicit [`SendMode`].
    pub fn with_mode(
        protocol: Box<dyn Protocol>,
        initial_cwnd: f64,
        max_window: f64,
        mode: SendMode,
    ) -> Self {
        let cwnd = clamp_window(initial_cwnd.max(MIN_CWND), max_window);
        Sender {
            protocol,
            cwnd,
            max_window,
            in_flight: 0,
            active: false,
            mode,
            epoch_acked: 0,
            epoch_lost: 0,
            epoch_marked: 0,
            epoch_discounted: 0,
            epoch_rtt_sum: 0.0,
            epoch_rtt_count: 0,
            epoch_target: cwnd.floor().max(1.0) as u64,
            epoch_index: 0,
            last_rtt: 0.0,
            min_rtt: f64::INFINITY,
            recovery_until: Time::ZERO,
            stats: FlowStats::default(),
        }
    }

    /// Whether the driving protocol is loss-based.
    pub fn loss_based(&self) -> bool {
        self.protocol.loss_based()
    }

    /// Current congestion window.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Packets currently unacknowledged.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// The most recent RTT sample (0 until the first ACK).
    pub fn last_rtt(&self) -> f64 {
        self.last_rtt
    }

    /// Smallest RTT sample seen (∞ until the first ACK).
    pub fn min_rtt(&self) -> f64 {
        self.min_rtt
    }

    /// The flow's send mode.
    pub fn mode(&self) -> SendMode {
        self.mode
    }

    /// How many more packets the window permits right now (window-clocked
    /// flows; paced flows transmit on their timer instead).
    pub fn can_send(&self) -> u64 {
        debug_assert_eq!(self.mode, SendMode::WindowClocked);
        let allowed = self.cwnd.floor().max(MIN_CWND) as u64;
        allowed.saturating_sub(self.in_flight)
    }

    /// The pacing interval between packets for a paced flow: `sRTT/cwnd`,
    /// using `fallback_rtt` until the first RTT sample exists.
    pub fn pacing_interval(&self, fallback_rtt: f64) -> Time {
        debug_assert_eq!(self.mode, SendMode::Paced);
        let rtt = if self.last_rtt > 0.0 {
            self.last_rtt
        } else {
            fallback_rtt
        };
        Time::from_secs_f64(rtt / self.cwnd.max(MIN_CWND))
    }

    /// A local outstanding-data bound for paced flows (models the host's
    /// own queue limit): transmission is skipped while more than
    /// `4·cwnd + 64` packets are unresolved, so an unresponsive rate
    /// cannot leak unbounded state into the simulator.
    pub fn pacing_gate_open(&self) -> bool {
        debug_assert_eq!(self.mode, SendMode::Paced);
        (self.in_flight as f64) < 4.0 * self.cwnd + 64.0
    }

    /// Close the current epoch on a monitor-interval boundary (paced
    /// flows): evaluate whatever feedback arrived during the interval.
    /// With no resolved feedback at all the protocol is not consulted
    /// (there is nothing to observe) and `false` is returned.
    pub fn close_epoch_timed(&mut self, now: Time) -> bool {
        debug_assert_eq!(self.mode, SendMode::Paced);
        if self.epoch_acked + self.epoch_lost + self.epoch_discounted == 0 {
            return false;
        }
        // Force the close over exactly the accumulated feedback.
        self.epoch_target = self.epoch_acked + self.epoch_lost + self.epoch_discounted;
        let closed = self.maybe_close_epoch(now, true);
        debug_assert!(closed);
        closed
    }

    /// Record a transmission.
    pub fn on_send(&mut self) {
        self.in_flight += 1;
        self.stats.sent += 1;
    }

    /// Record an ACK (with its RTT sample). `marked` carries the ECN
    /// congestion-experienced bit: the packet was *delivered*, but the
    /// queue signalled congestion, so the mark counts towards the epoch's
    /// congestion-signal rate exactly like a loss would (RFC 3168
    /// loss-equivalence), subject to the same one-reaction-per-event
    /// recovery discounting. Returns `true` if this feedback closed an
    /// epoch.
    pub fn on_ack(&mut self, now: Time, sent_at: Time, marked: bool) -> bool {
        debug_assert!(self.in_flight > 0, "ACK with nothing in flight");
        self.in_flight = self.in_flight.saturating_sub(1);
        self.stats.acked += 1;
        let rtt = now.saturating_since(sent_at).as_secs_f64();
        self.last_rtt = rtt;
        self.min_rtt = self.min_rtt.min(rtt);
        self.epoch_acked += 1;
        if marked {
            self.stats.marked += 1;
            if sent_at >= self.recovery_until {
                self.epoch_marked += 1;
            }
        }
        self.epoch_rtt_sum += rtt;
        self.epoch_rtt_count += 1;
        self.maybe_close_epoch(now, false)
    }

    /// Record a loss notification for a packet sent at `sent_at`. Losses
    /// of packets transmitted before the last loss-triggered epoch close
    /// are **discounted**: they belong to the congestion event the
    /// protocol already reacted to, so they count towards the epoch's
    /// feedback quota but not its loss rate (TCP's one-back-off-per-window
    /// recovery semantics; for Robust-AIMD this is exactly "one monitor
    /// interval, one decision"). Returns `true` if this closed an epoch.
    pub fn on_loss(&mut self, now: Time, sent_at: Time) -> bool {
        debug_assert!(self.in_flight > 0, "loss with nothing in flight");
        self.in_flight = self.in_flight.saturating_sub(1);
        self.stats.lost += 1;
        if sent_at < self.recovery_until {
            self.epoch_discounted += 1;
        } else {
            self.epoch_lost += 1;
        }
        self.maybe_close_epoch(now, false)
    }

    fn maybe_close_epoch(&mut self, now: Time, forced: bool) -> bool {
        // Paced flows close epochs only on monitor-interval boundaries
        // (`forced` via close_epoch_timed), never on feedback counts.
        if self.mode == SendMode::Paced && !forced {
            return false;
        }
        if self.epoch_acked + self.epoch_lost + self.epoch_discounted < self.epoch_target {
            return false;
        }
        let counted = (self.epoch_acked + self.epoch_lost) as f64;
        // Congestion signal = losses + ECN marks, over the resolved
        // packets of the epoch.
        let signals = (self.epoch_lost + self.epoch_marked) as f64;
        let loss_rate = if counted > 0.0 {
            (signals / counted).min(1.0)
        } else {
            0.0
        };
        if self.epoch_lost + self.epoch_marked > 0 {
            // The protocol is about to react to this congestion event;
            // signals from packets already in the network belong to it.
            self.recovery_until = now;
        }
        let rtt = if self.epoch_rtt_count > 0 {
            self.epoch_rtt_sum / self.epoch_rtt_count as f64
        } else {
            // An all-loss epoch carries no RTT samples; reuse the last one.
            self.last_rtt
        };
        let min_rtt = if self.min_rtt.is_finite() {
            self.min_rtt
        } else {
            rtt
        };
        let obs = Observation {
            tick: self.epoch_index,
            window: self.cwnd,
            loss_rate,
            rtt,
            min_rtt,
        };
        let requested = self.protocol.next_window(&obs);
        self.cwnd = clamp_window(requested.max(MIN_CWND), self.max_window);
        self.epoch_index += 1;
        self.epoch_acked = 0;
        self.epoch_lost = 0;
        self.epoch_marked = 0;
        self.epoch_discounted = 0;
        self.epoch_rtt_sum = 0.0;
        self.epoch_rtt_count = 0;
        self.epoch_target = self.cwnd.floor().max(1.0) as u64;
        self.stats.epochs += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcc_protocols::Aimd;

    fn sender(cwnd: f64) -> Sender {
        Sender::new(Box::new(Aimd::reno()), cwnd, 1e9)
    }

    #[test]
    fn can_send_respects_window_and_in_flight() {
        let mut s = sender(4.0);
        assert_eq!(s.can_send(), 4);
        s.on_send();
        s.on_send();
        assert_eq!(s.can_send(), 2);
        assert_eq!(s.in_flight(), 2);
    }

    #[test]
    fn fractional_window_floors() {
        let s = sender(4.9);
        assert_eq!(s.can_send(), 4);
    }

    #[test]
    fn window_floor_is_one_packet() {
        let s = sender(0.2);
        assert_eq!(s.can_send(), 1);
    }

    #[test]
    fn clean_epoch_triggers_additive_increase() {
        let mut s = sender(3.0);
        for _ in 0..3 {
            s.on_send();
        }
        // Three ACKs at 50 ms RTT: epoch of 3 closes, Reno adds 1.
        assert!(!s.on_ack(Time::from_secs_f64(0.05), Time::ZERO, false));
        assert!(!s.on_ack(Time::from_secs_f64(0.05), Time::ZERO, false));
        assert!(s.on_ack(Time::from_secs_f64(0.05), Time::ZERO, false));
        assert_eq!(s.cwnd(), 4.0);
        assert_eq!(s.stats.epochs, 1);
    }

    #[test]
    fn lossy_epoch_triggers_backoff() {
        let mut s = sender(4.0);
        for _ in 0..4 {
            s.on_send();
        }
        s.on_ack(Time::from_secs_f64(0.05), Time::ZERO, false);
        s.on_ack(Time::from_secs_f64(0.05), Time::ZERO, false);
        s.on_ack(Time::from_secs_f64(0.05), Time::ZERO, false);
        assert!(s.on_loss(Time::from_secs_f64(0.06), Time::from_secs_f64(0.01)));
        // Loss rate 25% > 0: Reno halves 4 -> 2.
        assert_eq!(s.cwnd(), 2.0);
    }

    #[test]
    fn rtt_tracking() {
        let mut s = sender(2.0);
        s.on_send();
        s.on_send();
        s.on_ack(Time::from_secs_f64(0.100), Time::ZERO, false);
        s.on_ack(Time::from_secs_f64(0.160), Time::from_secs_f64(0.08), false);
        assert!((s.last_rtt() - 0.08).abs() < 1e-9);
        assert!((s.min_rtt() - 0.08).abs() < 1e-9);
    }

    #[test]
    fn all_loss_epoch_reuses_last_rtt() {
        let mut s = sender(2.0);
        s.on_send();
        s.on_send();
        s.on_ack(Time::from_secs_f64(0.05), Time::ZERO, false);
        s.on_loss(Time::from_secs_f64(0.06), Time::from_secs_f64(0.01)); // closes epoch (2 of 2) with loss rate 0.5
        assert_eq!(s.cwnd(), 1.0); // Reno halves 2 -> 1
                                   // A *fresh* loss (packet sent after the back-off at t = 0.06)
                                   // triggers another halving, floored at MIN_CWND; no RTT samples in
                                   // the epoch, so the last RTT is reused internally.
        s.on_send();
        assert!(s.on_loss(Time::from_secs_f64(0.20), Time::from_secs_f64(0.15)));
        assert_eq!(s.cwnd(), 1.0); // halve again, floored at MIN_CWND
    }

    #[test]
    fn discounted_losses_do_not_double_back_off() {
        // Epoch 1: cwnd 4, one fresh loss ⇒ Reno halves to 2 and enters
        // recovery at t = 0.06.
        let mut s = sender(4.0);
        for _ in 0..4 {
            s.on_send();
        }
        for _ in 0..3 {
            s.on_ack(Time::from_secs_f64(0.05), Time::ZERO, false);
        }
        assert!(s.on_loss(Time::from_secs_f64(0.06), Time::from_secs_f64(0.01)));
        assert_eq!(s.cwnd(), 2.0);
        // Epoch 2: two more losses from the SAME burst (sent before the
        // back-off): discounted ⇒ the epoch closes with loss rate 0 and
        // Reno *increases* instead of collapsing further.
        s.on_send();
        s.on_send();
        s.on_loss(Time::from_secs_f64(0.07), Time::from_secs_f64(0.02));
        s.on_loss(Time::from_secs_f64(0.08), Time::from_secs_f64(0.03));
        assert_eq!(s.cwnd(), 3.0);
        // All losses still counted in the packet stats.
        assert_eq!(s.stats.lost, 3);
    }

    #[test]
    fn epoch_target_follows_new_window() {
        let mut s = sender(2.0);
        s.on_send();
        s.on_send();
        s.on_ack(Time::from_secs_f64(0.05), Time::ZERO, false);
        s.on_ack(Time::from_secs_f64(0.05), Time::ZERO, false);
        // cwnd is now 3; the next epoch needs 3 feedback events.
        assert_eq!(s.cwnd(), 3.0);
        for _ in 0..3 {
            s.on_send();
        }
        assert!(!s.on_ack(Time::from_secs_f64(0.1), Time::ZERO, false));
        assert!(!s.on_ack(Time::from_secs_f64(0.1), Time::ZERO, false));
        assert!(s.on_ack(Time::from_secs_f64(0.1), Time::ZERO, false));
        assert_eq!(s.cwnd(), 4.0);
    }

    #[test]
    fn conservation_in_stats() {
        let mut s = sender(8.0);
        for _ in 0..8 {
            s.on_send();
        }
        for _ in 0..5 {
            s.on_ack(Time::from_secs_f64(0.05), Time::ZERO, false);
        }
        for _ in 0..2 {
            s.on_loss(Time::from_secs_f64(0.06), Time::from_secs_f64(0.01));
        }
        assert_eq!(s.stats.sent, 8);
        assert_eq!(s.stats.acked, 5);
        assert_eq!(s.stats.lost, 2);
        assert_eq!(s.in_flight(), 1);
        assert_eq!(s.stats.sent, s.stats.acked + s.stats.lost + s.in_flight());
    }
}
