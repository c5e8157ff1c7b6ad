//! The single-bottleneck link of the paper's model (Section 2) and its two
//! governing equations: RTT (equation 1) and the droptail loss rate.

use crate::error::{finite_non_negative, positive_finite, require, ScenarioError};
use crate::units::{ms_to_sec, Bandwidth};
use serde::{Deserialize, Serialize};

/// An RTT value in seconds.
pub type RttSeconds = f64;

/// A loss rate in `[0, 1]`.
pub type LossRate = f64;

/// Parameters of the bottleneck link: bandwidth `B` (MSS/s), propagation
/// delay `Θ` (seconds, one-way), and buffer size `τ` (MSS).
///
/// The paper's model is explicit that `B`, `Θ`, and `τ` are **unknown to the
/// senders** — protocols may not special-case them. They are, of course,
/// known to the simulator and to the metric evaluators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Link bandwidth `B` in MSS per second. Must be positive.
    pub bandwidth: f64,
    /// One-way propagation delay `Θ` in seconds. Must be positive.
    pub prop_delay: f64,
    /// Buffer size `τ` in MSS. Must be non-negative.
    pub buffer: f64,
    /// Timeout-triggered RTT cap `Δ` (seconds), returned by equation (1)
    /// when the link is in loss. Must satisfy `Δ ≥ 2Θ + τ/B` (an RTT under
    /// loss cannot be shorter than a full queue's worth of delay).
    pub timeout_delta: f64,
}

impl LinkParams {
    /// Build a link from bandwidth, propagation delay, and buffer, choosing
    /// the conventional timeout cap `Δ = 2·(2Θ + τ/B)` (twice the maximal
    /// non-loss RTT — the paper leaves `Δ` abstract).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth ≤ 0`, `prop_delay ≤ 0`, or `buffer < 0`; the
    /// model is undefined for those values.
    pub fn new(bandwidth: f64, prop_delay: f64, buffer: f64) -> Self {
        assert!(bandwidth > 0.0, "link bandwidth must be positive");
        assert!(prop_delay > 0.0, "propagation delay must be positive");
        assert!(buffer >= 0.0, "buffer size must be non-negative");
        Self::unchecked(bandwidth, prop_delay, buffer)
    }

    fn unchecked(bandwidth: f64, prop_delay: f64, buffer: f64) -> Self {
        let max_queueing_rtt = 2.0 * prop_delay + buffer / bandwidth;
        LinkParams {
            bandwidth,
            prop_delay,
            buffer,
            timeout_delta: 2.0 * max_queueing_rtt,
        }
    }

    /// Build a link the way the paper's experiments describe one: bandwidth
    /// in Mbps, **round-trip** propagation delay in milliseconds (the paper's
    /// "fixed RTT of 42ms" is `2Θ`), and buffer in MSS.
    pub fn from_experiment(bandwidth: Bandwidth, rtt_ms: f64, buffer_mss: f64) -> Self {
        Self::new(bandwidth.mss_per_sec(), ms_to_sec(rtt_ms) / 2.0, buffer_mss)
    }

    /// [`from_experiment`](Self::from_experiment) for untrusted input (a
    /// command line, a wire request): the link [`validate`](Self::validate)
    /// accepts, or its typed refusal — never a panic.
    pub fn try_from_experiment(
        bandwidth: Bandwidth,
        rtt_ms: f64,
        buffer_mss: f64,
    ) -> Result<Self, ScenarioError> {
        let link = Self::unchecked(bandwidth.mss_per_sec(), ms_to_sec(rtt_ms) / 2.0, buffer_mss);
        link.validate().map(|()| link)
    }

    /// Check, with a typed refusal, what [`new`](Self::new) asserts (the
    /// fields are public): bandwidth and propagation delay positive and
    /// finite in the model's units (an input that overflows or rounds to
    /// zero is refused), the buffer finite and non-negative, and the
    /// timeout RTT `Δ` finite and at least the `2Θ` floor.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        positive_finite("link.bandwidth", self.bandwidth)?;
        positive_finite("link.prop_delay", self.prop_delay)?;
        finite_non_negative("link.buffer", self.buffer)?;
        let delta = self.timeout_delta;
        let ok = delta >= self.min_rtt() && delta.is_finite();
        let floor = "finite and at least the 2Θ floor";
        require(ok, "link.timeout_delta", delta, floor)
    }

    /// The standard reference link shared by the theorem checks, the
    /// robustness shootout, the extension experiments, and the examples:
    /// 12 Mbps (exactly 1000 MSS/s at 1500-byte MSS), 100 ms RTT
    /// (`Θ` = 50 ms), and a 20-MSS buffer — so `C = B·2Θ = 100` MSS and
    /// the loss threshold `C + τ = 120` MSS.
    pub fn reference() -> Self {
        Self::from_experiment(Bandwidth::Mbps(12.0), 100.0, 20.0)
    }

    /// The link "capacity" `C = B · 2Θ`: the minimum possible
    /// bandwidth-delay product (paper, Section 2).
    pub fn capacity(&self) -> f64 {
        self.bandwidth * 2.0 * self.prop_delay
    }

    /// The minimum possible RTT, `2Θ`.
    pub fn min_rtt(&self) -> RttSeconds {
        2.0 * self.prop_delay
    }

    /// `C + τ`: the most traffic a time step can carry without loss.
    pub fn loss_threshold(&self) -> f64 {
        self.capacity() + self.buffer
    }

    /// Equation (1) of the paper: the duration of a time step as a function
    /// of the total window `X^(t)`.
    ///
    /// ```text
    /// RTT(x̄, C, τ) = max(2Θ, (X − C)/B + 2Θ)   if X < C + τ
    ///              = Δ                          otherwise
    /// ```
    ///
    /// The first branch is the queueing delay of the `X − C` MSS that do not
    /// fit in one bandwidth-delay product; the second is the timeout cap on
    /// RTT when the buffer overflows.
    ///
    /// ```
    /// use axcc_core::LinkParams;
    /// let link = LinkParams::new(1000.0, 0.05, 20.0); // C = 100 MSS
    /// assert_eq!(link.rtt(80.0), 0.1);                // under capacity: 2Θ
    /// assert!((link.rtt(110.0) - 0.11).abs() < 1e-12); // 10 MSS queued
    /// assert_eq!(link.rtt(150.0), link.timeout_delta); // overflow: Δ
    /// assert!((link.loss_rate(150.0) - 0.2).abs() < 1e-12);
    /// ```
    pub fn rtt(&self, total_window: f64) -> RttSeconds {
        let c = self.capacity();
        if total_window < self.loss_threshold() {
            let queueing = (total_window - c) / self.bandwidth;
            (2.0 * self.prop_delay + queueing).max(2.0 * self.prop_delay)
        } else {
            self.timeout_delta
        }
    }

    /// The droptail loss-rate equation of the paper:
    ///
    /// ```text
    /// L(x̄, C, τ) = 1 − (C+τ)/X   if X > C + τ
    ///            = 0              otherwise
    /// ```
    ///
    /// Because droptail FIFO drops excess traffic independently of who sent
    /// it, each sender experiences the *same* loss rate.
    pub fn loss_rate(&self, total_window: f64) -> LossRate {
        let thresh = self.loss_threshold();
        if total_window > thresh {
            1.0 - thresh / total_window
        } else {
            0.0
        }
    }

    /// Goodput (MSS/s) of a sender holding window `window` when the total is
    /// `total_window`: the delivered fraction of its window per RTT.
    pub fn goodput(&self, window: f64, total_window: f64) -> f64 {
        let rtt = self.rtt(total_window);
        window * (1.0 - self.loss_rate(total_window)) / rtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Bandwidth;

    fn paper_link() -> LinkParams {
        // 100 Mbps, 42 ms RTT, 100 MSS buffer — a Table 2 configuration.
        LinkParams::from_experiment(Bandwidth::Mbps(100.0), 42.0, 100.0)
    }

    #[test]
    fn capacity_is_bandwidth_delay_product() {
        let l = paper_link();
        // C = 8333.33 MSS/s * 0.042 s = 350 MSS
        assert!((l.capacity() - 350.0).abs() < 1e-6, "C = {}", l.capacity());
    }

    #[test]
    fn rtt_floor_is_two_theta() {
        let l = paper_link();
        assert_eq!(l.rtt(0.0), 0.042);
        assert_eq!(l.rtt(l.capacity()), 0.042);
        assert_eq!(l.rtt(l.capacity() * 0.5), 0.042);
    }

    #[test]
    fn rtt_grows_linearly_in_queue() {
        let l = paper_link();
        let c = l.capacity();
        // 50 MSS of standing queue => 50/B extra seconds.
        let expect = 0.042 + 50.0 / l.bandwidth;
        assert!((l.rtt(c + 50.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn rtt_capped_at_delta_on_overflow() {
        let l = paper_link();
        let x = l.loss_threshold() + 1.0;
        assert_eq!(l.rtt(x), l.timeout_delta);
        assert_eq!(l.rtt(x * 10.0), l.timeout_delta);
    }

    #[test]
    fn delta_at_least_max_queueing_rtt() {
        let l = paper_link();
        assert!(l.timeout_delta >= l.min_rtt() + l.buffer / l.bandwidth);
    }

    #[test]
    fn loss_zero_below_threshold() {
        let l = paper_link();
        assert_eq!(l.loss_rate(0.0), 0.0);
        assert_eq!(l.loss_rate(l.loss_threshold()), 0.0);
    }

    #[test]
    fn loss_matches_formula_above_threshold() {
        let l = paper_link();
        let thresh = l.loss_threshold();
        let x = thresh * 2.0;
        assert!((l.loss_rate(x) - 0.5).abs() < 1e-12);
        let x = thresh / 0.9; // 10% overshoot in the sense L = 0.1
        assert!((l.loss_rate(x) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn loss_rate_bounded() {
        let l = paper_link();
        for x in [0.0, 1.0, 100.0, 450.0, 451.0, 1e6, 1e12] {
            let r = l.loss_rate(x);
            assert!((0.0..1.0).contains(&r), "loss {r} for X={x}");
        }
    }

    #[test]
    fn goodput_of_sole_sender_at_capacity() {
        let l = paper_link();
        let c = l.capacity();
        // One sender exactly filling the pipe: goodput = C / 2Θ = B.
        let g = l.goodput(c, c);
        assert!((g - l.bandwidth).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        LinkParams::new(0.0, 0.021, 100.0);
    }

    #[test]
    #[should_panic(expected = "propagation delay must be positive")]
    fn rejects_zero_delay() {
        LinkParams::new(1000.0, 0.0, 100.0);
    }

    #[test]
    #[should_panic(expected = "buffer size must be non-negative")]
    fn rejects_negative_buffer() {
        LinkParams::new(1000.0, 0.021, -1.0);
    }

    #[test]
    fn from_experiment_halves_rtt() {
        let l = LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 10.0);
        assert!((l.prop_delay - 0.021).abs() < 1e-12);
        assert!((l.min_rtt() - 0.042).abs() < 1e-12);
    }

    #[test]
    fn untrusted_links_are_refused_with_the_field_named() {
        let ok = LinkParams::try_from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0);
        assert_eq!(
            ok,
            Ok(LinkParams::from_experiment(
                Bandwidth::Mbps(20.0),
                42.0,
                100.0
            ))
        );
        let field = |bw: f64, rtt: f64, buf: f64| match LinkParams::try_from_experiment(
            Bandwidth::Mbps(bw),
            rtt,
            buf,
        ) {
            Err(ScenarioError::InvalidParameter { field, .. }) => field,
            other => panic!("({bw}, {rtt}, {buf}) was not refused: {other:?}"),
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0] {
            assert_eq!(field(bad, 42.0, 100.0), "link.bandwidth");
            assert_eq!(field(20.0, bad, 100.0), "link.prop_delay");
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert_eq!(field(20.0, 42.0, bad), "link.buffer");
        }
        // Finite inputs whose model value overflows or rounds to zero,
        // and a buffer too deep for the timeout RTT to stay finite.
        assert_eq!(field(1e306, 42.0, 100.0), "link.bandwidth");
        assert_eq!(field(20.0, 5e-324, 100.0), "link.prop_delay");
        assert_eq!(field(1e-300, 42.0, 1e300), "link.timeout_delta");
        // A zero buffer is the paper's bufferless link.
        assert!(LinkParams::try_from_experiment(Bandwidth::Mbps(20.0), 42.0, 0.0).is_ok());
    }
}
