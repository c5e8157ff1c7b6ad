//! Packet accounting for flows and the bottleneck queue.

use serde::{Deserialize, Serialize};

/// Per-flow packet counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Packets transmitted.
    pub sent: u64,
    /// Packets acknowledged.
    pub acked: u64,
    /// Packets reported lost (queue drops + wire loss).
    pub lost: u64,
    /// Packets delivered with an ECN congestion-experienced mark.
    pub marked: u64,
    /// Protocol epochs (monitor intervals) completed.
    pub epochs: u64,
}

impl FlowStats {
    /// Overall loss fraction of the flow's resolved packets.
    pub fn loss_fraction(&self) -> f64 {
        let resolved = self.acked + self.lost;
        if resolved == 0 {
            0.0
        } else {
            self.lost as f64 / resolved as f64
        }
    }

    /// Conservation check: every sent packet is acked, lost, or still in
    /// flight.
    pub fn conserves(&self, in_flight: u64) -> bool {
        self.sent == self.acked + self.lost + in_flight
    }
}

/// Bottleneck queue counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Packets accepted by the queue.
    pub enqueued: u64,
    /// Packets dropped at the tail.
    pub dropped: u64,
    /// High-water mark of the buffer depth (packets).
    pub max_depth: usize,
    /// Packets dropped by the wire-loss process (after the queue).
    pub wire_lost: u64,
    /// Packets ECN-marked by the queue.
    pub marked: u64,
}

impl QueueStats {
    /// Fraction of offered packets the queue dropped.
    pub fn drop_fraction(&self) -> f64 {
        let offered = self.enqueued + self.dropped;
        if offered == 0 {
            0.0
        } else {
            self.dropped as f64 / offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_fraction_handles_empty() {
        assert_eq!(FlowStats::default().loss_fraction(), 0.0);
    }

    #[test]
    fn loss_fraction_counts_resolved_only() {
        let s = FlowStats {
            sent: 10,
            acked: 6,
            lost: 2,
            marked: 0,
            epochs: 1,
        };
        assert!((s.loss_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn conservation() {
        let s = FlowStats {
            sent: 10,
            acked: 6,
            lost: 2,
            marked: 3,
            epochs: 1,
        };
        assert!(s.conserves(2));
        assert!(!s.conserves(3));
    }

    #[test]
    fn queue_drop_fraction() {
        let q = QueueStats {
            enqueued: 90,
            dropped: 10,
            max_depth: 7,
            wire_lost: 0,
            marked: 0,
        };
        assert!((q.drop_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(QueueStats::default().drop_fraction(), 0.0);
    }
}
