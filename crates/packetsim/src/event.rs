//! The event queue: sorted delay lines plus a heap.
//!
//! Events pop in increasing `(time, insertion sequence)` order. The
//! sequence number makes simultaneous events fire in insertion order,
//! which is what makes the simulation deterministic (smoltcp-style "no
//! surprises"): two runs of the same scenario pop events in exactly the
//! same order.
//!
//! Almost every event the engine schedules lands at `now + D` for a
//! constant `D`: ACKs and loss notices one feedback delay out,
//! departures one serialization time, samples one sample interval. The
//! clock `now` never goes back, so each such stream is already sorted by
//! time. The queue keeps up to [`MAX_LANES`] FIFO *delay lines*:
//! `schedule` appends an event to the line whose last event is the
//! latest one not after it (best fit), and only events that fit no line
//! (out-of-order one-off timers) go to a binary heap. Sequence numbers only grow, so appending keeps every line
//! sorted by `(time, seq)`; `pop` takes the least of the line fronts and
//! the heap top, which is the global minimum. The pop order is therefore
//! exactly that of a single heap on `(time, seq)`, while most events cost
//! a ring-buffer append and a front read instead of two heap sifts.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A flow becomes active and may start sending.
    FlowStart {
        /// Index of the flow.
        flow: usize,
    },
    /// A flow departs: it stops transmitting for good (in-flight packets
    /// still drain and their feedback is still delivered, keeping packet
    /// conservation exact).
    FlowStop {
        /// Index of the flow.
        flow: usize,
    },
    /// The packet at the head of the bottleneck queue finishes
    /// serialization.
    QueueDeparture,
    /// An ACK reaches the sender: the packet sent at `sent_at` was
    /// delivered (possibly carrying an ECN congestion mark).
    AckArrive {
        /// Index of the flow.
        flow: usize,
        /// Transmission time of the acked packet (for RTT sampling).
        sent_at: Time,
        /// Whether the packet was ECN-marked by the queue.
        marked: bool,
    },
    /// SACK-style loss feedback reaches the sender: one packet was lost.
    LossNotify {
        /// Index of the flow.
        flow: usize,
        /// Transmission time of the lost packet — the sender uses it to
        /// apply at most one back-off per congestion event (losses of
        /// packets sent before the last back-off are "discounted").
        sent_at: Time,
    },
    /// A paced flow's next transmission instant (rate-based senders only).
    PacedSend {
        /// Index of the flow.
        flow: usize,
    },
    /// A paced flow's monitor-interval boundary: close the epoch on time,
    /// not on feedback count.
    MiBoundary {
        /// Index of the flow.
        flow: usize,
    },
    /// The trace sampler fires (records every flow's instantaneous state).
    Sample,
}

#[derive(Debug)]
struct Scheduled {
    at: Time,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Most delay lines a queue keeps; events that fit none go to the heap.
/// A run has a handful of constant-delay streams (feedback, departures,
/// samples, timers), so a few lines absorb nearly all of its events.
pub const MAX_LANES: usize = 8;

/// Deterministic event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// FIFO delay lines, each sorted by `(time, seq)`.
    lanes: Vec<VecDeque<Scheduled>>,
    /// Events that fit no delay line.
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    len: usize,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let item = Scheduled { at, seq, event };
        // Best fit: the line whose last event is the latest not after
        // `at`; an empty line takes anything but is the last resort.
        let mut fit: Option<(usize, Time)> = None;
        let mut empty = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            match lane.back() {
                Some(last) if last.at <= at && fit.is_none_or(|(_, t)| last.at > t) => {
                    fit = Some((i, last.at));
                }
                None if empty.is_none() => empty = Some(i),
                _ => {}
            }
        }
        match fit.map(|(i, _)| i).or(empty) {
            Some(i) => self.lanes[i].push_back(item),
            None if self.lanes.len() < MAX_LANES => self.lanes.push(VecDeque::from([item])),
            None => self.heap.push(item),
        }
    }

    /// Pop the earliest event (ties broken by insertion order).
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        let mut best = self.heap.peek().map(|s| (s.at, s.seq));
        let mut from_lane = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(front) = lane.front() {
                let key = (front.at, front.seq);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                    from_lane = Some(i);
                }
            }
        }
        let next = match from_lane {
            Some(i) => self.lanes[i].pop_front(),
            None => self.heap.pop(),
        }?;
        self.len -= 1;
        Some((next.at, next.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(30), Event::Sample);
        q.schedule(Time(10), Event::QueueDeparture);
        q.schedule(Time(20), Event::FlowStart { flow: 0 });
        assert_eq!(q.pop().unwrap().0, Time(10));
        assert_eq!(q.pop().unwrap().0, Time(20));
        assert_eq!(q.pop().unwrap().0, Time(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(5), Event::FlowStart { flow: 1 });
        q.schedule(Time(5), Event::FlowStart { flow: 2 });
        q.schedule(Time(5), Event::FlowStart { flow: 3 });
        let flows: Vec<usize> = (0..3)
            .map(|_| match q.pop().unwrap().1 {
                Event::FlowStart { flow } => flow,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(flows, vec![1, 2, 3]);
    }

    #[test]
    fn len_tracks_pending() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Time(1), Event::Sample);
        q.schedule(Time(2), Event::Sample);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), Event::Sample);
        q.schedule(Time(5), Event::Sample);
        assert_eq!(q.pop().unwrap().0, Time(5));
        q.schedule(Time(7), Event::Sample);
        q.schedule(Time(3), Event::Sample); // in the past relative to 5: still fine
        assert_eq!(q.pop().unwrap().0, Time(3));
        assert_eq!(q.pop().unwrap().0, Time(7));
        assert_eq!(q.pop().unwrap().0, Time(10));
    }
}
