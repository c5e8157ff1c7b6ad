//! The event queue against a single-heap oracle.
//!
//! The oracle below is the plain binary min-heap on `(time, insertion
//! sequence)` the packet engine used before its delay lines. Random
//! scripts of `schedule` and `pop` — constant-delay streams (more of them
//! than the queue has lines), ties, times in the past and pops
//! interleaved anywhere — must produce the identical `(time, event)`
//! sequence and the identical `len()` after every step.

use axcc_packetsim::event::MAX_LANES;
use axcc_packetsim::{Event, EventQueue, Time};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference queue: one heap, keyed by `(time, seq)`.
#[derive(Default)]
struct HeapOracle {
    heap: BinaryHeap<Reverse<(Time, u64, usize)>>,
    next_seq: u64,
}

impl HeapOracle {
    fn schedule(&mut self, at: Time, event: Event) {
        self.heap.push(Reverse((at, self.next_seq, flow_of(event))));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, Event)> {
        self.heap
            .pop()
            .map(|Reverse((at, _, flow))| (at, Event::FlowStart { flow }))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Every scheduled event carries a unique tag, so a swapped pair of
/// equal-time events is visible.
fn flow_of(event: Event) -> usize {
    match event {
        Event::FlowStart { flow } => flow,
        other => panic!("unexpected event {other:?}"),
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Schedule on constant-delay stream `i`: at `now + delays[i]`.
    Stream(usize),
    /// Schedule `delta` ns after the last popped time (small: ties).
    Ahead(u64),
    /// Schedule at an absolute time, possibly before the last pop.
    At(u64),
    /// Pop one event.
    Pop,
}

fn arb_op(streams: usize) -> impl Strategy<Value = Op> {
    // Weights 4 : 1 : 1 : 4 for stream, ahead, absolute and pop.
    (0u8..10, 0u64..400).prop_map(move |(kind, x)| match kind {
        0..=3 => Op::Stream(x as usize % streams),
        4 => Op::Ahead(x % 4),
        5 => Op::At(x),
        _ => Op::Pop,
    })
}

fn arb_script() -> impl Strategy<Value = (Vec<u64>, Vec<Op>)> {
    // Up to three times as many streams as the queue has lines; small
    // delays so streams collide on equal times.
    (1..=3 * MAX_LANES).prop_flat_map(|streams| {
        (
            proptest::collection::vec(0u64..60, streams),
            proptest::collection::vec(arb_op(streams), 0..600),
        )
    })
}

fn run_script(delays: &[u64], ops: &[Op]) -> Result<(), TestCaseError> {
    let mut queue = EventQueue::new();
    let mut oracle = HeapOracle::default();
    let mut now = 0u64;
    let mut tag = 0usize;
    for op in ops {
        let at = match *op {
            Op::Stream(i) => Some(now + delays[i]),
            Op::Ahead(delta) => Some(now + delta),
            Op::At(t) => Some(t),
            Op::Pop => None,
        };
        match at {
            Some(at) => {
                let event = Event::FlowStart { flow: tag };
                tag += 1;
                queue.schedule(Time(at), event);
                oracle.schedule(Time(at), event);
            }
            None => {
                let got = queue.pop();
                prop_assert_eq!(got, oracle.pop());
                if let Some((t, _)) = got {
                    now = now.max(t.as_nanos());
                }
            }
        }
        prop_assert_eq!(queue.len(), oracle.len());
        prop_assert_eq!(queue.is_empty(), oracle.len() == 0);
    }
    // Drain whatever is left.
    loop {
        let got = queue.pop();
        prop_assert_eq!(got, oracle.pop());
        prop_assert_eq!(queue.len(), oracle.len());
        if got.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pops_match_a_single_heap(script in arb_script()) {
        let (delays, ops) = script;
        run_script(&delays, &ops)?;
    }
}

/// A fixed script with every stream live at once, far past the lane cap,
/// plus events behind the clock: the overflow goes to the heap and still
/// pops in order.
#[test]
fn more_streams_than_lanes_keep_heap_order() {
    let streams = 3 * MAX_LANES;
    let delays: Vec<u64> = (0..streams as u64).map(|i| 7 * i % 23).collect();
    let mut ops = Vec::new();
    for round in 0..50 {
        ops.extend((0..streams).map(Op::Stream));
        ops.push(Op::At(round * 3));
        ops.extend(std::iter::repeat_n(Op::Pop, streams / 2));
    }
    run_script(&delays, &ops).unwrap();
}
