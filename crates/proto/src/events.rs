//! Deterministic discrete-event queue, private to [`crate::dalca`].
//!
//! A thin, totally-ordered priority queue: events fire in `(time, seq)`
//! order, where `seq` is the insertion sequence number — so simultaneous
//! events are processed in the order they were scheduled, independent of
//! heap internals. Determinism here is what makes the asynchronous LCA's
//! message exchange reproducible. (The packet executor runs two FIFO hop
//! steps instead; its queue-based predecessor lives on, with a copy of
//! this queue, as the oracle in `tests/heap_oracle.rs`.)

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry. Ordered by `(time, seq)` ascending.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap on (time, seq). Times are finite by the
        // push assertion.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic min-time event queue.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: f64,
}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub(crate) fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// # Panics
    /// If `time` is non-finite or earlier than the current time.
    pub(crate) fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "non-finite event time");
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Pop the next event, advancing the clock. `None` when empty.
    pub(crate) fn pop(&mut self) -> Option<(f64, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now);
        self.now = s.time;
        Some((s.time, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 3.0);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(1.0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ());
        let _ = q.pop();
        q.schedule(1.0, ()); // same time as `now` is allowed
        assert!(q.pop().is_some());
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        let _ = q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic]
    fn non_finite_time_panics() {
        EventQueue::new().schedule(f64::NAN, ());
    }

    proptest::proptest! {
        #[test]
        fn event_queue_total_order(times in proptest::collection::vec(0.0f64..100.0, 1..60)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(t, i);
            }
            let mut last_time = f64::NEG_INFINITY;
            let mut seen = Vec::new();
            while let Some((t, id)) = q.pop() {
                proptest::prop_assert!(t >= last_time);
                // Ties must come out in insertion order.
                if t == last_time {
                    proptest::prop_assert!(id > *seen.last().unwrap_or(&0) || seen.is_empty() ||
                                 times[*seen.last().unwrap()] != t);
                }
                last_time = t;
                seen.push(id);
            }
            proptest::prop_assert_eq!(seen.len(), times.len());
        }
    }
}
