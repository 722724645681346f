//! Deterministic event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled for execution at a particular simulated time.
///
/// Events that share a timestamp are delivered in the order they were
/// scheduled (FIFO), which makes simulations deterministic regardless of the
/// heap's internal layout.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotonic sequence number used for FIFO tie-breaking.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

// Reverse ordering: BinaryHeap is a max-heap, we need earliest-first.
impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of future events ordered by time, then insertion order.
///
/// # Examples
///
/// ```
/// use keddah_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-second");
///
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "early-second");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.ticket();
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Draws the sequence number the next push would have taken. An
    /// event held outside the queue for time `at` then orders as `(at,
    /// ticket)`: after every same-time event pushed before the ticket,
    /// and before every one pushed after it (see [`peek_key`]).
    ///
    /// [`peek_key`]: Self::peek_key
    pub fn ticket(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules every event in `batch` in one O(pending + batch)
    /// heapify instead of per-event sift-ups — the way to seed a
    /// simulation with hundreds of thousands of initial arrivals.
    ///
    /// Sequence numbers follow the batch's iteration order, so delivery
    /// order (time, then FIFO) is exactly what the equivalent sequence
    /// of [`push`](Self::push) calls would produce.
    pub fn push_batch<I: IntoIterator<Item = (SimTime, E)>>(&mut self, batch: I) {
        let mut events = std::mem::take(&mut self.heap).into_vec();
        for (at, event) in batch {
            let seq = self.ticket();
            events.push(ScheduledEvent { at, seq, event });
        }
        self.heap = BinaryHeap::from(events);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    /// Returns the next event to be delivered and its time, without
    /// removing it: the earliest, and of those the first scheduled.
    #[must_use]
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|e| (e.at, &e.event))
    }

    /// Returns the next event's delivery key, `(time, sequence number)`,
    /// without removing it. An event held under a [`ticket`] is due
    /// before the queue's head when its `(time, ticket)` sorts first.
    ///
    /// [`ticket`]: Self::ticket
    #[must_use]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.at, e.seq))
    }

    /// Returns the time of the earliest pending event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|(t, _)| t)
    }

    /// Returns the number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (at, ev) in iter {
            self.push(at, ev);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 'c');
        q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(7), ());
        q.push(SimTime::from_secs(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
    }

    #[test]
    fn peek_returns_the_next_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek().is_none());
        let t = SimTime::from_secs(3);
        q.push(t, 'a');
        q.push(t, 'b');
        q.push(SimTime::from_secs(5), 'c');
        // Two events at one time: the first pushed is next.
        assert_eq!(q.peek(), Some((t, &'a')));
        assert_eq!(q.pop().map(|e| e.event), Some('a'));
        assert_eq!(q.peek(), Some((t, &'b')));
        // After a batch, peek follows delivery order: time, then FIFO.
        q.push_batch([
            (SimTime::from_secs(5), 'd'),
            (SimTime::from_secs(1), 'e'),
            (t, 'f'),
        ]);
        let mut order = Vec::new();
        while let Some((at, &ev)) = q.peek() {
            let popped = q.pop().expect("peeked an event");
            assert_eq!((popped.at, popped.event), (at, ev));
            order.push(ev);
        }
        assert_eq!(order, ['e', 'b', 'f', 'c', 'd']);
    }

    #[test]
    fn a_ticket_orders_between_earlier_and_later_pushes() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 'a');
        let ticket = q.ticket();
        q.push(t, 'b');
        q.push(SimTime::ZERO, 'c');
        // Held at (t, ticket): after the earlier 'c' and the same-time
        // 'a' pushed before the ticket, before the 'b' pushed after it.
        let mut ahead = Vec::new();
        while q.peek_key().is_some_and(|head| head < (t, ticket)) {
            ahead.push(q.pop().expect("peeked an event").event);
        }
        assert_eq!(ahead, ['c', 'a']);
        assert!(q.peek_key().is_some_and(|head| head > (t, ticket)));
        assert_eq!(q.pop().map(|e| e.event), Some('b'));
    }

    #[test]
    fn push_batch_matches_sequential_pushes() {
        // Interleave pushes and batches; pop order must equal the queue
        // built with pushes alone (FIFO ties included).
        let times = [5u64, 1, 3, 1, 2, 5, 0, 3];
        let mut batched = EventQueue::new();
        let mut plain = EventQueue::new();
        for (i, &t) in times.iter().take(3).enumerate() {
            batched.push(SimTime::from_secs(t), i);
            plain.push(SimTime::from_secs(t), i);
        }
        batched.push_batch(
            times
                .iter()
                .enumerate()
                .skip(3)
                .map(|(i, &t)| (SimTime::from_secs(t), i)),
        );
        for (i, &t) in times.iter().enumerate().skip(3) {
            plain.push(SimTime::from_secs(t), i);
        }
        let pop_all = |mut q: EventQueue<usize>| -> Vec<(SimTime, u64, usize)> {
            std::iter::from_fn(|| q.pop().map(|e| (e.at, e.seq, e.event))).collect()
        };
        assert_eq!(pop_all(batched), pop_all(plain));
    }

    #[test]
    fn len_and_clear() {
        let mut q: EventQueue<u8> = (0..5).map(|i| (SimTime::from_secs(i), i as u8)).collect();
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }
}
