//! The time-ordered event queue driving the simulation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A min-heap of `(time, event)` pairs with FIFO tie-breaking.
///
/// Events scheduled for the same instant pop in insertion order, which
/// keeps simulations deterministic regardless of heap internals.
///
/// # Examples
///
/// ```
/// use aergia_simnet::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(5), 'b');
/// q.push(SimTime::from_micros(1), 'a');
/// q.push(SimTime::from_micros(5), 'c');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.heap.push(Reverse(Entry { time, seq: self.seq, event }));
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(5), "x");
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 'a');
        q.push(SimTime::from_micros(30), 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(SimTime::from_micros(20), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }
}
