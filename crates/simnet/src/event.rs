//! The time-ordered event queue driving the simulation.

use crate::time::SimTime;

/// A min-heap of `(time, event)` pairs with FIFO tie-breaking.
///
/// Events scheduled for the same instant pop in insertion order, which
/// keeps simulations deterministic regardless of heap internals.
///
/// Each entry's order is one `u128` key, `(time << 64) | seq`, where
/// `seq` counts pushes. Comparing two keys compares the time words first
/// and the sequence numbers on a tie, for any pair of `u64` values, so
/// the key order is exactly `(time, seq)` order. The keys live in one
/// array and the events in a parallel one, moved alongside; the queue
/// asks `E: Copy`, so moving an event is a plain load and store. `pop`
/// walks the hole left by the minimum down to the bottom, taking the
/// smaller child each level without a branch, then sifts the last entry
/// up from there.
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
    keys: Vec<u128>,
    events: Vec<E>,
    seq: u64,
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { keys: Vec::new(), events: Vec::new(), seq: 0 }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let key = u128::from(time.as_micros()) << 64 | u128::from(self.seq);
        self.seq += 1;
        self.keys.push(key);
        self.events.push(event);
        self.sift_up(self.keys.len() - 1, key, event);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (&top_key, &top_event) = (self.keys.first()?, self.events.first()?);
        let (last_key, last_event) = (self.keys.pop()?, self.events.pop()?);
        let n = self.keys.len();
        if n > 0 {
            let (keys, events) = (&mut self.keys[..], &mut self.events[..n]);
            let mut hole = 0;
            let mut child = 1;
            while child + 1 < n {
                child += usize::from(keys[child + 1] < keys[child]);
                keys[hole] = keys[child];
                events[hole] = events[child];
                hole = child;
                child = 2 * hole + 1;
            }
            if child < n {
                keys[hole] = keys[child];
                events[hole] = events[child];
                hole = child;
            }
            self.sift_up(hole, last_key, last_event);
        }
        Some((SimTime::from_micros((top_key >> 64) as u64), top_event))
    }

    /// Fills the hole at `hole` with `(key, event)`, moving it up past
    /// every parent with a larger key.
    fn sift_up(&mut self, mut hole: usize, key: u128, event: E) {
        let (keys, events) = (&mut self.keys[..], &mut self.events[..]);
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if keys[parent] <= key {
                break;
            }
            keys[hole] = keys[parent];
            events[hole] = events[parent];
            hole = parent;
        }
        keys[hole] = key;
        events[hole] = event;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl<E: Copy> Default for EventQueue<E> {
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

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Random interleavings of pushes and pops, with many equal times
        /// drawn from {0, 1, u64::MAX − 1, u64::MAX}, pop exactly what a
        /// reference sorted by `(time, insertion index)` pops.
        #[test]
        fn pops_match_a_sorted_reference(
            ops in proptest::collection::vec((0u32..3, 0usize..4, 0u64..40), 0..300),
        ) {
            const EDGES: [u64; 4] = [0, 1, u64::MAX - 1, u64::MAX];
            let mut q = EventQueue::new();
            let mut pending: Vec<(u64, usize)> = Vec::new();
            for (i, &(op, edge, small)) in ops.iter().enumerate() {
                if op == 0 {
                    let expected = (0..pending.len())
                        .min_by_key(|&at| pending[at])
                        .map(|at| pending.remove(at));
                    let got = q.pop().map(|(t, e)| (t.as_micros(), e));
                    proptest::prop_assert_eq!(got, expected);
                } else {
                    let time = if op == 1 { EDGES[edge] } else { small % 4 };
                    q.push(SimTime::from_micros(time), i);
                    pending.push((time, i));
                }
                proptest::prop_assert_eq!(q.len(), pending.len());
                proptest::prop_assert_eq!(q.is_empty(), pending.is_empty());
            }
            pending.sort_unstable();
            let drained: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_micros(), e))).collect();
            proptest::prop_assert_eq!(drained, pending);
        }
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
