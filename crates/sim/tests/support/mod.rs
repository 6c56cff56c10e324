//! The reference model the kernel's [`fastrak_sim::Calendar`] is checked
//! against: a `BinaryHeap` ordered by `(time, seq)` key, lazy cancellation
//! through a tombstone set consulted on pop, and a delivery watermark that
//! turns cancels of already-fired events into no-ops.
//!
//! O(log n) schedule/pop and O(1)-amortized (hashing) cancel: obviously
//! correct rather than fast. Its handle is the event's key.

use std::collections::BinaryHeap;

use fastrak_sim::time::SimTime;
use fastrak_sim::{FxHashSet, NodeId};

struct Scheduled<E> {
    /// `(time << 64) | seq` — one u128 comparison orders the heap.
    key: u128,
    dst: NodeId,
    ev: E,
}

impl<E> Scheduled<E> {
    fn time(&self) -> SimTime {
        SimTime((self.key >> 64) as u64)
    }

    fn seq(&self) -> u64 {
        self.key as u64
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    /// Reversed on purpose: `BinaryHeap` is a max-heap, so inverting the key
    /// comparison makes `pop()` return the earliest `(time, seq)`.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

pub struct BinaryHeapSched<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Tombstones for cancelled-but-not-yet-popped events, keyed by sequence
    /// number. Bounded by the number of pending cancellations.
    cancelled: FxHashSet<u64>,
    /// Key of the most recently popped event — the delivery watermark. Any
    /// handle at or below it has already been consumed.
    last_popped: u128,
}

impl<E> Default for BinaryHeapSched<E> {
    fn default() -> Self {
        BinaryHeapSched {
            heap: BinaryHeap::new(),
            cancelled: FxHashSet::default(),
            last_popped: 0,
        }
    }
}

impl<E> BinaryHeapSched<E> {
    pub fn schedule(&mut self, at: SimTime, seq: u64, dst: NodeId, ev: E) -> u128 {
        let key = ((at.as_nanos() as u128) << 64) | seq as u128;
        self.heap.push(Scheduled { key, dst, ev });
        key
    }

    pub fn cancel(&mut self, h: u128) {
        if h > self.last_popped {
            self.cancelled.insert(h as u64);
        }
    }

    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, NodeId, E)> {
        loop {
            let head = self.heap.peek()?;
            // The deadline check comes *before* tombstone purging: purging a
            // tombstone past the deadline would advance `last_popped` beyond
            // the caller's clock, and a later schedule under that watermark
            // would get a handle `cancel` wrongly treats as already fired.
            if head.time() > deadline {
                return None;
            }
            let item = self.heap.pop().expect("peeked head exists");
            self.last_popped = item.key;
            if !self.cancelled.is_empty() && self.cancelled.remove(&item.seq()) {
                continue;
            }
            return Some((item.time(), item.dst, item.ev));
        }
    }

    pub fn next_time(&self) -> Option<SimTime> {
        self.heap
            .iter()
            .filter(|s| !self.cancelled.contains(&s.seq()))
            .map(|s| s.key)
            .min()
            .map(|k| SimTime((k >> 64) as u64))
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn cancelled_backlog(&self) -> usize {
        self.cancelled.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut BinaryHeapSched<u64>) -> Vec<(u64, NodeId, u64)> {
        let mut out = Vec::new();
        while let Some((t, dst, ev)) = s.pop_due(SimTime::MAX) {
            out.push((t.as_nanos(), dst, ev));
        }
        out
    }

    #[test]
    fn oracle_delivers_in_time_then_seq_order() {
        let mut s = BinaryHeapSched::default();
        let times = [5_000u64, 3, 3, 70_000_000, 64, 5_000, 0, 1_000_000_000];
        for (seq, &t) in times.iter().enumerate() {
            s.schedule(SimTime(t), seq as u64, seq % 3, seq as u64);
        }
        let mut want: Vec<(u64, NodeId, u64)> = times
            .iter()
            .enumerate()
            .map(|(seq, &t)| (t, seq % 3, seq as u64))
            .collect();
        want.sort_by_key(|&(t, _, ev)| (t, ev));
        assert_eq!(drain(&mut s), want);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn oracle_cancels_live_once_and_fired_never() {
        let mut s = BinaryHeapSched::default();
        let h0 = s.schedule(SimTime(10), 0, 0, 0);
        let h1 = s.schedule(SimTime(20), 1, 0, 1);
        s.schedule(SimTime(30), 2, 0, 2);
        s.cancel(h1);
        s.cancel(h1);
        assert_eq!(s.cancelled_backlog(), 1);
        assert_eq!(s.next_time(), Some(SimTime(10)));
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(10), 0, 0)));
        s.cancel(h0);
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(30), 0, 2)));
        assert!(s.pop_due(SimTime::MAX).is_none());
        assert_eq!(s.cancelled_backlog(), 0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn oracle_respects_deadlines_and_max_time_ties() {
        let mut s = BinaryHeapSched::default();
        s.schedule(SimTime(1_000), 0, 0, 0);
        s.schedule(SimTime(2_000), 1, 0, 1);
        assert!(s.pop_due(SimTime(999)).is_none());
        assert_eq!(s.pop_due(SimTime(1_000)), Some((SimTime(1_000), 0, 0)));
        assert!(s.pop_due(SimTime(1_500)).is_none());
        s.schedule(SimTime(1_500), 2, 0, 2);
        for seq in 3..6 {
            s.schedule(SimTime::MAX, seq, 0, seq);
        }
        assert_eq!(
            drain(&mut s),
            vec![
                (1_500, 0, 2),
                (2_000, 0, 1),
                (u64::MAX, 0, 3),
                (u64::MAX, 0, 4),
                (u64::MAX, 0, 5)
            ]
        );
    }
}
