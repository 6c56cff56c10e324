//! The DES kernel's event queue: a one-level calendar queue.
//!
//! [`Calendar`] (Brown, CACM 1988) files every event once, by timestamp,
//! into a ring of [`RING`] buckets [`BUCKET_NS`] wide that spans
//! [`SPAN_NS`] (≈ 1.05 ms) ahead of the bucket being delivered. The size is
//! set by the delays the kernel actually schedules ([`MEASURED_MIX`]): on
//! the `rack_soft` benchmark world (the paper's §6 rack), half of all events
//! are 0.25–4 µs out, a third 8–32 µs and a sixth 256–524 µs, so
//! nearly every schedule is one O(1) push onto a bucket list and is never
//! touched again until its bucket comes due. The ≥ 1 ms tail (RTO,
//! delayed-ACK and controller-epoch timers) waits in a min-heap and moves
//! into the ring as the window reaches it.
//!
//! Events are delivered in strictly increasing `(time, seq)` order; `seq` is
//! assigned by the kernel and is unique, so the order is total and runs
//! replay identically. `tests/sched_differential.rs` replays large mixed
//! operation streams through the calendar and a binary-heap reference model
//! and asserts identical behaviour.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

use crate::kernel::NodeId;
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// Handle to a scheduled event; used to cancel timers.
///
/// The payload is scheduler-private: the event's arena slot index and a
/// generation stamp (bumped every time the slot is reclaimed), so
/// cancelling marks the entry dead in place in O(1) and a handle whose
/// event already fired simply fails the generation check.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle(pub(crate) u128);

impl EventHandle {
    /// A handle that refers to no event: cancelling it is a no-op. Returned
    /// by the kernel's send path when fault injection drops a message
    /// instead of scheduling it.
    pub const NULL: EventHandle = EventHandle(u128::MAX);
}

/// `(time << 64) | seq` — one u128 comparison orders events totally.
#[inline]
fn event_key(time: SimTime, seq: u64) -> u128 {
    ((time.as_nanos() as u128) << 64) | seq as u128
}

#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

/// log2 of [`BUCKET_NS`].
const BUCKET_SHIFT: u32 = 8;
/// Width of one calendar bucket: 256 ns.
pub const BUCKET_NS: u64 = 1 << BUCKET_SHIFT;
/// Buckets in the ring (one occupancy bit each, 64 per bitmap word).
pub const RING: usize = 4096;
/// Time the ring spans ahead of the current bucket: 4 096 × 256 ns ≈
/// 1.05 ms. Events further out wait in the far heap.
pub const SPAN_NS: u64 = BUCKET_NS * RING as u64;
const WORDS: usize = RING / 64;

/// The schedule delays the ring is sized on, counted on the `rack_soft`
/// benchmark world (11.53 M schedules): `(from_ns, to_ns, per mille)`,
/// uniform inside each class. Every class lies inside [`SPAN_NS`]. The
/// scheduler bench and the differential test draw from it through
/// [`measured_delay`].
pub const MEASURED_MIX: [(u64, u64, u64); 7] = [
    (256, 512, 83),
    (1_000, 2_000, 332),
    (2_000, 4_000, 84),
    (8_000, 16_000, 201),
    (16_000, 32_000, 129),
    (256_000, 512_000, 157),
    (32_000, 1_000_000, 14),
];

/// Draw one delay from [`MEASURED_MIX`].
pub fn measured_delay(rng: &mut Rng) -> SimDuration {
    let mut pick = rng.below(1000);
    for (from, to, per_mille) in MEASURED_MIX {
        if pick < per_mille {
            return SimDuration(from + rng.below(to - from));
        }
        pick -= per_mille;
    }
    unreachable!("MEASURED_MIX sums to 1000 per mille")
}

/// End of an intrusive list.
const NIL: u32 = u32::MAX;

/// Absolute bucket number of an event key.
#[inline]
fn bucket(key: u128) -> u64 {
    (key >> (64 + BUCKET_SHIFT)) as u64
}

/// Arena entry. `ev` doubles as the liveness flag: `Some` = live,
/// `None` = cancelled (until reclaimed) or free.
#[derive(Clone)]
struct Entry<E> {
    /// Bumped on every reclaim; handles carry the generation they were
    /// issued with, so stale handles are no-ops.
    gen: u64,
    key: u128,
    dst: NodeId,
    /// Next entry of the same ring bucket, or of the free list.
    next: u32,
    ev: Option<E>,
}

/// One-level calendar queue with a sorted current window, a far-future
/// heap and O(1) in-place cancel.
///
/// Every stored entry lives in exactly one of three places, by its bucket
/// `b = time / BUCKET_NS` against the current bucket `cur`:
///
/// * `b ≤ cur` — the **near window**, sorted ascending by key and drained
///   from the front. It is filled by taking one ring bucket and sorting it
///   (the only sort); an entry scheduled into it while it drains is placed
///   by binary search, so an in-order append — a same-instant burst — costs
///   O(1). Entries below `cur` are legal (a schedule at a `now` behind a
///   bucket `pop_due` opened before stopping at its deadline) and simply
///   sort first.
/// * `cur < b < cur + RING` — the **ring**: bucket `b % RING`, an intrusive
///   singly-linked list threaded through the arena (push is O(1), order
///   within a bucket does not matter until it is sorted on opening).
///   Occupancy bitmaps (one bit per bucket, one summary bit per word) find
///   the next non-empty bucket.
/// * `b ≥ cur + RING` — the **far heap**, min-ordered by key. Opening a
///   bucket moves every far entry now inside the span into the ring.
///
/// Cancel clears the entry's payload in place. A dead entry in the window
/// or the ring is released when it is reached — its bucket opens (it is
/// dropped, never sorted) or it comes to the head of the window, at most
/// one span later. The far heap is not reached for up to an RTO, so it
/// counts its dead: when they outnumber its live entries, it is rebuilt
/// without them. After any cancel it holds no more dead entries than live
/// ones, at O(1) amortised per cancel.
///
/// A clone is the same calendar, slot for slot: arena indices and
/// generations are copied, so a handle issued before the clone cancels the
/// same event in either copy (and only in the copy it is cancelled in).
#[derive(Clone)]
pub struct Calendar<E> {
    arena: Vec<Entry<E>>,
    /// Head of the free list threaded through `Entry::next`.
    free: u32,
    /// Absolute number of the bucket the near window belongs to.
    cur: u64,
    /// `(key, arena index)`, ascending; `near[..near_head]` is consumed.
    near: Vec<(u128, u32)>,
    near_head: usize,
    /// Head of each ring bucket's list.
    heads: [u32; RING],
    /// Bit `p` set ⇔ ring bucket `p` is non-empty.
    occupied: [u64; WORDS],
    /// Bit `w` set ⇔ `occupied[w] != 0`.
    summary: u64,
    far: BinaryHeap<Reverse<(u128, u32)>>,
    /// Entries stored anywhere, live + dead.
    stored: usize,
    /// Cancelled entries not yet reclaimed.
    dead_pending: usize,
    /// The part of `dead_pending` that waits in the far heap.
    far_dead: usize,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Calendar {
            arena: Vec::new(),
            free: NIL,
            cur: 0,
            near: Vec::new(),
            near_head: 0,
            heads: [NIL; RING],
            occupied: [0; WORDS],
            summary: 0,
            far: BinaryHeap::new(),
            stored: 0,
            dead_pending: 0,
            far_dead: 0,
        }
    }
}

impl<E> Calendar<E> {
    /// Insert an event for delivery at `at` with kernel-assigned sequence
    /// number `seq`. Callers guarantee `at` is not below the time of any
    /// event already delivered; the kernel upholds this by construction —
    /// its clock is monotone and events are clamped to it.
    pub fn schedule(&mut self, at: SimTime, seq: u64, dst: NodeId, ev: E) -> EventHandle {
        let key = event_key(at, seq);
        let (idx, gen) = self.alloc(key, dst, ev);
        let b = bucket(key);
        if b <= self.cur {
            self.file_near(key, idx);
        } else if b - self.cur < RING as u64 {
            self.file_ring(b, idx);
        } else {
            self.far.push(Reverse((key, idx)));
        }
        EventHandle(((gen as u128) << 32) | idx as u128)
    }

    /// Cancel a previously scheduled event. Cancelling an event that
    /// already fired (or was already cancelled) is a harmless no-op. A
    /// cancel that leaves the far heap with more dead entries than live ones
    /// compacts it.
    pub fn cancel(&mut self, h: EventHandle) {
        let idx = (h.0 & 0xffff_ffff) as usize;
        let gen = (h.0 >> 32) as u64;
        let live = |e: &&mut Entry<E>| e.gen == gen && e.ev.is_some();
        let Some(e) = self.arena.get_mut(idx).filter(live) else {
            return;
        };
        e.ev = None; // dead in place; reclaimed when reached
        self.dead_pending += 1;
        if bucket(e.key) >= self.cur + RING as u64 {
            self.far_dead += 1;
            if 2 * self.far_dead > self.far.len() {
                self.compact_far();
            }
        }
    }

    /// Rebuild the far heap without its dead entries and release them: O(n),
    /// run only once the dead outnumber the live.
    fn compact_far(&mut self) {
        let mut far = mem::take(&mut self.far).into_vec();
        far.retain(|&Reverse((_, idx))| {
            let live = self.arena[idx as usize].ev.is_some();
            if !live {
                self.release(idx);
            }
            live
        });
        self.dead_pending -= self.far_dead;
        self.far_dead = 0;
        self.far = BinaryHeap::from(far);
    }

    /// Remove and return the earliest live event if its time is at or
    /// before `deadline`; otherwise return `None`. Cancelled entries met on
    /// the way are reclaimed. A bucket is opened only if it starts at or
    /// before `deadline`, so the window never moves past a time the caller
    /// has not reached.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, NodeId, E)> {
        loop {
            if let Some(&(key, idx)) = self.near.get(self.near_head) {
                let e = &mut self.arena[idx as usize];
                if e.ev.is_none() {
                    // Cancelled while waiting in the window.
                    self.near_head += 1;
                    self.dead_pending -= 1;
                    self.release(idx);
                    continue;
                }
                if key_time(key) > deadline {
                    return None;
                }
                let ev = e.ev.take().expect("liveness checked above");
                let dst = e.dst;
                self.near_head += 1;
                self.release(idx);
                return Some((key_time(key), dst, ev));
            }
            let Some(b) = self.next_bucket() else {
                // Fully drained: rewind so the next schedule starts a fresh
                // span from wherever the kernel clock is.
                debug_assert_eq!(self.stored, 0);
                self.cur = 0;
                return None;
            };
            if b << BUCKET_SHIFT > deadline.as_nanos() {
                return None;
            }
            self.open(b);
        }
    }

    /// Timestamp of the earliest live (non-cancelled) event, without
    /// mutating anything. A scan: for inspection, not the event loop.
    pub fn next_time(&self) -> Option<SimTime> {
        let live = |idx: u32| self.arena[idx as usize].ev.is_some();
        if let Some(&(key, _)) = self.near[self.near_head..].iter().find(|&&(_, i)| live(i)) {
            return Some(key_time(key));
        }
        for d in 1..RING as u64 {
            let mut idx = self.heads[((self.cur + d) as usize) % RING];
            let mut best: Option<u128> = None;
            while idx != NIL {
                let e = &self.arena[idx as usize];
                if e.ev.is_some() {
                    best = Some(best.map_or(e.key, |k| k.min(e.key)));
                }
                idx = e.next;
            }
            if let Some(key) = best {
                return Some(key_time(key));
            }
        }
        self.far
            .iter()
            .filter(|r| live(r.0 .1))
            .map(|r| r.0 .0)
            .min()
            .map(key_time)
    }

    /// Number of stored entries, *including* cancelled-but-unreclaimed ones.
    pub fn len(&self) -> usize {
        self.stored
    }

    /// True when no entries (live or dead) are stored.
    pub fn is_empty(&self) -> bool {
        self.stored == 0
    }

    /// Number of cancelled-but-not-yet-reclaimed entries. Bounded by the
    /// number of pending cancellations; regression-tested not to leak.
    pub fn cancelled_backlog(&self) -> usize {
        self.dead_pending
    }

    /// Allocate an arena entry; returns `(index, generation)`.
    fn alloc(&mut self, key: u128, dst: NodeId, ev: E) -> (u32, u64) {
        self.stored += 1;
        if self.free != NIL {
            let idx = self.free;
            let e = &mut self.arena[idx as usize];
            self.free = e.next;
            e.key = key;
            e.dst = dst;
            e.ev = Some(ev);
            (idx, e.gen)
        } else {
            let idx = self.arena.len() as u32;
            assert!(idx != NIL, "calendar arena full");
            self.arena.push(Entry {
                gen: 0,
                key,
                dst,
                next: NIL,
                ev: Some(ev),
            });
            (idx, 0)
        }
    }

    /// Reclaim an entry (after delivery or as a dead entry): bump the
    /// generation so outstanding handles go stale, and recycle the index.
    fn release(&mut self, idx: u32) {
        let e = &mut self.arena[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        e.ev = None;
        e.next = self.free;
        self.free = idx;
        self.stored -= 1;
    }

    /// Place an entry into the sorted near window.
    fn file_near(&mut self, key: u128, idx: u32) {
        if self.near_head == self.near.len() {
            self.near.clear();
            self.near_head = 0;
        }
        match self.near.last() {
            Some(&(last, _)) if last > key => {
                let at =
                    self.near_head + self.near[self.near_head..].partition_point(|&(k, _)| k < key);
                self.near.insert(at, (key, idx));
            }
            _ => self.near.push((key, idx)),
        }
    }

    /// Push an entry onto ring bucket `b` (absolute) and mark it occupied.
    fn file_ring(&mut self, b: u64, idx: u32) {
        let p = b as usize % RING;
        self.arena[idx as usize].next = mem::replace(&mut self.heads[p], idx);
        self.occupied[p / 64] |= 1 << (p % 64);
        self.summary |= 1 << (p / 64);
    }

    /// Absolute number of the earliest non-empty bucket after the window:
    /// the first occupied ring bucket, or else the far heap's head (dead
    /// heads are reclaimed on the way). `None` when nothing is stored
    /// beyond the window.
    fn next_bucket(&mut self) -> Option<u64> {
        if self.summary != 0 {
            // Ring positions ahead of `cur`, wrapping; `cur`'s own position
            // is always empty.
            let from = (self.cur as usize + 1) % RING;
            let w = from / 64;
            let here = self.occupied[w] & (!0u64 << (from % 64));
            let p = if here != 0 {
                w * 64 + here.trailing_zeros() as usize
            } else {
                let later = self.summary & (!1u64 << w);
                let w2 = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
                w2 * 64 + self.occupied[w2].trailing_zeros() as usize
            };
            return Some(self.cur + (p.wrapping_sub(self.cur as usize) % RING) as u64);
        }
        while let Some(&Reverse((key, idx))) = self.far.peek() {
            if self.arena[idx as usize].ev.is_some() {
                return Some(bucket(key));
            }
            self.far.pop();
            self.dead_pending -= 1;
            self.far_dead -= 1;
            self.release(idx);
        }
        None
    }

    /// Make `b` the current bucket: move far entries that are now inside
    /// the span into the ring (or the window), then take `b`'s list, drop
    /// its dead entries and sort the rest into the window.
    fn open(&mut self, b: u64) {
        debug_assert!(b > self.cur && self.near_head == self.near.len());
        self.cur = b;
        self.near.clear();
        self.near_head = 0;
        while let Some(&Reverse((key, idx))) = self.far.peek() {
            let fb = bucket(key);
            if fb - b >= RING as u64 {
                break;
            }
            self.far.pop();
            if self.arena[idx as usize].ev.is_none() {
                self.dead_pending -= 1;
                self.far_dead -= 1;
                self.release(idx);
            } else if fb == b {
                self.near.push((key, idx));
            } else {
                self.file_ring(fb, idx);
            }
        }
        let p = b as usize % RING;
        let mut idx = mem::replace(&mut self.heads[p], NIL);
        if idx != NIL {
            self.occupied[p / 64] &= !(1 << (p % 64));
            if self.occupied[p / 64] == 0 {
                self.summary &= !(1 << (p / 64));
            }
        }
        while idx != NIL {
            let e = &self.arena[idx as usize];
            let next = e.next;
            if e.ev.is_some() {
                self.near.push((e.key, idx));
            } else {
                self.dead_pending -= 1;
                self.release(idx);
            }
            idx = next;
        }
        if self.near.len() > 1 {
            self.near.sort_unstable();
        }
    }

    /// Verify the bookkeeping invariants by brute force: every stored entry
    /// is referenced exactly once across the near window, the ring and the
    /// far heap, each where its bucket says it belongs; the window is
    /// sorted; the dead counts match `dead_pending` and `far_dead`; the
    /// occupancy and summary bits match the ring; and every other arena
    /// entry is on the free list. Used by the differential test; debug
    /// builds only.
    #[doc(hidden)]
    pub fn debug_audit(&self) {
        if cfg!(not(debug_assertions)) {
            return;
        }
        let mut seen = vec![false; self.arena.len()];
        let (mut refs, mut dead) = (0usize, 0usize);
        let mut visit = |idx: u32, key: u128| {
            let e = &self.arena[idx as usize];
            assert!(!seen[idx as usize], "entry {idx} referenced twice");
            assert_eq!(e.key, key, "entry {idx} filed under a stale key");
            seen[idx as usize] = true;
            refs += 1;
            dead += e.ev.is_none() as usize;
        };
        let window = &self.near[self.near_head..];
        assert!(
            window.windows(2).all(|w| w[0].0 < w[1].0),
            "near window out of order"
        );
        for &(key, idx) in window {
            assert!(
                bucket(key) <= self.cur,
                "entry {idx} ahead of the near window"
            );
            visit(idx, key);
        }
        for p in 0..RING {
            assert_eq!(
                self.occupied[p / 64] >> (p % 64) & 1 == 1,
                self.heads[p] != NIL,
                "occupancy bit out of sync at bucket {p}"
            );
            let mut idx = self.heads[p];
            while idx != NIL {
                let key = self.arena[idx as usize].key;
                let d = bucket(key).wrapping_sub(self.cur);
                assert!(
                    (1..RING as u64).contains(&d) && bucket(key) as usize % RING == p,
                    "entry {idx} in the wrong ring bucket"
                );
                visit(idx, key);
                idx = self.arena[idx as usize].next;
            }
        }
        for (w, &bits) in self.occupied.iter().enumerate() {
            assert_eq!(
                self.summary >> w & 1 == 1,
                bits != 0,
                "summary bit out of sync at word {w}"
            );
        }
        let mut far_dead = 0usize;
        for &Reverse((key, idx)) in self.far.iter() {
            assert!(
                bucket(key) >= self.cur + RING as u64,
                "entry {idx} inside the span but in the far heap"
            );
            visit(idx, key);
            far_dead += self.arena[idx as usize].ev.is_none() as usize;
        }
        assert_eq!(far_dead, self.far_dead, "far-heap dead count out of sync");
        assert_eq!(refs, self.stored, "stored-entry count out of sync");
        assert_eq!(dead, self.dead_pending, "dead-entry count out of sync");
        let mut free = 0usize;
        let mut idx = self.free;
        while idx != NIL {
            assert!(!seen[idx as usize], "entry {idx} both stored and free");
            assert!(
                self.arena[idx as usize].ev.is_none(),
                "free entry {idx} holds an event"
            );
            free += 1;
            idx = self.arena[idx as usize].next;
        }
        assert_eq!(free + self.stored, self.arena.len(), "arena entries lost");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut Calendar<u64>) -> Vec<(u64, NodeId, u64)> {
        let mut out = Vec::new();
        while let Some((t, dst, ev)) = s.pop_due(SimTime::MAX) {
            out.push((t.as_nanos(), dst, ev));
            s.debug_audit();
        }
        out
    }

    #[test]
    fn both_schedulers_deliver_in_time_then_seq_order() {
        let mut s = Calendar::default();
        // Out-of-order inserts across the window, the ring and the far heap,
        // plus ties.
        let times = [5_000u64, 3, 3, 70_000_000, 64, 5_000, 0, 1_000_000_000];
        for (seq, &t) in times.iter().enumerate() {
            s.schedule(SimTime(t), seq as u64, seq % 3, seq as u64);
        }
        s.debug_audit();
        let got = drain(&mut s);
        let mut want: Vec<(u64, NodeId, u64)> = times
            .iter()
            .enumerate()
            .map(|(seq, &t)| (t, seq % 3, seq as u64))
            .collect();
        want.sort_by_key(|&(t, _, ev)| (t, ev));
        assert_eq!(got, want);
        assert!(s.is_empty());
    }

    #[test]
    fn wheel_far_future_overflow_promotes() {
        let mut s = Calendar::default();
        let far = 1u64 << 50; // far beyond the ring span
        s.schedule(SimTime(far + 7), 0, 0, 0);
        s.schedule(SimTime(far), 1, 0, 1);
        s.schedule(SimTime(100), 2, 0, 2);
        assert_eq!(s.next_time(), Some(SimTime(100)));
        assert_eq!(
            drain(&mut s),
            vec![(100, 0, 2), (far, 0, 1), (far + 7, 0, 0)]
        );
    }

    #[test]
    fn wheel_schedule_after_horizon_crossing_orders_against_promoted() {
        let mut s = Calendar::default();
        let far = 3 * SPAN_NS + 500;
        s.schedule(SimTime(far), 0, 0, 0);
        s.schedule(SimTime(10), 1, 0, 1);
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(10), 0, 1)));
        // The clock is now 10; schedule on both sides of the far entry, one
        // of them into the far heap too — delivery order must stay by time.
        s.schedule(SimTime(far + 100), 2, 0, 2);
        s.schedule(SimTime(far - 100), 3, 0, 3);
        assert_eq!(
            drain(&mut s),
            vec![(far - 100, 0, 3), (far, 0, 0), (far + 100, 0, 2)]
        );
    }

    #[test]
    fn both_schedulers_cancel_identically() {
        let mut s = Calendar::default();
        let h0 = s.schedule(SimTime(10), 0, 0, 0);
        let h1 = s.schedule(SimTime(20), 1, 0, 1);
        let _h2 = s.schedule(SimTime(30), 2, 0, 2);
        s.cancel(h1);
        s.cancel(h1); // double-cancel is a no-op
        assert_eq!(s.cancelled_backlog(), 1);
        assert_eq!(s.next_time(), Some(SimTime(10)));
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(10), 0, 0)));
        s.cancel(h0); // already fired: no-op, no backlog growth
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(30), 0, 2)));
        assert!(s.pop_due(SimTime::MAX).is_none());
        assert_eq!(s.cancelled_backlog(), 0, "reclaim must drain tombstones");
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn cancel_in_window_ring_and_far_heap_reclaims_all() {
        let mut s = Calendar::default();
        let _first = s.schedule(SimTime(100), 0, 0, 0);
        let in_window = s.schedule(SimTime(120), 1, 0, 1);
        let keep = s.schedule(SimTime(200), 2, 0, 2);
        let in_ring = s.schedule(SimTime(50_000), 3, 0, 3);
        let in_far = s.schedule(SimTime(5 * SPAN_NS), 4, 0, 4);
        s.schedule(SimTime(6 * SPAN_NS), 5, 0, 5);
        // Opening bucket 0 puts the first three into the window.
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(100), 0, 0)));
        s.debug_audit();
        for h in [in_window, in_ring, in_far] {
            s.cancel(h);
        }
        assert_eq!(s.cancelled_backlog(), 3);
        s.debug_audit();
        assert_eq!(s.next_time(), Some(SimTime(200)));
        assert_eq!(drain(&mut s), vec![(200, 0, 2), (6 * SPAN_NS, 0, 5)]);
        assert_eq!(s.cancelled_backlog(), 0);
        assert!(s.is_empty());
        s.cancel(keep); // fired: no-op
        assert_eq!(s.cancelled_backlog(), 0);
    }

    #[test]
    fn far_heap_never_holds_more_dead_than_live_after_a_cancel() {
        // RTO-style: eight timers 200 ms out, cancelled and re-armed a
        // million times while a 1 us clock event moves the window along.
        let rto = 200_000_000;
        let mut s = Calendar::default();
        let mut rng = Rng::new(3);
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut timers: Vec<EventHandle> = (0..8)
            .map(|i| {
                seq += 1;
                s.schedule(SimTime(now + rto), seq, i, seq)
            })
            .collect();
        seq += 1;
        s.schedule(SimTime(1_000), seq, 9, seq);
        for round in 0..1_000_000u64 {
            let i = rng.below(timers.len() as u64) as usize;
            s.cancel(timers[i]);
            let live = s.len() - s.cancelled_backlog();
            assert!(s.len() <= 2 * live + 1, "round {round}: {} stored", s.len());
            seq += 1;
            timers[i] = s.schedule(SimTime(now + rto), seq, i, seq);
            if round % 4 == 0 {
                let (t, dst, _) = s.pop_due(SimTime::MAX).expect("the clock event");
                assert_eq!(dst, 9, "a timer fired although it was always re-armed");
                now = t.as_nanos();
                seq += 1;
                s.schedule(SimTime(now + 1_000), seq, 9, seq);
            }
            if round % 50_000 == 0 {
                s.debug_audit();
            }
        }
        s.debug_audit();
        assert!(s.len() <= 2 * 9 + 1);
    }

    #[test]
    fn wheel_next_time_skips_dead_head() {
        let mut s = Calendar::default();
        let h = s.schedule(SimTime(5_000), 0, 0, 0);
        s.schedule(SimTime(8_000), 1, 0, 1);
        s.cancel(h);
        assert_eq!(s.next_time(), Some(SimTime(8_000)));
    }

    #[test]
    fn wheel_handle_generations_survive_slot_reuse() {
        let mut s = Calendar::default();
        let h = s.schedule(SimTime(10), 0, 0, 0);
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(10), 0, 0)));
        // The arena slot is recycled for a new event; the stale handle must
        // not be able to cancel it.
        let _h2 = s.schedule(SimTime(20), 1, 0, 1);
        s.cancel(h);
        assert_eq!(s.cancelled_backlog(), 0);
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(20), 0, 1)));
    }

    #[test]
    fn both_schedulers_respect_deadlines() {
        let mut s = Calendar::default();
        s.schedule(SimTime(1_000), 0, 0, 0);
        s.schedule(SimTime(2_000), 1, 0, 1);
        assert!(s.pop_due(SimTime(999)).is_none());
        assert_eq!(s.pop_due(SimTime(1_000)), Some((SimTime(1_000), 0, 0)));
        assert!(s.pop_due(SimTime(1_500)).is_none());
        // pop_due beyond a deadline must not corrupt later scheduling near
        // the untaken event.
        s.schedule(SimTime(1_500), 2, 0, 2);
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(1_500), 0, 2)));
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(2_000), 0, 1)));
    }

    #[test]
    fn schedule_at_now_after_a_deadline_stop_in_an_opened_bucket() {
        let mut s = Calendar::default();
        s.schedule(SimTime(100), 0, 0, 0);
        s.schedule(SimTime(2 * BUCKET_NS + 200), 1, 0, 1);
        assert_eq!(s.pop_due(SimTime(150)), Some((SimTime(100), 0, 0)));
        // The deadline lies inside the next occupied bucket: it is opened,
        // its event is not due, and the window now sits ahead of the clock
        // the caller had (100).
        let dl = SimTime(2 * BUCKET_NS + 10);
        assert!(s.pop_due(dl).is_none());
        s.debug_audit();
        // Schedules at the old clock and at the deadline, both behind the
        // opened bucket's pending event, still deliver first and in order.
        s.schedule(SimTime(100), 2, 0, 2);
        s.schedule(dl, 3, 0, 3);
        s.debug_audit();
        assert_eq!(
            drain(&mut s),
            vec![
                (100, 0, 2),
                (dl.as_nanos(), 0, 3),
                (2 * BUCKET_NS + 200, 0, 1)
            ]
        );
    }

    #[test]
    fn wheel_zero_delay_events_join_the_draining_slot() {
        // An event scheduled at exactly the time being delivered must fire
        // in the same instant, after earlier-seq entries.
        let mut s = Calendar::default();
        s.schedule(SimTime(100), 0, 0, 0);
        s.schedule(SimTime(100), 1, 0, 1);
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(100), 0, 0)));
        s.schedule(SimTime(100), 2, 0, 2); // "zero-delay" from a handler
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(100), 0, 1)));
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(100), 0, 2)));
        assert!(s.pop_due(SimTime::MAX).is_none());
    }

    #[test]
    fn same_instant_burst_into_the_window_drains_in_seq_order() {
        // A SYN storm: one handler schedules 1 024 events at its own instant
        // while the window is draining.
        let mut s = Calendar::default();
        let t = SimTime(7 * BUCKET_NS + 3);
        s.schedule(t, 0, 0, 0);
        s.schedule(SimTime(t.as_nanos() + 40), 1, 0, 1);
        assert_eq!(s.pop_due(SimTime::MAX), Some((t, 0, 0)));
        for seq in 2..1_026 {
            s.schedule(t, seq, 0, seq);
        }
        s.debug_audit();
        let got = drain(&mut s);
        let want: Vec<_> = (2..1_026)
            .map(|seq| (t.as_nanos(), 0, seq))
            .chain([(t.as_nanos() + 40, 0, 1)])
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn events_on_a_bucket_boundary_open_their_own_bucket() {
        let mut s = Calendar::default();
        // The last nanosecond of bucket 1, the first of bucket 2, and the
        // last of the ring span against the first beyond it.
        let times = [2 * BUCKET_NS, 2 * BUCKET_NS - 1, SPAN_NS, SPAN_NS - 1];
        for (seq, &t) in times.iter().enumerate() {
            s.schedule(SimTime(t), seq as u64, 0, seq as u64);
        }
        s.debug_audit();
        assert!(s.pop_due(SimTime(2 * BUCKET_NS - 2)).is_none());
        assert_eq!(
            s.pop_due(SimTime(2 * BUCKET_NS - 1)),
            Some((SimTime(2 * BUCKET_NS - 1), 0, 1))
        );
        // The window is bucket 1 now. An event exactly at its end belongs to
        // bucket 2, behind the earlier-seq event already filed there.
        s.schedule(SimTime(2 * BUCKET_NS), 4, 0, 4);
        s.debug_audit();
        assert!(s.pop_due(SimTime(2 * BUCKET_NS - 1)).is_none());
        assert_eq!(
            drain(&mut s),
            vec![
                (2 * BUCKET_NS, 0, 0),
                (2 * BUCKET_NS, 0, 4),
                (SPAN_NS - 1, 0, 3),
                (SPAN_NS, 0, 2)
            ]
        );
    }

    #[test]
    fn both_schedulers_order_saturated_max_time_ties() {
        // Saturated timestamps: several events at exactly `SimTime::MAX`
        // (in the far heap) must still deliver in seq order.
        let mut s = Calendar::default();
        for seq in 0..4 {
            s.schedule(SimTime::MAX, seq, 0, seq);
        }
        let got = drain(&mut s);
        let want: Vec<_> = (0..4).map(|seq| (u64::MAX, 0, seq)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn wheel_rewinds_after_full_drain() {
        let mut s = Calendar::default();
        let h = s.schedule(SimTime::from_secs(60), 0, 0, 0);
        s.cancel(h);
        assert!(s.pop_due(SimTime::MAX).is_none());
        assert_eq!(s.cur, 0, "an empty calendar rewinds");
        // A fresh event earlier than the cancelled one lands in the ring of
        // the rewound window, not behind a window left at 60 s.
        s.schedule(SimTime(300), 1, 0, 1);
        assert_eq!(s.summary.count_ones(), 1);
        s.schedule(SimTime::from_secs(1), 2, 0, 2);
        s.debug_audit();
        assert_eq!(
            drain(&mut s),
            vec![(300, 0, 1), (SimTime::from_secs(1).as_nanos(), 0, 2)]
        );
    }
}
