//! Event scheduler implementations for the DES kernel.
//!
//! Two schedulers implement the [`Scheduler`] contract, both delivering
//! events in the same total order — time, then schedule sequence:
//!
//! * [`TimingWheel`] (what [`crate::kernel::Kernel`] runs on): a
//!   hierarchical timing wheel in the Varghese/Lauck style (as in Kafka,
//!   Netty, and tokio-timer). Seven levels of 64 slots cover a ~73-minute
//!   horizon at exact-nanosecond granularity; schedule and expire are O(1)
//!   amortized, and cancellation is O(1) in place via generation-stamped
//!   handles — no tombstone set on the pop path at all.
//! * [`BinaryHeapSched`]: the previous `BinaryHeap` + lazy-tombstone
//!   scheduler, retained as the reference model — the other side of
//!   `tests/sched_differential.rs` and of the `scheduler` micro-bench suite.
//!   The kernel never runs on it.
//!
//! `tests/sched_differential.rs` replays large mixed operation streams
//! through both implementations and asserts identical behavior.

use std::collections::BinaryHeap;
use std::mem;

use crate::kernel::NodeId;
use crate::time::SimTime;
use crate::FxHashSet;

/// Handle to a scheduled event; used to cancel timers.
///
/// The payload is scheduler-private. The timing wheel packs the event's
/// arena slot index and a generation stamp (bumped every time the slot is
/// reclaimed), so cancelling marks the entry dead in place in O(1) and a
/// handle whose event already fired simply fails the generation check. The
/// heap oracle packs the `(time << 64) | seq` ordering key and compares it
/// against the delivery watermark instead.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle(pub(crate) u128);

impl EventHandle {
    /// A handle that refers to no event: cancelling it is a no-op in both
    /// scheduler implementations. Returned by the kernel's send path when
    /// fault injection drops a message instead of scheduling it.
    pub const NULL: EventHandle = EventHandle(u128::MAX);
}

/// `(time << 64) | seq` — one u128 comparison orders events totally.
#[inline]
pub(crate) fn event_key(time: SimTime, seq: u64) -> u128 {
    ((time.as_nanos() as u128) << 64) | seq as u128
}

#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

/// The operations the kernel's event loop needs from a scheduler.
///
/// Both implementations deliver events in strictly increasing
/// `(time, seq)` order; `seq` is assigned by the kernel and is unique, so
/// the order is total and runs replay identically.
pub trait Scheduler<E>: Default {
    /// Insert an event for delivery at `at` with kernel-assigned sequence
    /// number `seq`. Callers guarantee `at` is not in the scheduler's past:
    /// never below the time of any event already consumed by [`Self::pop_due`]
    /// (delivered *or* reclaimed as cancelled). The kernel upholds this by
    /// construction — its clock is monotone and events are clamped to it.
    /// The heap oracle's cancel watermark and the wheel's cursor both
    /// depend on it.
    fn schedule(&mut self, at: SimTime, seq: u64, dst: NodeId, ev: E) -> EventHandle;

    /// Cancel a previously scheduled event. Cancelling an event that
    /// already fired (or was already cancelled) is a harmless no-op.
    fn cancel(&mut self, h: EventHandle);

    /// Remove and return the earliest live event if its time is at or
    /// before `deadline`; otherwise leave the queue untouched and return
    /// `None`. Cancelled entries encountered on the way are reclaimed.
    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, NodeId, E)>;

    /// Timestamp of the earliest live (non-cancelled) event, without
    /// mutating anything.
    fn next_time(&self) -> Option<SimTime>;

    /// Number of stored entries, *including* cancelled-but-unreclaimed ones.
    fn len(&self) -> usize;

    /// True when no entries (live or dead) are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cancelled-but-not-yet-reclaimed entries. Bounded by the
    /// number of pending cancellations; regression-tested not to leak.
    fn cancelled_backlog(&self) -> usize;
}

// ---------------------------------------------------------------------------
// Timing wheel
// ---------------------------------------------------------------------------

/// Slots per level (one `u64` occupancy bitmap word per level).
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
/// Wheel levels. Level `k` slots are `64^k` ns wide, so the wheel spans
/// `64^7` ns ≈ 73 minutes; events further out (by XOR distance) overflow to
/// a far-future heap and are promoted when the horizon window advances.
const LEVELS: usize = 7;
/// Bit position above which a timestamp is outside the wheel horizon.
const HORIZON_SHIFT: u32 = SLOT_BITS * LEVELS as u32; // 42

/// Arena entry. `ev` doubles as the liveness flag: `Some` = live,
/// `None` = cancelled (until reclaimed) or free.
struct Entry<E> {
    /// Bumped on every reclaim; handles carry the generation they were
    /// issued with, so stale handles are no-ops.
    gen: u64,
    key: u128,
    dst: NodeId,
    ev: Option<E>,
}

/// One wheel slot: entry indices in insertion order. `head` is the drain
/// cursor of the slot currently being delivered from (level 0 only);
/// everywhere else it is 0.
#[derive(Default)]
struct WheelSlot {
    entries: Vec<u32>,
    head: usize,
}

/// Far-future entry reference, min-ordered by key for the overflow heap.
struct OverflowRef {
    key: u128,
    idx: u32,
}

impl PartialEq for OverflowRef {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for OverflowRef {}
impl PartialOrd for OverflowRef {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OverflowRef {
    /// Reversed: `BinaryHeap` is a max-heap, so the earliest key pops first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// Hierarchical timing wheel with an overflow heap and O(1) in-place cancel.
///
/// Level assignment uses the XOR rule: an event at time `t` with the wheel
/// clock at `w` lives at the level of the highest bit of `t ^ w`. This puts
/// every event in a slot strictly ahead of the cursor at its level, and
/// guarantees that all level-`k` events expire before any level-`k+1` event,
/// so "find the next event" is a bitmap scan from the lowest occupied level.
/// Advancing the clock into a coarser slot's window *cascades* that slot:
/// its entries redistribute to finer levels (each entry moves at most
/// `LEVELS` times over its lifetime — O(1) amortized). Level-0 slots are a
/// single nanosecond wide, so entries within one slot share their timestamp
/// exactly and FIFO slot order *is* sequence order — no sorting anywhere.
pub struct TimingWheel<E> {
    /// `slots[level][slot]` — `LEVELS * SLOTS` buckets of entry indices.
    slots: Vec<WheelSlot>,
    /// Per-level occupancy bitmap (bit = slot has entries, live or dead).
    occupied: [u64; LEVELS],
    arena: Vec<Entry<E>>,
    free: Vec<u32>,
    overflow: BinaryHeap<OverflowRef>,
    /// Internal clock: every entry at time < `wheel_now` has been delivered
    /// or reclaimed. Never ahead of the kernel clock except transiently
    /// inside `pop_due` (bounded by its `deadline`).
    wheel_now: u64,
    /// Entries stored anywhere (wheel + overflow), live + dead.
    stored: usize,
    /// Cancelled entries not yet reclaimed.
    dead_pending: usize,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS).map(|_| WheelSlot::default()).collect(),
            occupied: [0; LEVELS],
            arena: Vec::new(),
            free: Vec::new(),
            overflow: BinaryHeap::new(),
            wheel_now: 0,
            stored: 0,
            dead_pending: 0,
        }
    }
}

impl<E> TimingWheel<E> {
    #[inline]
    fn slot_at(&mut self, level: usize, slot: usize) -> &mut WheelSlot {
        &mut self.slots[level * SLOTS + slot]
    }

    /// Allocate an arena entry; returns `(index, generation)`.
    fn alloc(&mut self, key: u128, dst: NodeId, ev: E) -> (u32, u64) {
        self.stored += 1;
        if let Some(idx) = self.free.pop() {
            let e = &mut self.arena[idx as usize];
            e.key = key;
            e.dst = dst;
            e.ev = Some(ev);
            (idx, e.gen)
        } else {
            let idx = self.arena.len() as u32;
            self.arena.push(Entry {
                gen: 0,
                key,
                dst,
                ev: Some(ev),
            });
            (idx, 0)
        }
    }

    /// Reclaim an entry (after delivery or dead-entry sweep): bump the
    /// generation so outstanding handles go stale, and recycle the index.
    fn release(&mut self, idx: u32) {
        let e = &mut self.arena[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        e.ev = None;
        self.free.push(idx);
        self.stored -= 1;
    }

    /// Place an arena entry into the wheel (or the overflow heap) according
    /// to the XOR distance between its time and the current wheel clock.
    fn insert(&mut self, idx: u32) {
        let e = &self.arena[idx as usize];
        let t = (e.key >> 64) as u64;
        let key = e.key;
        debug_assert!(t >= self.wheel_now, "insert into the wheel's past");
        let x = t ^ self.wheel_now;
        if x >> HORIZON_SHIFT != 0 {
            self.overflow.push(OverflowRef { key, idx });
            return;
        }
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((t >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize;
        self.slot_at(level, slot).entries.push(idx);
        self.occupied[level] |= 1 << slot;
    }

    /// Advance the wheel clock. Crossing a horizon-window boundary promotes
    /// overflow entries that are now inside the wheel's span.
    fn advance_to(&mut self, t: u64) {
        let old = self.wheel_now;
        self.wheel_now = t;
        if (old ^ t) >> HORIZON_SHIFT != 0 {
            self.promote_overflow();
        }
    }

    /// Move overflow entries that fall inside the current horizon window
    /// into the wheel. They sort first in the overflow heap, so popping
    /// while the head matches the window is exhaustive — and pops come out
    /// in `(time, seq)` key order, so same-timestamp entries join their
    /// level-0 slot in seq order, preserving the slot-FIFO invariant.
    fn promote_overflow(&mut self) {
        let w = self.wheel_now;
        while let Some(top) = self.overflow.peek() {
            let idx = top.idx;
            let top_t = (top.key >> 64) as u64;
            if self.arena[idx as usize].ev.is_none() {
                self.overflow.pop();
                self.dead_pending -= 1;
                self.release(idx);
                continue;
            }
            if (top_t ^ w) >> HORIZON_SHIFT != 0 {
                break;
            }
            self.overflow.pop();
            self.insert(idx);
        }
    }

    /// Earliest occupied `(level, slot)` at or after the cursor, if any.
    #[inline]
    fn first_occupied(&self) -> Option<(usize, usize)> {
        for (level, &bits) in self.occupied.iter().enumerate() {
            if bits != 0 {
                // Invariant: slots behind the cursor are empty, so the
                // lowest set bit is the next slot in time order.
                debug_assert_eq!(
                    bits & ((1u64
                        << ((self.wheel_now >> (SLOT_BITS as usize * level))
                            & (SLOTS as u64 - 1)))
                        - 1),
                    0,
                    "stale wheel slots behind the cursor"
                );
                return Some((level, bits.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Start time of `slot` at `level` in the window containing `wheel_now`.
    #[inline]
    fn slot_base(&self, level: usize, slot: usize) -> u64 {
        let width = SLOT_BITS as usize * (level + 1);
        (self.wheel_now & !((1u64 << width) - 1)) | ((slot as u64) << (SLOT_BITS as usize * level))
    }

    /// Verify the wheel's bookkeeping invariants by brute force: every
    /// stored entry is referenced exactly once (slot tails + overflow),
    /// the dead count matches `dead_pending`, and occupancy bitmaps match
    /// slot contents. Used by the differential test; debug builds only.
    #[doc(hidden)]
    pub fn debug_audit(&self) {
        if cfg!(not(debug_assertions)) {
            return;
        }
        let mut refs = 0usize;
        let mut dead = 0usize;
        for (i, s) in self.slots.iter().enumerate() {
            let (level, slot) = (i / SLOTS, i % SLOTS);
            let live_refs = &s.entries[s.head..];
            assert_eq!(
                self.occupied[level] >> slot & 1 == 1,
                !s.entries.is_empty(),
                "occupancy bit out of sync at level {level} slot {slot}"
            );
            refs += live_refs.len();
            dead += live_refs
                .iter()
                .filter(|&&idx| self.arena[idx as usize].ev.is_none())
                .count();
        }
        refs += self.overflow.len();
        dead += self
            .overflow
            .iter()
            .filter(|o| self.arena[o.idx as usize].ev.is_none())
            .count();
        assert_eq!(refs, self.stored, "stored-entry count out of sync");
        assert_eq!(dead, self.dead_pending, "dead-entry count out of sync");
    }
}

impl<E> Scheduler<E> for TimingWheel<E> {
    fn schedule(&mut self, at: SimTime, seq: u64, dst: NodeId, ev: E) -> EventHandle {
        let key = event_key(at, seq);
        let (idx, gen) = self.alloc(key, dst, ev);
        self.insert(idx);
        EventHandle(((gen as u128) << 32) | idx as u128)
    }

    fn cancel(&mut self, h: EventHandle) {
        let idx = (h.0 & 0xffff_ffff) as usize;
        let gen = (h.0 >> 32) as u64;
        if let Some(e) = self.arena.get_mut(idx) {
            if e.gen == gen && e.ev.is_some() {
                e.ev = None; // dead in place; reclaimed when its slot drains
                self.dead_pending += 1;
            }
        }
    }

    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, NodeId, E)> {
        let dl = deadline.as_nanos();
        loop {
            let Some((level, slot)) = self.first_occupied() else {
                // Wheel empty: the overflow heap (if any) holds the future.
                loop {
                    let Some(top) = self.overflow.peek() else {
                        if self.stored == 0 {
                            // Fully drained: rewind so the next schedule
                            // starts a fresh horizon from wherever the
                            // kernel clock is.
                            self.wheel_now = 0;
                        }
                        return None;
                    };
                    let idx = top.idx;
                    let t = (top.key >> 64) as u64;
                    if self.arena[idx as usize].ev.is_none() {
                        self.overflow.pop();
                        self.dead_pending -= 1;
                        self.release(idx);
                        continue;
                    }
                    if t > dl {
                        return None;
                    }
                    // Pull the head into the wheel *before* promoting its
                    // window peers: a same-timestamp peer has a higher seq
                    // and must land behind the head in their shared slot.
                    self.overflow.pop();
                    self.wheel_now = t;
                    self.insert(idx);
                    self.promote_overflow();
                    break;
                }
                continue;
            };
            let base = self.slot_base(level, slot);
            if base > dl {
                return None;
            }
            if level == 0 {
                // Level-0 slots are one nanosecond wide: every entry shares
                // the timestamp `base`, so insertion order is seq order.
                let bit = 1u64 << slot;
                loop {
                    let s = self.slot_at(0, slot);
                    if s.head >= s.entries.len() {
                        s.entries.clear();
                        s.head = 0;
                        self.occupied[0] &= !bit;
                        break;
                    }
                    let idx = s.entries[s.head];
                    s.head += 1;
                    if self.arena[idx as usize].ev.is_none() {
                        self.dead_pending -= 1;
                        self.release(idx);
                        continue;
                    }
                    self.advance_to(base);
                    let e = &mut self.arena[idx as usize];
                    debug_assert_eq!((e.key >> 64) as u64, base);
                    let ev = e.ev.take().expect("liveness checked above");
                    let dst = e.dst;
                    self.release(idx);
                    let s = self.slot_at(0, slot);
                    if s.head == s.entries.len() {
                        s.entries.clear();
                        s.head = 0;
                        self.occupied[0] &= !bit;
                    }
                    return Some((SimTime(base), dst, ev));
                }
            } else if self.slots[level * SLOTS + slot].entries.len() == 1 {
                // Single-entry fast path: the first occupied slot is the
                // earliest in the wheel, and overflow entries live in a
                // strictly later horizon window, so a lone live entry here
                // is the global minimum — deliver it without cascading.
                // This is the common shape for sparse simulations (one or
                // two events in flight), where a full cascade per event
                // would dominate the pop cost.
                let idx = self.slots[level * SLOTS + slot].entries[0];
                let e = &self.arena[idx as usize];
                if e.ev.is_none() {
                    self.slot_at(level, slot).entries.clear();
                    self.occupied[level] &= !(1u64 << slot);
                    self.dead_pending -= 1;
                    self.release(idx);
                    continue;
                }
                let t = (e.key >> 64) as u64;
                if t > dl {
                    return None;
                }
                self.slot_at(level, slot).entries.clear();
                self.occupied[level] &= !(1u64 << slot);
                self.advance_to(t);
                let e = &mut self.arena[idx as usize];
                let ev = e.ev.take().expect("liveness checked above");
                let dst = e.dst;
                self.release(idx);
                return Some((SimTime(t), dst, ev));
            } else {
                // Cascade: redistribute the coarse slot to finer levels.
                // Entries land strictly below `level`, so taking the Vec
                // and handing its (emptied) allocation back is safe.
                self.advance_to(base);
                let mut v = mem::take(&mut self.slot_at(level, slot).entries);
                self.occupied[level] &= !(1u64 << slot);
                for idx in v.drain(..) {
                    if self.arena[idx as usize].ev.is_none() {
                        self.dead_pending -= 1;
                        self.release(idx);
                    } else {
                        self.insert(idx);
                    }
                }
                self.slot_at(level, slot).entries = v;
            }
        }
    }

    fn next_time(&self) -> Option<SimTime> {
        for level in 0..LEVELS {
            let mut bits = self.occupied[level];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = &self.slots[level * SLOTS + slot];
                let best = s.entries[s.head..]
                    .iter()
                    .filter_map(|&idx| {
                        let e = &self.arena[idx as usize];
                        e.ev.is_some().then_some(e.key)
                    })
                    .min();
                if let Some(k) = best {
                    // Levels and (ahead-of-cursor) slots are time-ordered,
                    // so the first slot with a live entry holds the global
                    // minimum.
                    return Some(key_time(k));
                }
            }
        }
        self.overflow
            .iter()
            .filter(|o| self.arena[o.idx as usize].ev.is_some())
            .map(|o| o.key)
            .min()
            .map(key_time)
    }

    fn len(&self) -> usize {
        self.stored
    }

    fn cancelled_backlog(&self) -> usize {
        self.dead_pending
    }
}

// ---------------------------------------------------------------------------
// Binary-heap oracle
// ---------------------------------------------------------------------------

struct Scheduled<E> {
    /// `(time << 64) | seq` — one u128 comparison orders the heap.
    key: u128,
    dst: NodeId,
    ev: E,
}

impl<E> Scheduled<E> {
    #[inline]
    fn time(&self) -> SimTime {
        key_time(self.key)
    }

    #[inline]
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
    /// comparison makes `pop()` return the earliest `(time, seq)` without a
    /// `Reverse` wrapper on every element.
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// The pre-wheel scheduler: `BinaryHeap` ordered by `(time, seq)` key, lazy
/// cancellation through a tombstone set consulted on pop, and a delivery
/// watermark that turns cancels of already-fired events into no-ops.
///
/// O(log n) schedule/pop and O(1)-amortized (hashing) cancel. Kept as the
/// differential-testing oracle for [`TimingWheel`]
/// (`tests/sched_differential.rs`) and as the reference side of the
/// scheduler benches.
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

impl<E> Scheduler<E> for BinaryHeapSched<E> {
    fn schedule(&mut self, at: SimTime, seq: u64, dst: NodeId, ev: E) -> EventHandle {
        let key = event_key(at, seq);
        self.heap.push(Scheduled { key, dst, ev });
        EventHandle(key)
    }

    fn cancel(&mut self, h: EventHandle) {
        if h == EventHandle::NULL {
            return;
        }
        if h.0 > self.last_popped {
            self.cancelled.insert(h.0 as u64);
        }
    }

    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, NodeId, E)> {
        loop {
            let head = self.heap.peek()?;
            // The deadline check comes *before* tombstone purging: purging a
            // tombstone past the deadline would advance `last_popped` beyond
            // the kernel clock, and a later schedule under that watermark
            // would get a handle `cancel` wrongly treats as already fired.
            // Bounded by the deadline, every purged key stays at or below
            // any key a future schedule can produce.
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

    fn next_time(&self) -> Option<SimTime> {
        let head = self.heap.peek()?;
        if self.cancelled.is_empty() || !self.cancelled.contains(&head.seq()) {
            return Some(head.time());
        }
        // Head is tombstoned and `&self` cannot pop it: scan for the live
        // minimum. Oracle-only cost — the wheel peeks via its bitmaps, and
        // the kernel's hot loop uses `pop_due`, not peek.
        self.heap
            .iter()
            .filter(|s| !self.cancelled.contains(&s.seq()))
            .map(|s| s.key)
            .min()
            .map(key_time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn cancelled_backlog(&self) -> usize {
        self.cancelled.len()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn drain<S: Scheduler<u64>>(s: &mut S) -> Vec<(u64, NodeId, u64)> {
        let mut out = Vec::new();
        while let Some((t, dst, ev)) = s.pop_due(SimTime::MAX) {
            out.push((t.as_nanos(), dst, ev));
        }
        out
    }

    fn ordering_case<S: Scheduler<u64>>() {
        let mut s = S::default();
        // Out-of-order inserts across several wheel levels plus ties.
        let times = [5_000u64, 3, 3, 70_000_000, 64, 5_000, 0, 1_000_000_000];
        for (seq, &t) in times.iter().enumerate() {
            s.schedule(SimTime(t), seq as u64, seq % 3, seq as u64);
        }
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
    fn both_schedulers_deliver_in_time_then_seq_order() {
        ordering_case::<TimingWheel<u64>>();
        ordering_case::<BinaryHeapSched<u64>>();
    }

    #[test]
    fn wheel_far_future_overflow_promotes() {
        let mut s = TimingWheel::<u64>::default();
        let far = 1u64 << 50; // well beyond the 2^42 ns horizon
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
        let mut s = TimingWheel::<u64>::default();
        let far = (1u64 << HORIZON_SHIFT) + 500;
        s.schedule(SimTime(far), 0, 0, 0);
        s.schedule(SimTime(10), 1, 0, 1);
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(10), 0, 1)));
        // The kernel clock is now 10; schedule past the horizon boundary but
        // *after* the overflow event — delivery order must stay by time.
        s.schedule(SimTime(far + 100), 2, 0, 2);
        s.schedule(SimTime(far - 100), 3, 0, 3);
        assert_eq!(
            drain(&mut s),
            vec![(far - 100, 0, 3), (far, 0, 0), (far + 100, 0, 2)]
        );
    }

    fn cancel_case<S: Scheduler<u64>>() {
        let mut s = S::default();
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
    fn both_schedulers_cancel_identically() {
        cancel_case::<TimingWheel<u64>>();
        cancel_case::<BinaryHeapSched<u64>>();
    }

    #[test]
    fn wheel_next_time_skips_dead_head() {
        let mut s = TimingWheel::<u64>::default();
        let h = s.schedule(SimTime(5_000), 0, 0, 0);
        s.schedule(SimTime(8_000), 1, 0, 1);
        s.cancel(h);
        assert_eq!(s.next_time(), Some(SimTime(8_000)));
    }

    #[test]
    fn wheel_handle_generations_survive_slot_reuse() {
        let mut s = TimingWheel::<u64>::default();
        let h = s.schedule(SimTime(10), 0, 0, 0);
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(10), 0, 0)));
        // The arena slot is recycled for a new event; the stale handle must
        // not be able to cancel it.
        let _h2 = s.schedule(SimTime(20), 1, 0, 1);
        s.cancel(h);
        assert_eq!(s.cancelled_backlog(), 0);
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(20), 0, 1)));
    }

    fn deadline_case<S: Scheduler<u64>>() {
        let mut s = S::default();
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
    fn both_schedulers_respect_deadlines() {
        deadline_case::<TimingWheel<u64>>();
        deadline_case::<BinaryHeapSched<u64>>();
    }

    #[test]
    fn wheel_zero_delay_events_join_the_draining_slot() {
        // An event scheduled at exactly the time being delivered must fire
        // in the same instant, after earlier-seq entries.
        let mut s = TimingWheel::<u64>::default();
        s.schedule(SimTime(100), 0, 0, 0);
        s.schedule(SimTime(100), 1, 0, 1);
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(100), 0, 0)));
        s.schedule(SimTime(100), 2, 0, 2); // "zero-delay" from a handler
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(100), 0, 1)));
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime(100), 0, 2)));
        assert!(s.pop_due(SimTime::MAX).is_none());
    }

    fn max_time_ties_case<S: Scheduler<u64>>() {
        // Saturated timestamps: several events at exactly `SimTime::MAX`
        // (far outside the wheel horizon, so they ride the overflow heap)
        // must still deliver in seq order. Regression test: pulling the
        // overflow head into the wheel used to promote its same-window
        // peers first, putting later seqs ahead of it in the shared slot.
        let mut s = S::default();
        for seq in 0..4 {
            s.schedule(SimTime::MAX, seq, 0, seq);
        }
        let got = drain(&mut s);
        let want: Vec<_> = (0..4).map(|seq| (u64::MAX, 0, seq)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn both_schedulers_order_saturated_max_time_ties() {
        max_time_ties_case::<TimingWheel<u64>>();
        max_time_ties_case::<BinaryHeapSched<u64>>();
    }

    #[test]
    fn wheel_rewinds_after_full_drain() {
        let mut s = TimingWheel::<u64>::default();
        let h = s.schedule(SimTime::from_secs(60), 0, 0, 0);
        s.cancel(h);
        assert!(s.pop_due(SimTime::MAX).is_none());
        // A fresh event earlier than the cancelled one must be schedulable
        // (the internal clock rewound on empty).
        s.schedule(SimTime::from_secs(1), 1, 0, 1);
        assert_eq!(s.pop_due(SimTime::MAX), Some((SimTime::from_secs(1), 0, 1)));
        let _ = SimDuration::ZERO;
    }
}
