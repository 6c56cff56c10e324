//! Bounded event trace ring, in the spirit of the paper's receiver-side
//! packet capture (Fig. 12 uses tcpdump + netstat to show TCP sequence
//! progression across a flow migration).
//!
//! Components push [`TraceRecord`]s; the harness drains them after a run.
//! The ring is bounded so a long experiment cannot exhaust memory, and
//! tracing is off by default (zero cost on the packet path beyond a branch,
//! and no memory: the ring reserves nothing until its first enabled push,
//! then grows by doubling up to its capacity).
//!
//! Component names are interned ([`Istr`]): the old `who: String` field
//! cloned an allocation per pushed record, which at packet rate dominated
//! the cost of enabled tracing. Now the first push of a given name allocates
//! once and every later push is a ref-count bump. [`Istr`] derefs to `str`,
//! so consumers (`starts_with`, `as_bytes`, equality against literals) are
//! unchanged.

use std::collections::VecDeque;

use fastrak_telemetry::intern::Interner;
pub use fastrak_telemetry::intern::Istr;

use crate::time::SimTime;

/// One traced occurrence (packet seen, rule installed, decision made, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// When it happened.
    pub at: SimTime,
    /// Component that recorded it (interned, e.g. "tor0", "vm2/tcp").
    pub who: Istr,
    /// Event kind tag, e.g. "tx", "rx", "offload", "demote".
    pub kind: &'static str,
    /// Up to three numeric attributes (seq number, bytes, flow hash, ...).
    pub vals: [u64; 3],
}

/// A bounded ring of trace records.
#[derive(Debug, Clone)]
pub struct TraceRing {
    records: VecDeque<TraceRecord>,
    interner: Interner,
    capacity: usize,
    enabled: bool,
    dropped: u64,
}

impl TraceRing {
    /// Create a disabled ring holding at most `capacity` records. It owns
    /// no heap until a record is pushed.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        TraceRing {
            records: VecDeque::new(),
            interner: Interner::default(),
            capacity,
            enabled: false,
            dropped: 0,
        }
    }

    /// Turn tracing on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is tracing currently enabled?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event (drops the oldest record when full). `who` is
    /// interned: pass `&str` — repeated names cost no allocation.
    pub fn push(&mut self, at: SimTime, who: impl AsRef<str>, kind: &'static str, vals: [u64; 3]) {
        if !self.enabled {
            return;
        }
        let len = self.records.len();
        if len == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        } else if len == self.records.capacity() {
            // Double, but never past the capacity.
            self.records
                .reserve_exact(len.max(64).min(self.capacity - len));
        }
        self.records.push_back(TraceRecord {
            at,
            who: self.interner.intern(who.as_ref()),
            kind,
            vals,
        });
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// How many records were evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of held records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drain all records, oldest first (the interner is retained, so a
    /// later push of the same component stays allocation-free).
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        self.records.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ring_records_nothing() {
        let mut r = TraceRing::new(8);
        r.push(SimTime::ZERO, "x", "tx", [0; 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn a_ring_owns_memory_only_once_it_records() {
        let mut r = TraceRing::new(4096);
        r.push(SimTime::ZERO, "x", "tx", [0; 3]);
        assert_eq!(r.records.capacity(), 0, "disabled: nothing reserved");
        r.set_enabled(true);
        r.push(SimTime::ZERO, "x", "tx", [0; 3]);
        assert!(r.records.capacity() > 0);
        // Growth stops at the capacity, and eviction is as before.
        let mut r = TraceRing::new(100);
        r.set_enabled(true);
        for i in 0..250u64 {
            r.push(SimTime::ZERO, "a", "tx", [i, 0, 0]);
            assert!(r.records.capacity() <= 100);
        }
        assert_eq!(r.len(), 100);
        assert_eq!(r.dropped(), 150);
        let v: Vec<_> = r.records().map(|rec| rec.vals[0]).collect();
        assert_eq!(v, (150..250).collect::<Vec<_>>());
    }

    #[test]
    fn records_in_order() {
        let mut r = TraceRing::new(8);
        r.set_enabled(true);
        r.push(SimTime::from_micros(1), "a", "tx", [1, 0, 0]);
        r.push(SimTime::from_micros(2), "a", "rx", [2, 0, 0]);
        let v: Vec<_> = r.records().map(|rec| rec.vals[0]).collect();
        assert_eq!(v, vec![1, 2]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut r = TraceRing::new(2);
        r.set_enabled(true);
        for i in 0..5u64 {
            r.push(SimTime::ZERO, "a", "tx", [i, 0, 0]);
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let v: Vec<_> = r.records().map(|rec| rec.vals[0]).collect();
        assert_eq!(v, vec![3, 4]);
    }

    #[test]
    fn drain_empties() {
        let mut r = TraceRing::new(4);
        r.set_enabled(true);
        r.push(SimTime::ZERO, "a", "tx", [0; 3]);
        let drained = r.drain();
        assert_eq!(drained.len(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn who_is_interned_not_cloned() {
        let mut r = TraceRing::new(8);
        r.set_enabled(true);
        r.push(SimTime::ZERO, "s1/vm0", "tx", [0; 3]);
        r.push(SimTime::ZERO, String::from("s1/vm0"), "rx", [0; 3]);
        let recs: Vec<_> = r.records().collect();
        // Same interned string: both records share one allocation, and the
        // str-like API (starts_with / equality) still works.
        assert_eq!(recs[0].who, recs[1].who);
        assert!(recs[0].who.starts_with("s1"));
        assert_eq!(recs[1].who, "s1/vm0");
    }
}
