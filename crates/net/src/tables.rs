//! Match tables.
//!
//! Two table shapes recur across the whole system:
//!
//! * [`ExactMatchTable`] — an O(1) hash table over exact [`FlowKey`]s with
//!   per-entry hit counters. This is the OVS kernel datapath cache ("an O(1)
//!   lookup hash table to speed up per packet processing", §2.2).
//! * [`WildcardTable`] — a priority-ordered list of [`FlowSpec`] patterns
//!   with a **bounded capacity**, modelling switch fast-path memory (TCAM /
//!   VRF entries). The capacity bound is the paper's central constraint:
//!   "only a limited number of rules can be supported in hardware" (§1).
//!
//! Both keep per-entry packet/byte counters because the Measurement Engine
//! reads them (OpenFlow flow-stats style) to compute pps/bps.

use fastrak_sim::stats::Counter;
use fastrak_sim::FxHashMap;

use crate::flow::{FlowKey, FlowSpec};

/// An exact-match flow table with per-entry statistics.
#[derive(Debug, Clone)]
pub struct ExactMatchTable<V> {
    entries: FxHashMap<FlowKey, Entry<V>>,
}

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    stats: Counter,
}

impl<V> Default for ExactMatchTable<V> {
    fn default() -> Self {
        ExactMatchTable {
            entries: FxHashMap::default(),
        }
    }
}

impl<V> ExactMatchTable<V> {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install or replace the entry for `key`.
    pub fn insert(&mut self, key: FlowKey, value: V) {
        self.entries.insert(
            key,
            Entry {
                value,
                stats: Counter::default(),
            },
        );
    }

    /// Look up `key` *and* account a packet of `bytes` against the entry.
    pub fn lookup(&mut self, key: &FlowKey, bytes: u64) -> Option<&V> {
        let e = self.entries.get_mut(key)?;
        e.stats.add(bytes);
        Some(&e.value)
    }

    /// Iterate `(key, value, stats)` over all entries (ME stats dump).
    pub fn iter(&self) -> impl Iterator<Item = (&FlowKey, &V, Counter)> {
        self.entries.iter().map(|(k, e)| (k, &e.value, e.stats))
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Error installing into a bounded wildcard table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// The table's fast-path memory is exhausted.
    CapacityExhausted {
        /// Configured entry capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::CapacityExhausted { capacity } => {
                write!(f, "fast-path memory exhausted ({capacity} entries)")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// One installed wildcard rule.
#[derive(Debug, Clone)]
pub struct WildcardEntry<V> {
    /// Match pattern.
    pub spec: FlowSpec,
    /// Higher wins; ties break more-specific-first, then older-first.
    pub priority: u16,
    /// Attached value (action, tunnel, queue, ...).
    pub value: V,
    /// Per-rule packet/byte counters.
    pub stats: Counter,
    insert_seq: u64,
}

/// A priority-ordered wildcard match table with bounded capacity.
#[derive(Debug, Clone)]
pub struct WildcardTable<V> {
    entries: Vec<WildcardEntry<V>>,
    capacity: usize,
    next_seq: u64,
}

impl<V> WildcardTable<V> {
    /// A table bounded at `capacity` entries (the hardware fast-path size).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "wildcard table needs capacity");
        WildcardTable {
            entries: Vec::new(),
            capacity,
            next_seq: 0,
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently installed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Install a rule, failing when full.
    pub fn install(&mut self, spec: FlowSpec, priority: u16, value: V) -> Result<(), TableError> {
        if self.entries.len() >= self.capacity {
            return Err(TableError::CapacityExhausted {
                capacity: self.capacity,
            });
        }
        let entry = WildcardEntry {
            spec,
            priority,
            value,
            stats: Counter::default(),
            insert_seq: self.next_seq,
        };
        self.next_seq += 1;
        // Keep sorted: higher priority first, then more specific, then older.
        let pos = self.entries.partition_point(|e| {
            (
                std::cmp::Reverse(e.priority),
                std::cmp::Reverse(e.spec.specificity()),
                e.insert_seq,
            ) <= (
                std::cmp::Reverse(priority),
                std::cmp::Reverse(spec.specificity()),
                entry.insert_seq,
            )
        });
        self.entries.insert(pos, entry);
        Ok(())
    }

    /// Remove all rules with exactly this spec; returns how many.
    pub fn remove_spec(&mut self, spec: &FlowSpec) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.spec != *spec);
        before - self.entries.len()
    }

    /// Match `key`, accounting a packet of `bytes` on the winning rule.
    pub fn lookup(&mut self, key: &FlowKey, bytes: u64) -> Option<&V> {
        let e = self.entries.iter_mut().find(|e| e.spec.matches(key))?;
        e.stats.add(bytes);
        Some(&e.value)
    }

    /// Match without stats accounting.
    pub fn find(&self, key: &FlowKey) -> Option<&WildcardEntry<V>> {
        self.entries.iter().find(|e| e.spec.matches(key))
    }

    /// Iterate entries in match order.
    pub fn iter(&self) -> impl Iterator<Item = &WildcardEntry<V>> {
        self.entries.iter()
    }

    /// Does an entry with exactly this spec exist?
    pub fn contains_spec(&self, spec: &FlowSpec) -> bool {
        self.entries.iter().any(|e| e.spec == *spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ip, TenantId};
    use crate::flow::Proto;

    fn key(dst_port: u16) -> FlowKey {
        FlowKey {
            tenant: TenantId(1),
            src_ip: Ip::new(10, 0, 0, 1),
            dst_ip: Ip::new(10, 0, 0, 2),
            proto: Proto::Tcp,
            src_port: 50_000,
            dst_port,
        }
    }

    #[test]
    fn exact_hit_miss_accounting() {
        let mut t = ExactMatchTable::new();
        t.insert(key(80), "a");
        assert_eq!(t.lookup(&key(80), 100), Some(&"a"));
        assert_eq!(t.lookup(&key(81), 100), None);
        // Only the hit is accounted, and a miss installs nothing.
        let dump: Vec<_> = t
            .iter()
            .map(|(k, v, s)| (*k, *v, s.count, s.bytes))
            .collect();
        assert_eq!(dump, [(key(80), "a", 1, 100)]);
    }

    #[test]
    fn wildcard_priority_order() {
        let mut t = WildcardTable::new(10);
        t.install(FlowSpec::tenant(TenantId(1)), 1, "low").unwrap();
        t.install(
            FlowSpec {
                tenant: Some(TenantId(1)),
                dst_port: Some(80),
                ..FlowSpec::ANY
            },
            5,
            "high",
        )
        .unwrap();
        assert_eq!(t.lookup(&key(80), 10), Some(&"high"));
        assert_eq!(t.lookup(&key(81), 10), Some(&"low"));
    }

    #[test]
    fn wildcard_specificity_breaks_ties() {
        let mut t = WildcardTable::new(10);
        t.install(FlowSpec::tenant(TenantId(1)), 5, "wide").unwrap();
        let k = key(80);
        let narrow = FlowSpec {
            tenant: Some(k.tenant),
            src_ip: Some(k.src_ip),
            dst_ip: Some(k.dst_ip),
            proto: Some(k.proto),
            src_port: Some(k.src_port),
            dst_port: Some(k.dst_port),
        };
        t.install(narrow, 5, "narrow").unwrap();
        assert_eq!(t.lookup(&key(80), 1), Some(&"narrow"));
    }

    #[test]
    fn wildcard_fifo_among_equal_rules() {
        let mut t = WildcardTable::new(10);
        t.install(FlowSpec::tenant(TenantId(1)), 5, "first")
            .unwrap();
        t.install(FlowSpec::tenant(TenantId(1)), 5, "second")
            .unwrap();
        assert_eq!(t.lookup(&key(80), 1), Some(&"first"));
    }

    #[test]
    fn wildcard_capacity_enforced() {
        let mut t = WildcardTable::new(2);
        t.install(FlowSpec::ANY, 1, 1).unwrap();
        t.install(FlowSpec::ANY, 1, 2).unwrap();
        assert_eq!(
            t.install(FlowSpec::ANY, 1, 3),
            Err(TableError::CapacityExhausted { capacity: 2 })
        );
        assert_eq!(t.len(), t.capacity());
    }

    #[test]
    fn wildcard_remove_frees_space() {
        let mut t = WildcardTable::new(1);
        let spec = FlowSpec::tenant(TenantId(1));
        t.install(spec, 1, 1).unwrap();
        assert_eq!(t.remove_spec(&spec), 1);
        assert!(t.install(spec, 1, 2).is_ok());
        assert!(t.contains_spec(&spec));
    }

    #[test]
    fn wildcard_miss_counts() {
        let mut t: WildcardTable<u32> = WildcardTable::new(4);
        t.install(FlowSpec::tenant(TenantId(9)), 1, 0).unwrap();
        assert_eq!(t.lookup(&key(80), 1), None);
        let stats = t.iter().next().unwrap().stats;
        assert_eq!((stats.count, stats.bytes), (0, 0));
    }

    #[test]
    fn wildcard_per_rule_stats() {
        let mut t = WildcardTable::new(4);
        let spec = FlowSpec::tenant(TenantId(1));
        t.install(spec, 1, ()).unwrap();
        t.lookup(&key(80), 100);
        t.lookup(&key(81), 200);
        let e = t.iter().next().unwrap();
        assert_eq!(e.stats.count, 2);
        assert_eq!(e.stats.bytes, 300);
    }
}
