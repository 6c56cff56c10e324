//! Flight recorder and decision audit log.
//!
//! The flight recorder keeps a small severity-tagged ring per component —
//! cheap enough to leave on during faulty runs — which the controller dumps
//! when something anomalous happens (an install transaction is abandoned, a
//! ToR enters failure cooldown, a reconcile sweep repairs drift). The audit
//! log records every offload/demote decision with the evidence the paper's
//! §4 decision engine used: the score, the FPS rate split, and fast-path
//! memory occupancy at decision time.
//!
//! Both are disabled by default behind a plain bool; messages are interned
//! so an enabled recorder does not allocate per record after first sight of
//! each message string.

use std::collections::VecDeque;

use crate::intern::{Interner, Istr};

/// How alarming a flight-recorder entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine lifecycle (epoch rolled, decision made).
    Info,
    /// Degraded but handled (retry, drift repaired).
    Warn,
    /// Gave up or entered a protective mode (abandonment, cooldown).
    Error,
}

/// One flight-recorder entry.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// When, in sim nanoseconds.
    pub at_ns: u64,
    /// Severity tag.
    pub severity: Severity,
    /// Interned message (stable per call site).
    pub msg: Istr,
    /// Up to three numeric attributes (xid, attempt, drift...).
    pub vals: [u64; 3],
}

/// Per-component bounded rings of [`FlightRecord`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    enabled: bool,
    ring_capacity: usize,
    comps: Interner,
    msgs: Interner,
    rings: Vec<VecDeque<FlightRecord>>,
    dropped: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder {
            enabled: false,
            ring_capacity: 256,
            comps: Interner::default(),
            msgs: Interner::default(),
            rings: Vec::new(),
            dropped: 0,
        }
    }
}

impl FlightRecorder {
    /// Turn recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is recording enabled?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn comp_idx(&mut self, comp: &str) -> usize {
        let id = self.comps.intern_id(comp) as usize;
        while self.rings.len() <= id {
            self.rings
                .push(VecDeque::with_capacity(self.ring_capacity.min(64)));
        }
        id
    }

    /// Record an entry into `comp`'s ring (evicting the oldest when full).
    pub fn record(
        &mut self,
        now_ns: u64,
        comp: &str,
        severity: Severity,
        msg: &str,
        vals: [u64; 3],
    ) {
        if !self.enabled {
            return;
        }
        let idx = self.comp_idx(comp);
        let msg = self.msgs.intern(msg);
        let ring = &mut self.rings[idx];
        if ring.len() == self.ring_capacity {
            ring.pop_front();
            self.dropped += 1;
        }
        ring.push_back(FlightRecord {
            at_ns: now_ns,
            severity,
            msg,
            vals,
        });
    }

    /// Dump one component's ring, oldest first (empty if unknown).
    pub fn dump(&self, comp: &str) -> Vec<FlightRecord> {
        self.comps
            .get(comp)
            .map(|i| self.rings[i as usize].iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Every component with at least one entry, with its ring.
    pub fn all(&self) -> impl Iterator<Item = (&str, impl Iterator<Item = &FlightRecord>)> {
        self.rings
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(i, r)| (self.comps.resolve(i as u32).as_str(), r.iter()))
    }

    /// Entries evicted due to ring capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// What kind of decision the controller took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Promote an aggregate to the hardware fast path.
    Offload,
    /// Demote an aggregate back to software.
    Demote,
}

/// One audited controller decision.
#[derive(Debug, Clone)]
pub struct DecisionRecord {
    /// When, in sim nanoseconds.
    pub at_ns: u64,
    /// Offload or demote.
    pub kind: DecisionKind,
    /// The aggregate decided on, e.g. "t7/10.0.0.3".
    pub subject: Istr,
    /// Decision-engine score at decision time.
    pub score: f64,
    /// FPS rate split (software bps, hardware bps) at decision time.
    pub fps_split: (u64, u64),
    /// Fast-path entries in use at decision time.
    pub entries_used: u64,
    /// Fast-path entry budget.
    pub capacity: u64,
}

/// Append-only log of every offload/demote decision.
#[derive(Debug, Clone)]
pub struct AuditLog {
    enabled: bool,
    capacity: usize,
    interner: Interner,
    records: Vec<DecisionRecord>,
    dropped: u64,
}

impl Default for AuditLog {
    fn default() -> Self {
        AuditLog {
            enabled: false,
            capacity: 1 << 16,
            interner: Interner::default(),
            records: Vec::new(),
            dropped: 0,
        }
    }
}

impl AuditLog {
    /// Turn auditing on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is auditing enabled?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one decision.
    #[allow(clippy::too_many_arguments)]
    pub fn decision(
        &mut self,
        now_ns: u64,
        kind: DecisionKind,
        subject: &str,
        score: f64,
        fps_split: (u64, u64),
        entries_used: u64,
        capacity: u64,
    ) {
        if !self.enabled {
            return;
        }
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let subject = self.interner.intern(subject);
        self.records.push(DecisionRecord {
            at_ns: now_ns,
            kind,
            subject,
            score,
            fps_split,
            entries_used,
            capacity,
        });
    }

    /// All decisions, in record order.
    pub fn records(&self) -> &[DecisionRecord] {
        &self.records
    }

    /// Decisions rejected because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_silent() {
        let mut fr = FlightRecorder::default();
        fr.record(0, "tor_ctrl", Severity::Error, "abandoned", [1, 2, 3]);
        assert!(fr.dump("tor_ctrl").is_empty());
        let mut al = AuditLog::default();
        al.decision(0, DecisionKind::Offload, "t1/ip", 1.0, (0, 0), 0, 10);
        assert!(al.records().is_empty());
    }

    #[test]
    fn rings_are_per_component_and_bounded() {
        let mut fr = FlightRecorder {
            ring_capacity: 2,
            ..FlightRecorder::default()
        };
        fr.set_enabled(true);
        for i in 0..5 {
            fr.record(i, "a", Severity::Warn, "m", [i, 0, 0]);
        }
        fr.record(9, "b", Severity::Info, "other", [0; 3]);
        let a = fr.dump("a");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].vals[0], 3);
        assert_eq!(a[1].vals[0], 4);
        assert_eq!(fr.dropped(), 3);
        assert_eq!(fr.dump("b").len(), 1);
        assert_eq!(fr.all().count(), 2);
    }

    #[test]
    fn audit_log_keeps_decision_evidence() {
        let mut al = AuditLog::default();
        al.set_enabled(true);
        al.decision(
            1_000,
            DecisionKind::Offload,
            "t7/10.0.0.3",
            0.9,
            (1_000, 9_000),
            3,
            2048,
        );
        al.decision(
            2_000,
            DecisionKind::Demote,
            "t7/10.0.0.3",
            0.1,
            (500, 0),
            2,
            2048,
        );
        let r = al.records();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].kind, DecisionKind::Offload);
        assert_eq!(r[0].fps_split, (1_000, 9_000));
        assert_eq!(r[1].kind, DecisionKind::Demote);
        assert_eq!(r[1].subject, "t7/10.0.0.3");
    }
}
