//! Decision audit log.
//!
//! The audit log records every offload/demote decision with the evidence the
//! paper's §4 decision engine used: the score, the FPS rate split, and
//! fast-path memory occupancy at decision time.
//!
//! It is disabled by default behind a plain bool; subjects are interned so an
//! enabled log does not allocate per record after first sight of each
//! subject string.

use crate::intern::{Interner, Istr};

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
}

impl Default for AuditLog {
    fn default() -> Self {
        AuditLog {
            enabled: false,
            capacity: 1 << 16,
            interner: Interner::default(),
            records: Vec::new(),
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
        if !self.enabled || self.records.len() >= self.capacity {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_silent() {
        let mut al = AuditLog::default();
        al.decision(0, DecisionKind::Offload, "t1/ip", 1.0, (0, 0), 0, 10);
        assert!(al.records().is_empty());
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
