//! Install transactions: a rule batch sent to the ToR and awaiting its Ack.
//!
//! A transaction keeps everything needed to retransmit — the batch is
//! resent verbatim under the same xid, and the ToR's idempotent install
//! semantics make re-delivery harmless — and ends exactly once: resolved by
//! a reply (Ack or Error), or abandoned when its retry budget is spent.
//! What ending *means* for the ledger is the orchestrator's business; this
//! component only guarantees each batch is handed back once.

use std::collections::BTreeMap;

use fastrak_net::ctrl::{CtrlRequest, OffloadDecision, TorRule};
use fastrak_sim::time::SimDuration;
use fastrak_telemetry::span::SpanId;

use super::{Cx, Timer, BACKOFF_CAP, INSTALL_TIMEOUT, MAX_INSTALL_RETRIES};

#[derive(Clone)]
pub(crate) struct InstallTxn {
    /// The synthesized rule bundle (kept for retransmission).
    rules: Vec<TorRule>,
    /// Decision broadcast deferred until the Ack lands; its `offload` list
    /// is the aggregates this batch offloads.
    pub broadcast: OffloadDecision,
    /// 0 for the initial send; incremented per retransmission.
    attempt: u32,
    /// Open `offload-xact` telemetry span (None when tracing is disabled);
    /// its length is the offload hand-shake latency.
    span: Option<SpanId>,
}

#[derive(Clone, Default)]
pub(crate) struct InstallTxns {
    /// Open transactions by xid. Ordered: `clear` disarms and closes them
    /// in xid order.
    pending: BTreeMap<u64, InstallTxn>,
}

impl InstallTxns {
    /// Open a transaction and send its first attempt.
    pub(crate) fn begin(
        &mut self,
        xid: u64,
        rules: Vec<TorRule>,
        broadcast: OffloadDecision,
        cx: &mut Cx<'_>,
    ) {
        let span = if cx.tel.spans.enabled() {
            let comp = cx.tel.spans.comp("tor-ctrl");
            cx.tel
                .spans
                .begin(cx.now.as_nanos(), comp, "offload-xact", xid)
        } else {
            None
        };
        let txn = InstallTxn {
            rules,
            broadcast,
            attempt: 0,
            span,
        };
        txn.send(xid, cx);
        self.pending.insert(xid, txn);
    }

    /// A reply (Ack or Error) names `xid`: the transaction is over. `None`
    /// for a duplicate reply, or one arriving after abandonment.
    pub(crate) fn resolve(&mut self, xid: u64, cx: &mut Cx<'_>) -> Option<InstallTxn> {
        let txn = self.pending.remove(&xid)?;
        cx.disarm(Timer::InstallTimeout {
            xid,
            attempt: txn.attempt,
        });
        txn.close_span(cx);
        Some(txn)
    }

    /// An attempt's Ack deadline passed: retransmit with backoff, or — once
    /// the retry budget is spent — hand the transaction back as abandoned.
    pub(crate) fn on_timeout(
        &mut self,
        xid: u64,
        attempt: u32,
        cx: &mut Cx<'_>,
    ) -> Option<InstallTxn> {
        let txn = self.pending.get_mut(&xid)?;
        if txn.attempt != attempt {
            return None; // stale timer from a superseded attempt
        }
        cx.inc(cx.c.install_timeouts);
        if attempt < MAX_INSTALL_RETRIES {
            txn.attempt += 1;
            cx.inc(cx.c.install_retries);
            txn.send(xid, cx);
            return None;
        }
        let txn = self.pending.remove(&xid).expect("looked up just above");
        cx.inc(cx.c.installs_abandoned);
        txn.close_span(cx);
        Some(txn)
    }

    /// Drop every transaction (controller restart: they die with the process).
    pub(crate) fn clear(&mut self, cx: &mut Cx<'_>) {
        for (xid, txn) in std::mem::take(&mut self.pending) {
            cx.disarm(Timer::InstallTimeout {
                xid,
                attempt: txn.attempt,
            });
            txn.close_span(cx);
        }
    }

    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }
}

impl InstallTxn {
    /// (Re)transmit the batch and arm this attempt's Ack timeout with
    /// bounded exponential backoff (`INSTALL_TIMEOUT * 2^attempt`, capped).
    fn send(&self, xid: u64, cx: &mut Cx<'_>) {
        cx.update(CtrlRequest::InstallTorRules {
            rules: self.rules.clone(),
            xid,
        });
        let backoff = INSTALL_TIMEOUT
            .0
            .saturating_mul(1u64 << self.attempt.min(16))
            .min(BACKOFF_CAP.0);
        cx.arm(
            SimDuration(backoff),
            Timer::InstallTimeout {
                xid,
                attempt: self.attempt,
            },
        );
    }

    fn close_span(&self, cx: &mut Cx<'_>) {
        if let Some(s) = self.span {
            cx.tel.spans.end(cx.now.as_nanos(), s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::Bench;
    use super::super::CtrlOut;
    use super::*;

    fn decision() -> OffloadDecision {
        OffloadDecision {
            interval: 1,
            offload: Vec::new(),
            demote: Vec::new(),
            hw_agg_bps: Vec::new(),
        }
    }

    fn timeout(xid: u64, attempt: u32) -> Timer {
        Timer::InstallTimeout { xid, attempt }
    }

    #[test]
    fn begin_sends_the_batch_then_arms_the_first_deadline() {
        let (mut b, mut t) = (Bench::new(), InstallTxns::default());
        t.begin(7, Vec::new(), decision(), &mut b.cx());
        let install = CtrlRequest::InstallTorRules {
            rules: Vec::new(),
            xid: 7,
        };
        assert_eq!(
            b.out,
            [
                CtrlOut::ToTor(SimDuration::from_micros(100), install),
                CtrlOut::Arm(INSTALL_TIMEOUT, timeout(7, 0)),
            ]
        );
    }

    #[test]
    fn a_duplicate_ack_resolves_nothing() {
        let (mut b, mut t) = (Bench::new(), InstallTxns::default());
        t.begin(7, Vec::new(), decision(), &mut b.cx());
        assert!(t.resolve(7, &mut b.cx()).is_some());
        assert_eq!(b.out, [CtrlOut::Disarm(timeout(7, 0))]);
        assert!(t.resolve(7, &mut b.cx()).is_none());
        assert!(b.out.is_empty(), "the copy must not disarm or broadcast");
    }

    #[test]
    fn a_superseded_attempts_timeout_is_ignored() {
        let (mut b, mut t) = (Bench::new(), InstallTxns::default());
        t.begin(7, Vec::new(), decision(), &mut b.cx());
        assert!(t.on_timeout(7, 0, &mut b.cx()).is_none());
        assert_eq!(b.out.len(), 2, "retransmit + new deadline");
        assert_eq!(
            b.out[1],
            CtrlOut::Arm(SimDuration::from_millis(20), timeout(7, 1))
        );
        // Attempt 0's timer again (it cannot fire twice, but a copy of the
        // logic that forgot the attempt check would retransmit here).
        assert!(t.on_timeout(7, 0, &mut b.cx()).is_none());
        assert!(b.out.is_empty());
        assert_eq!(b.count("ctrl.install_timeouts"), 1);
        assert_eq!(b.count("ctrl.install_retries"), 1);
    }

    #[test]
    fn backoff_doubles_to_the_cap_then_the_batch_is_abandoned_once() {
        let (mut b, mut t) = (Bench::new(), InstallTxns::default());
        t.begin(7, Vec::new(), decision(), &mut b.cx());
        let mut deadlines = Vec::new();
        for attempt in 0..MAX_INSTALL_RETRIES {
            assert!(t.on_timeout(7, attempt, &mut b.cx()).is_none());
            let CtrlOut::Arm(d, _) = b.out[1] else {
                panic!("expected a deadline, got {:?}", b.out)
            };
            deadlines.push(d.0 / 1_000_000);
        }
        assert_eq!(deadlines, [20, 40, 80, 160, 160]);
        assert!(t.on_timeout(7, MAX_INSTALL_RETRIES, &mut b.cx()).is_some());
        assert!(b.out.is_empty(), "abandoning sends nothing itself");
        assert!(t.is_idle());
        assert_eq!(b.count("ctrl.installs_abandoned"), 1);
        // An Ack straggling in after abandonment finds nothing.
        assert!(t.resolve(7, &mut b.cx()).is_none());
        assert!(t.on_timeout(7, MAX_INSTALL_RETRIES, &mut b.cx()).is_none());
        assert_eq!(b.count("ctrl.installs_abandoned"), 1);
    }

    #[test]
    fn clear_disarms_every_pending_deadline() {
        let (mut b, mut t) = (Bench::new(), InstallTxns::default());
        t.begin(7, Vec::new(), decision(), &mut b.cx());
        t.begin(8, Vec::new(), decision(), &mut b.cx());
        t.on_timeout(8, 0, &mut b.cx());
        t.clear(&mut b.cx());
        b.out.sort_by_key(|o| format!("{o:?}"));
        assert_eq!(
            b.out,
            [
                CtrlOut::Disarm(timeout(7, 0)),
                CtrlOut::Disarm(timeout(8, 1))
            ]
        );
        assert!(t.is_idle());
    }
}
