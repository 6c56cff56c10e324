//! Reconciliation: periodically compare the ToR's actual rule inventory
//! with the ledger, and — after a controller restart — rebuild the ledger
//! from that inventory. Both ask the ToR for the same dump; this component
//! remembers *which* dump it is waiting for, so a duplicate, a straggler
//! from a superseded sweep, or a reply addressed to a dead incarnation is
//! never acted on.

use std::collections::{BTreeSet, HashSet};

use fastrak_net::ctrl::CtrlRequest;
use fastrak_net::flow::FlowAggregate;
use fastrak_sim::FxHashSet;

use super::ledger::{RuleId, RuleLedger};
use super::{Cx, Xids};

/// What a sweep found wrong.
pub(crate) struct Sweep {
    /// Hardware rules nobody tracks (left by abandoned transactions or late
    /// retransmits): to be removed.
    pub stale: Vec<RuleId>,
    /// Offloaded aggregates whose rule vanished from hardware, sorted: to
    /// be demoted.
    pub lost: Vec<FlowAggregate>,
}

#[derive(Clone, Default)]
pub(crate) struct Reconciler {
    /// Outstanding sweep: (xid, offloaded set snapshotted at request time).
    /// The snapshot keeps installs acked while the dump was in flight from
    /// being misclassified as lost; ordered, so `lost` comes out sorted.
    sweep: Option<(u64, BTreeSet<FlowAggregate>)>,
    /// A restarted incarnation is rebuilding from the hardware dump; no
    /// decisions are made until it lands.
    recovering: bool,
    /// xid of the outstanding recovery dump.
    recovery_xid: Option<u64>,
}

impl Reconciler {
    pub(crate) fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// Is `xid` the outstanding recovery dump's?
    pub(crate) fn is_recovery_dump(&self, xid: u64) -> bool {
        self.recovery_xid == Some(xid)
    }

    /// Is `xid` the outstanding sweep's?
    pub(crate) fn awaits(&self, xid: u64) -> bool {
        self.sweep.as_ref().is_some_and(|(want, _)| *want == xid)
    }

    fn request_dump(xids: &mut Xids, cx: &mut Cx<'_>) -> u64 {
        let xid = xids.next();
        cx.query(CtrlRequest::DumpTorRules { xid });
        xid
    }

    /// The reconcile period elapsed. While recovery is outstanding (its
    /// request or reply lost to faults, or rejected by a dark ToR) re-ask
    /// for that instead of sweeping — there is no bookkeeping to reconcile
    /// yet.
    pub(crate) fn tick(
        &mut self,
        offloaded: &HashSet<FlowAggregate>,
        xids: &mut Xids,
        cx: &mut Cx<'_>,
    ) {
        if self.recovering {
            self.recovery_xid = Some(Self::request_dump(xids, cx));
        } else {
            self.start_sweep(offloaded, xids, cx);
        }
    }

    /// Start a sweep now. A still-outstanding previous one (dump or reply
    /// lost to faults, or invalidated by a reboot) is superseded: its
    /// snapshot is replaced wholesale.
    pub(crate) fn start_sweep(
        &mut self,
        offloaded: &HashSet<FlowAggregate>,
        xids: &mut Xids,
        cx: &mut Cx<'_>,
    ) {
        cx.inc(cx.c.reconcile_sweeps);
        let snapshot = offloaded.iter().copied().collect();
        self.sweep = Some((Self::request_dump(xids, cx), snapshot));
    }

    /// A new incarnation starts from nothing: forget any sweep and ask the
    /// ToR for its full rule inventory to rebuild from.
    pub(crate) fn begin_recovery(&mut self, xids: &mut Xids, cx: &mut Cx<'_>) {
        self.sweep = None;
        self.recovering = true;
        self.recovery_xid = Some(Self::request_dump(xids, cx));
    }

    /// A dump arrived. If it is the awaited recovery dump, recovery is over
    /// (the caller rebuilds the ledger from it) and this returns true.
    pub(crate) fn finish_recovery(&mut self, xid: u64) -> bool {
        let ours = self.is_recovery_dump(xid);
        if ours {
            self.recovering = false;
            self.recovery_xid = None;
        }
        ours
    }

    /// A dump arrived that is not recovery's. If it is the awaited sweep's,
    /// classify the differences; a duplicate or a delayed reply to a
    /// superseded sweep yields `None` (and keeps waiting).
    ///
    /// Only aggregates already offloaded when the dump was *requested* can
    /// be lost: anything acked while it was in flight is legitimately
    /// absent from the reply.
    pub(crate) fn classify(
        &mut self,
        xid: u64,
        rules: Vec<RuleId>,
        ledger: &RuleLedger,
    ) -> Option<Sweep> {
        if !self.awaits(xid) {
            return None;
        }
        let (_, snapshot) = self.sweep.take().expect("awaited just above");
        let stale = rules
            .iter()
            .filter(|r| !ledger.tracks(r))
            .copied()
            .collect();
        let have: FxHashSet<RuleId> = rules.into_iter().collect();
        let lost = snapshot
            .into_iter()
            .filter(|a| ledger.offloaded().contains(a))
            .filter(|a| ledger.rule_of(a).is_some_and(|r| !have.contains(r)))
            .collect();
        Some(Sweep { stale, lost })
    }

    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.sweep.is_none() && self.recovery_xid.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{agg, rule, Bench};
    use super::super::CtrlOut;
    use super::*;
    use fastrak_net::addr::TenantId;
    use fastrak_net::flow::FlowSpec;

    fn dump_xid(b: &Bench) -> u64 {
        let [CtrlOut::ToTor(_, CtrlRequest::DumpTorRules { xid })] = b.out[..] else {
            panic!("expected one rule-dump request, got {:?}", b.out)
        };
        xid
    }

    /// A ledger with `a` offloaded and `b` reserved (install in flight).
    fn ledger(b: &mut Bench) -> (RuleLedger, usize) {
        let (mut l, mut used) = (RuleLedger::default(), 0);
        l.reserve(&mut used, agg(1), rule(&agg(1)));
        l.commit(agg(1), &mut b.tel);
        l.reserve(&mut used, agg(2), rule(&agg(2)));
        (l, used)
    }

    #[test]
    fn a_sweep_finds_stale_rules_and_lost_aggregates() {
        let (mut b, mut r, mut xids) = (Bench::new(), Reconciler::default(), Xids(1));
        let (l, _) = ledger(&mut b);
        r.start_sweep(l.offloaded(), &mut xids, &mut b.cx());
        let xid = dump_xid(&b);
        let foreign = (TenantId(9), FlowSpec::ANY);
        // Hardware holds a foreign rule and b's (acked at the ToR, Ack still
        // in flight), but lost a's.
        let s = r
            .classify(xid, vec![foreign, rule(&agg(2))], &l)
            .expect("awaited");
        assert_eq!(s.stale, [foreign]);
        assert_eq!(s.lost, [agg(1)]);
        assert!(r.is_idle());
        assert_eq!(b.count("ctrl.reconcile_sweeps"), 1);
    }

    #[test]
    fn an_install_acked_while_the_dump_was_in_flight_is_not_lost() {
        let (mut b, mut r, mut xids) = (Bench::new(), Reconciler::default(), Xids(1));
        let (mut l, _) = ledger(&mut b);
        r.start_sweep(l.offloaded(), &mut xids, &mut b.cx());
        let xid = dump_xid(&b);
        l.commit(agg(2), &mut b.tel);
        let s = r.classify(xid, vec![rule(&agg(1))], &l).expect("awaited");
        assert!(s.lost.is_empty() && s.stale.is_empty());
    }

    #[test]
    fn a_reply_with_a_superseded_xid_is_dropped_and_the_wait_continues() {
        let (mut b, mut r, mut xids) = (Bench::new(), Reconciler::default(), Xids(1));
        let (l, _) = ledger(&mut b);
        r.start_sweep(l.offloaded(), &mut xids, &mut b.cx());
        let old = dump_xid(&b);
        r.start_sweep(l.offloaded(), &mut xids, &mut b.cx());
        let new = dump_xid(&b);
        assert!(r.classify(old, Vec::new(), &l).is_none());
        assert!(r.awaits(new), "the live sweep must survive the straggler");
        assert!(r.classify(new, vec![rule(&agg(1))], &l).is_some());
        assert!(r.classify(new, Vec::new(), &l).is_none(), "duplicate reply");
    }

    #[test]
    fn while_recovering_the_period_re_asks_instead_of_sweeping() {
        let (mut b, mut r, mut xids) = (Bench::new(), Reconciler::default(), Xids(1));
        let (l, _) = ledger(&mut b);
        r.begin_recovery(&mut xids, &mut b.cx());
        let first = dump_xid(&b);
        r.tick(l.offloaded(), &mut xids, &mut b.cx());
        let retry = dump_xid(&b);
        assert_eq!(b.count("ctrl.reconcile_sweeps"), 0);
        assert!(!r.finish_recovery(first), "only the latest ask is awaited");
        assert!(r.is_recovering());
        assert!(r.finish_recovery(retry));
        assert!(!r.is_recovering() && r.is_idle());
        assert!(!r.finish_recovery(retry), "a duplicate is not recovery's");
    }

    #[test]
    fn a_recovery_dump_landing_while_a_sweep_is_pending_leaves_the_sweep_awaited() {
        let (mut b, mut r, mut xids) = (Bench::new(), Reconciler::default(), Xids(1));
        let (l, _) = ledger(&mut b);
        r.begin_recovery(&mut xids, &mut b.cx());
        let recovery = dump_xid(&b);
        // A probe reply revealed a reboot meanwhile: immediate sweep.
        r.start_sweep(&HashSet::new(), &mut xids, &mut b.cx());
        let sweep = dump_xid(&b);
        assert!(r.classify(recovery, Vec::new(), &l).is_none());
        assert!(r.finish_recovery(recovery));
        assert!(r.awaits(sweep));
        // Its snapshot predates the rebuild, so nothing can be "lost".
        let s = r.classify(sweep, Vec::new(), &l).expect("awaited");
        assert!(s.lost.is_empty());
    }
}
