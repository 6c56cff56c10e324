//! The rule ledger: which aggregates hold a fast-path entry, and in what
//! state. One place spells out the lifecycle
//!
//! ```text
//! reserve ──Ack──▶ commit ──demote──▶ release ──grace──▶ GC at the ToR
//!    └──Error / abandoned──▶ release
//! ```
//!
//! **Invariant.** `offloaded ⊆ installed_spec`, `spec_to_agg` is the inverse
//! of `installed_spec`, and the caller's stored entry count moves by exactly
//! one per entry that enters or leaves `installed_spec` — never a blanket
//! `saturating_sub`, which masked a double-free against a concurrent
//! demote-GC. The count is kept *outside* the maps (the controller's public
//! `entries_used`) so the reconciliation sweep has something independent to
//! check them against.

use std::collections::HashSet;

use fastrak_net::addr::TenantId;
use fastrak_net::flow::{FlowAggregate, FlowSpec};
use fastrak_sim::FxHashMap;
use fastrak_telemetry::{Registry, Telemetry};

/// Identity of a ToR ACL rule (tunnel mappings are shared and refcounted
/// by the ToR itself).
pub(crate) type RuleId = (TenantId, FlowSpec);

#[derive(Clone, Default)]
pub(crate) struct RuleLedger {
    /// Aggregates whose install was acked (placers point at hardware).
    offloaded: HashSet<FlowAggregate>,
    /// Every aggregate holding an entry: offloaded, or reserved by an
    /// install still in flight.
    installed_spec: FxHashMap<FlowAggregate, RuleId>,
    spec_to_agg: FxHashMap<RuleId, FlowAggregate>,
    /// Released rules still in hardware for their grace period, by token.
    gc_queue: FxHashMap<u64, Vec<RuleId>>,
    /// Monotone across controller restarts: a GC timer armed by a dead
    /// incarnation must never name a live batch.
    next_gc: u64,
}

/// Bump a per-tenant transition counter (`ctrl.tenant.offloads` /
/// `ctrl.tenant.demotes`). Lazily registered — the registry dedups by
/// (name, labels) — and only ever called on an actual offloaded-set
/// transition, so rates derived from these counters are exact.
fn count_transition(reg: &mut Registry, name: &str, t: TenantId) {
    let label = t.0.to_string();
    let id = reg.counter(name, &[("tenant", &label)]);
    reg.inc(id);
}

impl RuleLedger {
    pub(crate) fn offloaded(&self) -> &HashSet<FlowAggregate> {
        &self.offloaded
    }

    /// Entries held (what the stored count must equal).
    pub(crate) fn installed(&self) -> usize {
        self.installed_spec.len()
    }

    pub(crate) fn rule_of(&self, agg: &FlowAggregate) -> Option<&RuleId> {
        self.installed_spec.get(agg)
    }

    /// Rule → aggregate, for folding per-rule hardware counters.
    pub(crate) fn spec_to_agg(&self) -> &FxHashMap<RuleId, FlowAggregate> {
        &self.spec_to_agg
    }

    /// Is this hardware rule accounted for — held by an aggregate, or
    /// released and still inside its grace period?
    pub(crate) fn tracks(&self, rule: &RuleId) -> bool {
        self.spec_to_agg.contains_key(rule) || self.gc_queue.values().any(|v| v.contains(rule))
    }

    /// Take an entry for `agg` before its install is sent.
    pub(crate) fn reserve(&mut self, used: &mut usize, agg: FlowAggregate, rule: RuleId) {
        // Re-offloading a rule that still awaits GC: drop the GC batch's
        // claim so the grace-period sweep can't delete a rule the hardware
        // is about to need again (the install itself is an idempotent
        // no-op at the ToR).
        for batch in self.gc_queue.values_mut() {
            batch.retain(|r| *r != rule);
        }
        if self.installed_spec.insert(agg, rule).is_none() {
            *used += 1;
        }
        self.spec_to_agg.insert(rule, agg);
    }

    /// The install was acked. Offloads commit here: failed installs never
    /// count as transitions.
    pub(crate) fn commit(&mut self, agg: FlowAggregate, tel: &mut Telemetry) {
        debug_assert!(
            self.installed_spec.contains_key(&agg),
            "commit without reserve"
        );
        if self.offloaded.insert(agg) {
            count_transition(&mut tel.registry, "ctrl.tenant.offloads", agg.tenant());
        }
    }

    /// The one way an aggregate gives its entry back, whatever state it was
    /// in (reserved or offloaded). Returns the rule it held, if any, so the
    /// caller can decide whether hardware still needs cleaning.
    pub(crate) fn release(
        &mut self,
        used: &mut usize,
        agg: &FlowAggregate,
        tel: &mut Telemetry,
    ) -> Option<RuleId> {
        if self.offloaded.remove(agg) {
            count_transition(&mut tel.registry, "ctrl.tenant.demotes", agg.tenant());
        }
        let rule = self.installed_spec.remove(agg)?;
        debug_assert!(*used > 0, "entries_used underflow");
        *used -= 1;
        self.spec_to_agg.remove(&rule);
        Some(rule)
    }

    /// Park released rules until their grace period ends.
    pub(crate) fn queue_gc(&mut self, rules: Vec<RuleId>) -> u64 {
        let token = self.next_gc;
        self.next_gc += 1;
        self.gc_queue.insert(token, rules);
        token
    }

    /// The grace period of batch `token` ended. The batch can have drained
    /// to empty if every rule was re-offloaded meanwhile.
    pub(crate) fn take_gc(&mut self, token: u64) -> Option<Vec<RuleId>> {
        self.gc_queue.remove(&token)
    }

    /// Forget everything (controller restart). Rules whose GC was pending
    /// become untracked hardware state; the reconciliation sweep removes them.
    pub(crate) fn clear(&mut self, used: &mut usize) {
        self.offloaded.clear();
        self.installed_spec.clear();
        self.spec_to_agg.clear();
        self.gc_queue.clear();
        *used = 0;
    }

    /// Rebuild from the hardware's rule inventory after a restart. Every
    /// rule whose spec inverts to a known aggregate shape
    /// ([`FlowAggregate::from_spec`]) becomes an offloaded entry again;
    /// anything else is untracked state the next sweep removes. No
    /// transition counters: these are not new offloads.
    pub(crate) fn rebuild(&mut self, used: &mut usize, rules: &[RuleId]) {
        for (tenant, spec) in rules {
            let Some(agg) = FlowAggregate::from_spec(spec).filter(|a| a.tenant() == *tenant) else {
                continue;
            };
            self.installed_spec.insert(agg, (*tenant, *spec));
            self.spec_to_agg.insert((*tenant, *spec), agg);
            self.offloaded.insert(agg);
        }
        *used = self.installed_spec.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::addr::Ip;

    const T: TenantId = TenantId(1);

    fn agg(port: u16) -> FlowAggregate {
        FlowAggregate::SrcApp {
            tenant: T,
            ip: Ip::tenant_vm(1),
            port,
        }
    }

    fn rule(a: &FlowAggregate) -> RuleId {
        (a.tenant(), a.to_spec())
    }

    fn check(l: &RuleLedger, used: usize) {
        assert_eq!(used, l.installed());
        assert_eq!(l.spec_to_agg.len(), l.installed_spec.len());
        assert!(l.offloaded.iter().all(|a| l.installed_spec.contains_key(a)));
    }

    #[test]
    fn lifecycle_keeps_the_count_exact() {
        let (mut l, mut used, mut tel) = (RuleLedger::default(), 0, Telemetry::default());
        let (a, b) = (agg(1), agg(2));
        l.reserve(&mut used, a, rule(&a));
        l.reserve(&mut used, b, rule(&b));
        check(&l, used);
        assert!(l.offloaded().is_empty(), "reserved is not offloaded");
        l.commit(a, &mut tel);
        check(&l, used);
        // b's install failed; a is demoted: both leave through `release`.
        assert_eq!(l.release(&mut used, &b, &mut tel), Some(rule(&b)));
        assert_eq!(l.release(&mut used, &a, &mut tel), Some(rule(&a)));
        check(&l, used);
        assert_eq!(used, 0);
        let reg = &tel.registry;
        assert_eq!(
            reg.counter_by_name("ctrl.tenant.offloads{tenant=1}"),
            Some(1)
        );
        assert_eq!(
            reg.counter_by_name("ctrl.tenant.demotes{tenant=1}"),
            Some(1)
        );
    }

    /// The PR 3 double-free: a demote and a late rollback both name the
    /// same aggregate. The second release must find nothing and free nothing.
    #[test]
    fn releasing_twice_frees_once() {
        let (mut l, mut used, mut tel) = (RuleLedger::default(), 0, Telemetry::default());
        let (a, b) = (agg(1), agg(2));
        l.reserve(&mut used, a, rule(&a));
        l.reserve(&mut used, b, rule(&b));
        assert!(l.release(&mut used, &a, &mut tel).is_some());
        assert!(l.release(&mut used, &a, &mut tel).is_none());
        assert_eq!(used, 1, "b still holds its entry");
        check(&l, used);
    }

    #[test]
    fn reserving_twice_takes_one_entry() {
        let (mut l, mut used) = (RuleLedger::default(), 0);
        let a = agg(1);
        l.reserve(&mut used, a, rule(&a));
        l.reserve(&mut used, a, rule(&a));
        check(&l, used);
    }

    #[test]
    fn reoffload_inside_the_grace_period_cancels_the_gc_claim() {
        let (mut l, mut used, mut tel) = (RuleLedger::default(), 0, Telemetry::default());
        let (a, b) = (agg(1), agg(2));
        for x in [a, b] {
            l.reserve(&mut used, x, rule(&x));
            l.commit(x, &mut tel);
        }
        let freed: Vec<RuleId> = [a, b]
            .iter()
            .filter_map(|x| l.release(&mut used, x, &mut tel))
            .collect();
        let token = l.queue_gc(freed);
        assert!(l.tracks(&rule(&a)), "inside its grace a rule is not stale");
        l.reserve(&mut used, a, rule(&a));
        assert_eq!(l.take_gc(token), Some(vec![rule(&b)]));
        assert_eq!(l.take_gc(token), None, "a batch is collected once");
        assert!(l.tracks(&rule(&a)) && !l.tracks(&rule(&b)));
    }

    #[test]
    fn rebuild_adopts_invertible_rules_only() {
        let (mut l, mut used) = (RuleLedger::default(), 7);
        let a = agg(1);
        let foreign = (TenantId(9), FlowSpec::ANY);
        let wrong_tenant = (TenantId(2), a.to_spec());
        l.rebuild(&mut used, &[rule(&a), foreign, wrong_tenant, rule(&a)]);
        assert_eq!(used, 1);
        assert!(l.offloaded().contains(&a));
        check(&l, used);
        l.clear(&mut used);
        assert_eq!((used, l.installed()), (0, 0));
        assert!(!l.tracks(&rule(&a)));
    }
}
