//! The orchestrator's decision round and its one demote path. Everything
//! here reads the components' state and tells them what to do; none of it
//! knows how a transaction retries or how a sweep classifies.

use std::collections::BTreeMap;

use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::ctrl::{HwPathReport, OffloadDecision, TorRule};
use fastrak_net::flow::FlowAggregate;
use fastrak_sim::FxHashMap;
use fastrak_telemetry::recorder::DecisionKind;

use super::{Cx, Timer, TorController, BLACKHOLE_COOLDOWN, DEMOTE_GRACE};
use crate::de::Decision;
use crate::me::AggDemand;

/// Why aggregates are leaving the fast path — which decides who hears about
/// it when, and whether hardware still holds their rules.
#[derive(Clone, Copy, PartialEq)]
pub(super) enum Demote {
    /// Chosen by the decision round: the demotions ride that round's
    /// broadcast; rules are collected after the grace.
    Decided,
    /// Forced outside the round (VM migration, dead hardware path,
    /// blackhole suspicion): placers flip back now via a demote-only
    /// broadcast; rules are collected after the grace.
    Forced,
    /// The hardware already lost the rules (reconciliation): demote-only
    /// broadcast — better than silently dropping at the ToR's default-deny
    /// VRF — and nothing to collect.
    Lost,
}

/// The VM whose application endpoint the aggregate is.
fn endpoint(agg: &FlowAggregate) -> (TenantId, Ip) {
    match *agg {
        FlowAggregate::SrcApp { tenant, ip, .. } | FlowAggregate::DstApp { tenant, ip, .. } => {
            (tenant, ip)
        }
    }
}

impl TorController {
    /// The one demote path: every aggregate gives its entry back through
    /// [`super::ledger::RuleLedger::release`] and loses its hardware
    /// measurements (blackhole evidence included — it was gathered on the
    /// offload that just ended). Empty input is a no-op.
    pub(super) fn demote(&mut self, aggs: &[FlowAggregate], why: Demote, cx: &mut Cx<'_>) {
        if aggs.is_empty() {
            return;
        }
        let mut freed = Vec::new();
        for agg in aggs {
            freed.extend(self.ledger.release(&mut self.entries_used, agg, cx.tel));
            self.hw.forget(agg);
        }
        if why != Demote::Decided {
            cx.broadcast(OffloadDecision {
                interval: self.interval,
                offload: Vec::new(),
                demote: aggs.to_vec(),
                hw_agg_bps: Vec::new(),
            });
        }
        // `offloaded ⊆ installed_spec`, so a non-empty demotion always
        // frees something; the guard only keeps an empty batch off the wire.
        if why != Demote::Lost && !freed.is_empty() {
            let token = self.ledger.queue_gc(freed);
            cx.arm(DEMOTE_GRACE, Timer::Gc(token));
        }
    }

    /// Offloaded aggregates with an endpoint VM satisfying `vm`, sorted
    /// (HashSet iteration order is randomized).
    pub(super) fn offloaded_touching(
        &self,
        vm: impl Fn(&(TenantId, Ip)) -> bool,
    ) -> Vec<FlowAggregate> {
        let mut v: Vec<FlowAggregate> = self
            .ledger
            .offloaded()
            .iter()
            .copied()
            .filter(|a| vm(&endpoint(a)))
            .collect();
        v.sort();
        v
    }

    /// A local controller reported its server's SR-IOV path changed
    /// liveness. Down: force-demote every offloaded aggregate touching that
    /// server's VMs — their hardware path is dark, so software is strictly
    /// better — and bar those VMs from re-offload. Up: lift the bar; the
    /// normal hysteresis (N-of-M persistence + score band) governs
    /// re-offload, so a flapping VF cannot thrash the fast path.
    pub(super) fn on_hw_path_report(&mut self, rep: HwPathReport, cx: &mut Cx<'_>) {
        if rep.up {
            for vm in &rep.vms {
                self.hw_down_vms.remove(vm);
            }
            return;
        }
        self.hw_down_vms.extend(rep.vms);
        let affected = self.offloaded_touching(|vm| self.hw_down_vms.contains(vm));
        cx.add(cx.c.chaos_hw_path_down_demotes, affected.len() as u64);
        self.demote(&affected, Demote::Forced, cx);
    }

    /// Blackhole detection, run each closed measurement epoch when enabled:
    /// an offloaded aggregate the meter finds dark (see
    /// [`super::hw_meter::HwMeter::blackholed`]) is presumed blackholed
    /// (dead VF, wedged rule), force-demoted, and barred from re-offload
    /// for the cooldown.
    pub(super) fn check_blackholes(&mut self, cx: &mut Cx<'_>) {
        let offloaded = self.offloaded_touching(|_| true);
        let reports = &self.reports;
        // Offloaded traffic bypasses the vswitch, so the *median history*
        // in the locals' reports is what persists for a few intervals after
        // a hardware path goes dark — that persistence is the signal.
        let sw_demand_persists = |agg: &FlowAggregate| {
            reports.values().any(|rep| {
                rep.entries
                    .iter()
                    .any(|d| d.agg == *agg && (d.pps > 0.0 || d.m_pps > 0.0))
            })
        };
        let threshold = self.cfg.ctrl.blackhole_epochs;
        let victims = self
            .hw
            .blackholed(&offloaded, threshold, sw_demand_persists);
        if victims.is_empty() {
            return;
        }
        for agg in &victims {
            self.blackhole_until
                .insert(*agg, cx.now + BLACKHOLE_COOLDOWN);
        }
        cx.add(cx.c.chaos_blackhole_demotes, victims.len() as u64);
        self.demote(&victims, Demote::Forced, cx);
    }

    fn merged_demands(&self) -> Vec<AggDemand> {
        // Merge software reports (src- and dst-side aggregates are observed
        // at both endpoints' vswitches, so take the max per reporter pair
        // instead of double counting).
        let mut merged: BTreeMap<FlowAggregate, AggDemand> = BTreeMap::new();
        let widen = |m: &mut AggDemand, d: &AggDemand| {
            m.n_active = m.n_active.max(d.n_active);
            m.m_pps = m.m_pps.max(d.m_pps);
            m.m_bps = m.m_bps.max(d.m_bps);
        };
        for d in self.reports.values().flat_map(|rep| &rep.entries) {
            merged
                .entry(d.agg)
                .and_modify(|m| {
                    m.pps = m.pps.max(d.pps);
                    m.bps = m.bps.max(d.bps);
                    widen(m, d);
                })
                .or_insert(*d);
        }
        // Fold in hardware-path measurements for offloaded aggregates: the
        // two paths carry disjoint traffic, so current rates add.
        for agg in self.ledger.offloaded() {
            if let Some(hd) = self.hw.demand(agg) {
                merged
                    .entry(*agg)
                    .and_modify(|m| {
                        m.pps += hd.pps;
                        m.bps += hd.bps;
                        widen(m, &hd);
                    })
                    .or_insert(hd);
            }
        }
        merged.into_values().collect()
    }

    /// Run the decision engine under a wall clock. The duration feeds only
    /// the `ctrl.de.epoch_ns` counter — it never influences simulated time
    /// or any decision, so determinism is preserved (the fingerprint used
    /// by the determinism suite excludes the registry).
    fn run_engine(&mut self, demands: &[AggDemand], cx: &mut Cx<'_>) -> Decision {
        let t0 = std::time::Instant::now();
        self.inc.ingest_snapshot(demands);
        let decision = self.inc.decide(self.ledger.offloaded(), self.cfg.budget);
        let stats = self.inc.last_stats();
        let epoch_ns = t0.elapsed().as_nanos() as u64;
        cx.inc(cx.c.de_epochs);
        cx.add(cx.c.de_epoch_ns, epoch_ns);
        cx.add(cx.c.de_deltas_ingested, stats.deltas_ingested);
        cx.add(cx.c.de_band_crossers, stats.band_crossers);
        cx.add(cx.c.de_churn_suppressed, stats.churn_suppressed);
        if cx.tel.spans.enabled() {
            // Zero-duration marker span: one per decision epoch, keyed by
            // the round number so epochs are distinguishable in a trace.
            let comp = cx.tel.spans.comp("tor-ctrl");
            let now = cx.now.as_nanos();
            if let Some(s) = cx.tel.spans.begin(now, comp, "de-epoch", self.rounds) {
                cx.tel.spans.end(now, s);
            }
        }
        decision
    }

    /// Which of the engine's offload picks can go to hardware now, with
    /// their synthesized rules.
    fn admit(&self, picks: &[FlowAggregate], cx: &Cx<'_>) -> (Vec<FlowAggregate>, Vec<TorRule>) {
        let (mut aggs, mut rules) = (Vec::new(), Vec::new());
        // While the hardware is suspended (too many consecutive install
        // failures) or the ToR is believed down (probe-driven), attempt no
        // offloads: traffic stays on the software path.
        if !self.health.offloads_allowed(cx.now) {
            return (aggs, rules);
        }
        for agg in picks {
            if self.entries_used + rules.len() >= self.cfg.budget {
                break;
            }
            // Not an aggregate whose install is still in flight (the engine
            // only knows the acked set; reserving it again would leak an
            // entry). Chaos gates: not one in blackhole cooldown, or homed
            // on a server whose SR-IOV path is down.
            if self.ledger.rule_of(agg).is_some()
                || self.blackhole_until.contains_key(agg)
                || self.hw_down_vms.contains(&endpoint(agg))
            {
                continue;
            }
            // Err is a deny-overlap: skip this aggregate.
            if let Ok(rule) = self.cfg.rule_manager.synthesize(agg, 10) {
                rules.push(rule);
                aggs.push(*agg);
            }
        }
        (aggs, rules)
    }

    /// Audit every offload/demote with the score that ranked it, the
    /// current software/hardware rate split, and fast-path occupancy.
    fn audit(&self, demands: &[AggDemand], b: &OffloadDecision, cx: &mut Cx<'_>) {
        let by_agg: FxHashMap<FlowAggregate, &AggDemand> =
            demands.iter().map(|d| (d.agg, d)).collect();
        let hw_bps: FxHashMap<FlowAggregate, f64> = b.hw_agg_bps.iter().copied().collect();
        let demoted = b.demote.iter().map(|a| (DecisionKind::Demote, a));
        let offloaded = b.offload.iter().map(|a| (DecisionKind::Offload, a));
        for (kind, agg) in demoted.chain(offloaded) {
            let (score, total_bits) = by_agg
                .get(agg)
                .map(|d| (self.cfg.de.score(d), d.bps * 8.0))
                .unwrap_or((0.0, 0.0));
            let hw_bits = hw_bps.get(agg).copied().unwrap_or(0.0);
            let sw_bits = (total_bits - hw_bits).max(0.0);
            cx.tel.audit.decision(
                cx.now.as_nanos(),
                kind,
                &format!("{agg:?}"),
                score,
                (sw_bits as u64, hw_bits as u64),
                self.entries_used as u64,
                self.cfg.budget as u64,
            );
        }
    }

    /// One decision round: demotions take effect now, offloads when the ToR
    /// acks their install.
    pub(super) fn decide(&mut self, cx: &mut Cx<'_>) {
        if self.recon.is_recovering() {
            // A restarted incarnation makes no decisions until its view of
            // the hardware is rebuilt; the cadence resumes next interval.
            return;
        }
        self.rounds += 1;
        let now = cx.now;
        self.blackhole_until.retain(|_, t| now < *t);
        let demands = self.merged_demands();
        let decision = self.run_engine(&demands, cx);

        // Hardware rates for the locals' FPS splits (bits/sec), taken
        // before the demotions erase their history.
        let hw_agg_bps: Vec<(FlowAggregate, f64)> = self
            .offloaded_touching(|_| true)
            .iter()
            .filter_map(|a| self.hw.demand(a).map(|d| (*a, d.bps * 8.0)))
            .collect();

        self.demote(&decision.demote, Demote::Decided, cx);
        let (aggs, rules) = self.admit(&decision.offload, cx);
        let broadcast = OffloadDecision {
            interval: self.interval,
            offload: aggs,
            demote: decision.demote,
            hw_agg_bps,
        };
        if cx.tel.audit.enabled() {
            self.audit(&demands, &broadcast, cx);
        }
        if rules.is_empty() {
            // Nothing to install; broadcast demotions/rates immediately.
            cx.broadcast(broadcast);
            return;
        }
        for (agg, rule) in broadcast.offload.iter().zip(&rules) {
            self.ledger
                .reserve(&mut self.entries_used, *agg, (rule.tenant, rule.spec));
        }
        let xid = self.xids.next();
        self.txns.begin(xid, rules, broadcast, cx);
    }
}
