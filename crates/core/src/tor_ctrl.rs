//! The **TOR controller** (paper §4.3, §5.2: "a custom Floodlight controller
//! that issues OpenFlow table and flow stats requests").
//!
//! Each control interval it merges the local controllers' demand reports
//! with its own measurements of already-offloaded flows (from the ToR's
//! per-rule counters), runs the decision engine, and:
//!
//! 1. installs the synthesized rule bundles for new offloads at the ToR and
//!    waits for the Ack **before** telling local controllers to flip flow
//!    placers (no blackholing);
//! 2. broadcasts demotions immediately (placers flip back to the VIF) and
//!    garbage-collects the ToR rules after a grace period so in-flight
//!    hardware packets still match;
//! 3. tracks fast-path memory so it "offloads only as many flows as can be
//!    accommodated".

use std::collections::{HashMap, HashSet};

use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::ctrl::{CtrlReply, CtrlRequest, TorRule, TorStatEntry};
use fastrak_net::event::{CtlMsg, Event, NetCtx};
use fastrak_net::flow::{FlowAggregate, FlowSpec};
use fastrak_sim::kernel::{Api, EventHandle, Node, NodeId};
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_telemetry::recorder::{DecisionKind, Severity};
use fastrak_telemetry::span::SpanId;
use fastrak_telemetry::{CounterId, Registry};

use crate::de::DeConfig;
use crate::de_inc::IncrementalDecisionEngine;
use crate::me::AggDemand;
use crate::meter::{self, RateWindow};
use crate::protocol::{DemandReport, HwPathReport, MigrationPrepare, OffloadDecision};
use crate::rules::RuleManager;

mod tags {
    /// Start of a ToR measurement epoch (sample A).
    pub const EPOCH: u64 = 1;
    /// Sample B, `t` later.
    pub const SAMPLE_B: u64 = 2;
    /// Run the decision round for a control interval.
    pub const DECIDE: u64 = 3;
    /// Garbage-collect demoted ToR rules (a = gc token).
    pub const GC: u64 = 4;
    /// Install transaction timeout (a = xid, b = attempt).
    pub const INSTALL_TIMEOUT: u64 = 5;
    /// Periodic reconciliation sweep against actual ToR rule state.
    pub const RECONCILE: u64 = 6;
    /// Periodic hardware-path liveness probe.
    pub const PROBE: u64 = 7;
    /// Probe reply deadline (a = xid).
    pub const PROBE_TIMEOUT: u64 = 8;
}

/// Control-plane hardening knobs: install-transaction retry/backoff and the
/// periodic state reconciliation sweep. The defaults assume the testbed's
/// sub-millisecond control RTT (ToR agent latency 200 µs + 100 µs send
/// delay each way); real deployments would scale them with their RTT.
#[derive(Debug, Clone)]
pub struct CtrlPlaneConfig {
    /// Ack deadline for the first install attempt; doubles per retry
    /// (bounded exponential backoff) up to [`CtrlPlaneConfig::backoff_cap`].
    pub install_timeout: SimDuration,
    /// Retransmissions after the initial attempt before the transaction is
    /// abandoned (rolled back; reconciliation cleans hardware).
    pub max_install_retries: u32,
    /// Upper bound on the per-attempt timeout.
    pub backoff_cap: SimDuration,
    /// Period of the reconciliation sweep ([`SimDuration::ZERO`] disables).
    pub reconcile_interval: SimDuration,
    /// Consecutive install failures (Error replies or abandoned
    /// transactions) that trigger hardware suspension.
    pub hw_failure_threshold: u32,
    /// How long offloads stay suspended (traffic remains on the software
    /// path) after the failure threshold trips.
    pub hw_cooldown: SimDuration,
    /// Period of the hardware-path liveness probe ([`SimDuration::ZERO`]
    /// disables, the default — probing adds control traffic, so scenarios
    /// opt in). A probe answered with a definitive Error (ToR rebooting)
    /// marks the ToR down immediately; [`CtrlPlaneConfig::hw_failure_threshold`]
    /// consecutive unanswered probes do the same. Probe replies carry the
    /// ToR's boot generation, which is how reboots are detected.
    pub probe_interval: SimDuration,
    /// Consecutive measured zero-rate hardware epochs — while software-side
    /// demand history persists — before an offloaded aggregate is declared
    /// blackholed and force-demoted (0 disables, the default).
    pub blackhole_epochs: u32,
    /// How long a blackhole-demoted aggregate is barred from re-offload.
    pub blackhole_cooldown: SimDuration,
}

impl Default for CtrlPlaneConfig {
    fn default() -> Self {
        CtrlPlaneConfig {
            install_timeout: SimDuration::from_millis(10),
            max_install_retries: 5,
            backoff_cap: SimDuration::from_millis(160),
            reconcile_interval: SimDuration::from_secs(1),
            hw_failure_threshold: 3,
            hw_cooldown: SimDuration::from_secs(2),
            probe_interval: SimDuration::ZERO,
            blackhole_epochs: 0,
            blackhole_cooldown: SimDuration::from_secs(2),
        }
    }
}

/// Dense registry ids for the controller's fault/recovery counters,
/// registered once at deployment ([`crate::attach`]) so every increment on
/// the control path is a plain array write. The registry is the single
/// source of truth — the controller keeps no shadow fields.
#[derive(Debug, Clone, Copy)]
pub struct CtrlCounterIds {
    /// Installs rejected by the ToR (Error replies).
    pub install_failures: CounterId,
    /// Install batches retransmitted after an Ack timeout.
    pub install_retries: CounterId,
    /// Install timeout timers that fired on a still-pending transaction.
    pub install_timeouts: CounterId,
    /// Transactions abandoned after exhausting retries.
    pub installs_abandoned: CounterId,
    /// Reconciliation sweeps performed.
    pub reconcile_sweeps: CounterId,
    /// Untracked hardware rules removed by reconciliation.
    pub reconcile_stale_removed: CounterId,
    /// Offloaded aggregates demoted because the hardware lost their rule.
    pub reconcile_lost_demoted: CounterId,
    /// `entries_used` drift repairs performed by reconciliation.
    pub reconcile_counter_repairs: CounterId,
    /// Times the failure threshold tripped hardware suspension.
    pub hw_suspensions: CounterId,
    /// Decision-engine epochs executed.
    pub de_epochs: CounterId,
    /// Cumulative wall-clock nanoseconds spent inside decision epochs (the
    /// plane's one wall-clock metric: it never influences the simulation,
    /// but its exported value naturally varies run to run).
    pub de_epoch_ns: CounterId,
    /// Score-index mutations ingested by the incremental engine.
    pub de_deltas_ingested: CounterId,
    /// Aggregates that crossed the offload boundary (offloads + demotes).
    pub de_band_crossers: CounterId,
    /// Offloads suppressed by the hysteresis band (churn avoided).
    pub de_churn_suppressed: CounterId,
    /// ToR reboots detected via a boot-generation bump (probe reply or
    /// rule dump newer than the controller's view).
    pub chaos_tor_reboots_seen: CounterId,
    /// Controller crash/restart cycles survived (state rebuilt from the
    /// hardware's rule dump).
    pub chaos_ctrl_restarts: CounterId,
    /// Offloaded aggregates force-demoted on blackhole suspicion (hardware
    /// counters idle while software demand history persisted).
    pub chaos_blackhole_demotes: CounterId,
    /// Offloaded aggregates force-demoted because their server reported
    /// its SR-IOV hardware path down.
    pub chaos_hw_path_down_demotes: CounterId,
    /// Liveness probes that went unanswered past their deadline.
    pub chaos_probe_timeouts: CounterId,
    /// Rule dumps discarded because they were snapshotted before a reboot
    /// the controller already knew about (using one would resurrect wiped
    /// rules in the bookkeeping).
    pub chaos_stale_dumps_discarded: CounterId,
}

impl CtrlCounterIds {
    /// Register the `ctrl.*` counters (idempotent: the registry dedups
    /// by rendered name, so re-registration returns the same ids).
    pub fn register(reg: &mut Registry) -> CtrlCounterIds {
        CtrlCounterIds {
            install_failures: reg.counter("ctrl.install_failures", &[]),
            install_retries: reg.counter("ctrl.install_retries", &[]),
            install_timeouts: reg.counter("ctrl.install_timeouts", &[]),
            installs_abandoned: reg.counter("ctrl.installs_abandoned", &[]),
            reconcile_sweeps: reg.counter("ctrl.reconcile_sweeps", &[]),
            reconcile_stale_removed: reg.counter("ctrl.reconcile_stale_removed", &[]),
            reconcile_lost_demoted: reg.counter("ctrl.reconcile_lost_demoted", &[]),
            reconcile_counter_repairs: reg.counter("ctrl.reconcile_counter_repairs", &[]),
            hw_suspensions: reg.counter("ctrl.hw_suspensions", &[]),
            de_epochs: reg.counter("ctrl.de.epochs", &[]),
            de_epoch_ns: reg.counter("ctrl.de.epoch_ns", &[]),
            de_deltas_ingested: reg.counter("ctrl.de.deltas_ingested", &[]),
            de_band_crossers: reg.counter("ctrl.de.band_crossers", &[]),
            de_churn_suppressed: reg.counter("ctrl.de.churn_suppressed", &[]),
            chaos_tor_reboots_seen: reg.counter("ctrl.chaos.tor_reboots_seen", &[]),
            chaos_ctrl_restarts: reg.counter("ctrl.chaos.ctrl_restarts", &[]),
            chaos_blackhole_demotes: reg.counter("ctrl.chaos.blackhole_demotes", &[]),
            chaos_hw_path_down_demotes: reg.counter("ctrl.chaos.hw_path_down_demotes", &[]),
            chaos_probe_timeouts: reg.counter("ctrl.chaos.probe_timeouts", &[]),
            chaos_stale_dumps_discarded: reg.counter("ctrl.chaos.stale_dumps_discarded", &[]),
        }
    }
}

/// TOR controller configuration.
pub struct TorControllerConfig {
    /// The ToR switch node.
    pub tor: NodeId,
    /// Local controllers under this ToR.
    pub locals: Vec<NodeId>,
    /// Measurement timing (shared with the locals).
    pub timing: crate::local::Timing,
    /// Decision engine configuration.
    pub de: DeConfig,
    /// Fast-path entries the controller may use (≤ the ToR's capacity;
    /// an aggregate costs one ACL rule, plus one tunnel mapping per remote
    /// destination endpoint).
    pub budget: usize,
    /// Grace period before demoted ToR rules are removed.
    pub demote_grace: SimDuration,
    /// Tenant policies for rule synthesis.
    pub rule_manager: RuleManager,
    /// Failure-handling knobs (retry/backoff, reconciliation, cooldown).
    pub ctrl: CtrlPlaneConfig,
    /// Registry ids for the controller's counters (see
    /// [`CtrlCounterIds::register`]).
    pub counters: CtrlCounterIds,
}

/// Epoch-pair meter over the ToR's per-rule cumulative counters. The
/// Δcounter and history/median logic is [`crate::meter`]'s — shared with
/// the per-server measurement engine so the two planes cannot drift, and so
/// a rule removed + reinstalled (GC/reconciliation churn restarts its
/// counters) re-baselines instead of reading as a zero-rate epoch.
#[derive(Default)]
struct HwMeter {
    sample_a: HashMap<FlowAggregate, (u64, u64)>,
    /// Per-aggregate rate history.
    hist: HashMap<FlowAggregate, RateWindow>,
    /// Rates measured in the most recently closed epoch only (cleared each
    /// sample B). Blackhole detection needs "did the counters move *this*
    /// epoch", which the history medians deliberately smooth away.
    last_rates: HashMap<FlowAggregate, (f64, f64)>,
    cap: usize,
}

impl HwMeter {
    fn fold(
        entries: &[TorStatEntry],
        spec_to_agg: &HashMap<(TenantId, FlowSpec), FlowAggregate>,
    ) -> HashMap<FlowAggregate, (u64, u64)> {
        let mut m = HashMap::new();
        for e in entries {
            if let Some(agg) = spec_to_agg.get(&(e.tenant, e.spec)) {
                let v = m.entry(*agg).or_insert((0, 0));
                let (p, b): &mut (u64, u64) = v;
                *p += e.packets;
                *b += e.bytes;
            }
        }
        m
    }

    fn sample_a(
        &mut self,
        entries: &[TorStatEntry],
        map: &HashMap<(TenantId, FlowSpec), FlowAggregate>,
    ) {
        self.sample_a = Self::fold(entries, map);
    }

    fn sample_b(
        &mut self,
        entries: &[TorStatEntry],
        map: &HashMap<(TenantId, FlowSpec), FlowAggregate>,
        gap_secs: f64,
    ) {
        let folded = Self::fold(entries, map);
        self.last_rates.clear();
        for (agg, cur) in folded {
            // Unmeasurable epochs (no baseline, or counters restarted after
            // a rule reinstall) push nothing; see [`meter::epoch_rates`].
            let baseline = self.sample_a.get(&agg).copied();
            if let Some((pps, bps)) = meter::epoch_rates(baseline, cur, gap_secs) {
                self.hist.entry(agg).or_default().push(pps, bps, self.cap);
                self.last_rates.insert(agg, (pps, bps));
            }
        }
    }

    /// Drop all measurement state (controller restart: the meter is
    /// volatile and rebuilds over subsequent epochs).
    fn reset(&mut self) {
        self.sample_a.clear();
        self.hist.clear();
        self.last_rates.clear();
    }

    fn demand(&self, agg: &FlowAggregate) -> Option<AggDemand> {
        let s = self.hist.get(agg)?.summary()?;
        Some(AggDemand {
            agg: *agg,
            pps: s.pps,
            bps: s.bps,
            n_active: s.n_active,
            m_pps: s.m_pps,
            m_bps: s.m_bps,
        })
    }

    fn forget(&mut self, agg: &FlowAggregate) {
        self.hist.remove(agg);
        self.sample_a.remove(agg);
    }
}

/// An install transaction awaiting the ToR's Ack. Keeps everything needed
/// to retransmit: the batch is resent verbatim under the same xid, and the
/// ToR's idempotent install semantics make re-delivery harmless.
struct InstallTxn {
    /// Aggregates the batch offloads.
    aggs: Vec<FlowAggregate>,
    /// The synthesized rule bundle (kept for retransmission).
    rules: Vec<TorRule>,
    /// Decision broadcast deferred until the Ack lands.
    broadcast: OffloadDecision,
    /// 0 for the initial send; incremented per retransmission.
    attempt: u32,
    /// Handle of the armed timeout timer (cancelled when a reply lands).
    timeout: EventHandle,
    /// Open `offload-xact` telemetry span (None when tracing is disabled);
    /// closed when the transaction resolves (Ack, Error, or abandonment).
    span: Option<SpanId>,
}

/// The TOR controller node.
pub struct TorController {
    cfg: TorControllerConfig,
    /// The decision engine: incremental top-k (`tests/de_differential.rs`
    /// holds it to the full-scan [`crate::de::DecisionEngine`] reference).
    inc: IncrementalDecisionEngine,
    /// Latest report per local controller.
    reports: HashMap<Ip, DemandReport>,
    /// Currently offloaded aggregates.
    offloaded: HashSet<FlowAggregate>,
    /// Installed ToR state per aggregate: the ACL spec (tunnel mappings are
    /// shared, refcounted separately).
    installed_spec: HashMap<FlowAggregate, (TenantId, FlowSpec)>,
    spec_to_agg: HashMap<(TenantId, FlowSpec), FlowAggregate>,
    hw: HwMeter,
    next_xid: u64,
    /// Offloads awaiting ToR Ack, keyed by xid.
    pending_install: HashMap<u64, InstallTxn>,
    /// Demoted rule sets awaiting GC.
    gc_queue: HashMap<u64, Vec<(TenantId, FlowSpec)>>,
    next_gc: u64,
    epoch_in_interval: u32,
    interval: u64,
    /// Outstanding reconciliation dump: (xid, offloaded set snapshotted at
    /// request time). The snapshot keeps installs acked while the dump was
    /// in flight from being misclassified as lost.
    pending_reconcile: Option<(u64, HashSet<FlowAggregate>)>,
    reconcile_armed: bool,
    /// Install failures in a row; resets on any successful Ack.
    consecutive_install_failures: u32,
    /// While set and in the future, no new offloads are attempted (traffic
    /// stays on the software path).
    hw_suspended_until: Option<SimTime>,
    /// Highest ToR boot generation observed (probe replies and rule dumps
    /// carry it). A bump proves the hardware table was wiped.
    tor_generation: u64,
    /// The ToR is believed down (probe Error / timeout threshold): offloads
    /// are suspended until a probe is answered again.
    tor_down: bool,
    /// One-shot guard for arming the periodic probe loop.
    probe_armed: bool,
    /// Outstanding liveness probe: (xid, timeout-timer handle).
    pending_probe: Option<(u64, EventHandle)>,
    /// Unanswered probes in a row; resets on any reply.
    consecutive_probe_failures: u32,
    /// Controller incarnation: highest chaos restart epoch adopted.
    restart_epoch: u64,
    /// A restarted incarnation is rebuilding from the hardware dump; no
    /// decisions are made until the dump lands.
    recovering: bool,
    /// xid of the outstanding recovery rule dump.
    recovery_xid: Option<u64>,
    /// Consecutive measured zero-rate hardware epochs per offloaded
    /// aggregate (blackhole detection).
    zero_epochs: HashMap<FlowAggregate, u32>,
    /// Offloaded aggregates that have carried hardware traffic at least
    /// once — only those can be declared blackholed (a rule that never
    /// carried traffic has nothing to lose).
    hw_active: HashSet<FlowAggregate>,
    /// Blackhole-demoted aggregates barred from re-offload until the time.
    blackhole_until: HashMap<FlowAggregate, SimTime>,
    /// VMs whose server reported its SR-IOV hardware path down; aggregates
    /// touching them are not offloaded.
    hw_down_vms: HashSet<(TenantId, Ip)>,
    /// Fast-path entries currently used by this controller.
    pub entries_used: usize,
    /// Decision rounds executed.
    pub rounds: u64,
    /// Tenants ever seen in the offloaded set — remembered so
    /// [`TorController::publish_telemetry`] can zero a tenant's occupancy
    /// gauges after its last entry is demoted (a stale last-nonzero gauge
    /// would misreport the fairness picture). BTreeSet: registration order
    /// must be deterministic.
    telemetry_tenants: std::collections::BTreeSet<TenantId>,
}

impl TorController {
    /// Build; post [`TorController::boot_event`] to start.
    pub fn new(cfg: TorControllerConfig) -> TorController {
        let hist_cap = (cfg.timing.epochs_per_interval * cfg.timing.history_intervals) as usize;
        TorController {
            inc: IncrementalDecisionEngine::new(cfg.de.clone()),
            reports: HashMap::new(),
            offloaded: HashSet::new(),
            installed_spec: HashMap::new(),
            spec_to_agg: HashMap::new(),
            hw: HwMeter {
                cap: hist_cap,
                ..HwMeter::default()
            },
            next_xid: 1,
            pending_install: HashMap::new(),
            gc_queue: HashMap::new(),
            next_gc: 0,
            epoch_in_interval: 0,
            interval: 0,
            pending_reconcile: None,
            reconcile_armed: false,
            consecutive_install_failures: 0,
            hw_suspended_until: None,
            tor_generation: 0,
            tor_down: false,
            probe_armed: false,
            pending_probe: None,
            consecutive_probe_failures: 0,
            restart_epoch: 0,
            recovering: false,
            recovery_xid: None,
            zero_epochs: HashMap::new(),
            hw_active: HashSet::new(),
            blackhole_until: HashMap::new(),
            hw_down_vms: HashSet::new(),
            entries_used: 0,
            rounds: 0,
            telemetry_tenants: std::collections::BTreeSet::new(),
            cfg,
        }
    }

    /// Publish per-tenant fast-path occupancy into the registry
    /// (pull-model, like `Testbed::publish_telemetry` — call at collection
    /// points, never from the hot path): `ctrl.tenant.offloaded_entries`
    /// and `ctrl.tenant.occupancy_share` gauges, labelled by tenant.
    pub fn publish_telemetry(&mut self, reg: &mut Registry) {
        let mut per: std::collections::BTreeMap<TenantId, u64> = std::collections::BTreeMap::new();
        for a in &self.offloaded {
            *per.entry(a.tenant()).or_default() += 1;
        }
        self.telemetry_tenants.extend(per.keys().copied());
        let budget = self.cfg.budget.max(1) as f64;
        for &t in &self.telemetry_tenants {
            let n = per.get(&t).copied().unwrap_or(0);
            let label = t.0.to_string();
            let g = reg.gauge("ctrl.tenant.offloaded_entries", &[("tenant", &label)]);
            reg.gauge_set(g, n as f64);
            let g = reg.gauge("ctrl.tenant.occupancy_share", &[("tenant", &label)]);
            reg.gauge_set(g, n as f64 / budget);
        }
    }

    /// Wire the local controllers (deployment patches this after creating
    /// them, since the TOR controller is created first).
    pub fn set_locals(&mut self, locals: Vec<NodeId>) {
        self.cfg.locals = locals;
    }

    /// The timer event that starts the measurement/decision loop.
    pub fn boot_event() -> Event {
        Event::Timer {
            tag: tags::EPOCH,
            a: 0,
            b: 0,
        }
    }

    /// Currently offloaded aggregates (inspection).
    pub fn offloaded(&self) -> &HashSet<FlowAggregate> {
        &self.offloaded
    }

    /// Highest ToR boot generation this controller has observed.
    pub fn tor_generation(&self) -> u64 {
        self.tor_generation
    }

    /// True while a restarted incarnation is still rebuilding its state
    /// from the hardware rule dump.
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// True while the ToR is believed unreachable (probe-driven).
    pub fn tor_believed_down(&self) -> bool {
        self.tor_down
    }

    /// Bump a per-tenant transition counter (`ctrl.tenant.offloads` /
    /// `ctrl.tenant.demotes`). Lazily registered — the registry dedups by
    /// (name, labels) — and only ever called on an actual offloaded-set
    /// transition, so rates derived from these counters are exact.
    fn count_tenant_transition(reg: &mut Registry, name: &str, t: TenantId) {
        let label = t.0.to_string();
        let id = reg.counter(name, &[("tenant", &label)]);
        reg.inc(id);
    }

    fn request_tor_dump(&mut self, api: &mut Api<'_, Event, NetCtx>, phase_b: bool) {
        let xid = self.next_xid;
        self.next_xid += 1;
        // Phase encoded in the low bit of the xid parity map: track via
        // pending_install? Simpler: even = A, odd = B.
        let xid = xid * 2 + if phase_b { 1 } else { 0 };
        api.send(
            self.cfg.tor,
            SimDuration::from_micros(50),
            Event::Ctl(CtlMsg::new(api.self_id, CtrlRequest::DumpFlowStats { xid })),
        );
    }

    fn merged_demands(&self) -> Vec<AggDemand> {
        // Merge software reports (sum across servers: src- and dst-side
        // aggregates are observed at both endpoints' vswitches, so take the
        // max per reporter pair instead of double counting).
        let mut merged: std::collections::BTreeMap<FlowAggregate, AggDemand> =
            std::collections::BTreeMap::new();
        for rep in self.reports.values() {
            for d in &rep.entries {
                merged
                    .entry(d.agg)
                    .and_modify(|m| {
                        m.pps = m.pps.max(d.pps);
                        m.bps = m.bps.max(d.bps);
                        m.n_active = m.n_active.max(d.n_active);
                        m.m_pps = m.m_pps.max(d.m_pps);
                        m.m_bps = m.m_bps.max(d.m_bps);
                    })
                    .or_insert(*d);
            }
        }
        // Fold in hardware-path measurements for offloaded aggregates.
        for agg in &self.offloaded {
            if let Some(hd) = self.hw.demand(agg) {
                merged
                    .entry(*agg)
                    .and_modify(|m| {
                        m.pps += hd.pps;
                        m.bps += hd.bps;
                        m.n_active = m.n_active.max(hd.n_active);
                        m.m_pps = m.m_pps.max(hd.m_pps);
                        m.m_bps = m.m_bps.max(hd.m_bps);
                    })
                    .or_insert(hd);
            }
        }
        merged.into_values().collect()
    }

    fn decide(&mut self, api: &mut Api<'_, Event, NetCtx>) {
        if self.recovering {
            // A restarted incarnation makes no decisions until its view of
            // the hardware is rebuilt; the cadence resumes next interval.
            return;
        }
        self.rounds += 1;
        let now = api.now;
        self.blackhole_until.retain(|_, t| now < *t);
        let demands = self.merged_demands();

        // Run the epoch under a wall clock. The duration feeds only the
        // `ctrl.de.epoch_ns` counter — it never influences simulated time or
        // any decision, so determinism is preserved (the fingerprint used by
        // the determinism suite excludes the registry).
        let t0 = std::time::Instant::now();
        let decision = self
            .inc
            .decide_snapshot(&demands, &self.offloaded, self.cfg.budget);
        let de_stats = self.inc.last_stats();
        let epoch_ns = t0.elapsed().as_nanos() as u64;

        {
            let reg = &mut api.ctx.telemetry.registry;
            let c = &self.cfg.counters;
            reg.inc(c.de_epochs);
            reg.add(c.de_epoch_ns, epoch_ns);
            reg.add(c.de_deltas_ingested, de_stats.deltas_ingested);
            reg.add(c.de_band_crossers, de_stats.band_crossers);
            reg.add(c.de_churn_suppressed, de_stats.churn_suppressed);
        }
        if api.ctx.telemetry.spans.enabled() {
            let spans = &mut api.ctx.telemetry.spans;
            let comp = spans.comp("tor-ctrl");
            // Zero-duration marker span: one per decision epoch, keyed by the
            // round number so epochs are distinguishable in a trace.
            if let Some(s) = spans.begin(api.now.as_nanos(), comp, "de-epoch", self.rounds) {
                spans.end(api.now.as_nanos(), s);
            }
        }

        // Hardware rates for the FPS splits (bits/sec). Sorted for
        // determinism (HashSet iteration order is randomized).
        let mut offl: Vec<FlowAggregate> = self.offloaded.iter().copied().collect();
        offl.sort();
        let hw_agg_bps: Vec<(FlowAggregate, f64)> = offl
            .iter()
            .filter_map(|a| self.hw.demand(a).map(|d| (*a, d.bps * 8.0)))
            .collect();

        // Demotions: broadcast now, GC the ToR rules after the grace.
        if !decision.demote.is_empty() {
            let mut specs = Vec::new();
            for agg in &decision.demote {
                if let Some(s) = self.installed_spec.remove(agg) {
                    self.spec_to_agg.remove(&s);
                    specs.push(s);
                }
                if self.offloaded.remove(agg) {
                    Self::count_tenant_transition(
                        &mut api.ctx.telemetry.registry,
                        "ctrl.tenant.demotes",
                        agg.tenant(),
                    );
                }
                self.hw.forget(agg);
            }
            if !specs.is_empty() {
                // Exact accounting: `specs` counts entries actually removed
                // from `installed_spec`, each of which incremented
                // `entries_used` exactly once.
                self.entries_used -= specs.len();
                let token = self.next_gc;
                self.next_gc += 1;
                self.gc_queue.insert(token, specs);
                api.timer(
                    self.cfg.demote_grace,
                    Event::Timer {
                        tag: tags::GC,
                        a: token,
                        b: 0,
                    },
                );
            }
        }

        // While the hardware is suspended (too many consecutive install
        // failures) or the ToR is believed down (probe-driven), attempt no
        // offloads: traffic stays on the software path.
        let hw_ok = !self.tor_down
            && match self.hw_suspended_until {
                Some(t) if api.now < t => false,
                Some(_) => {
                    self.hw_suspended_until = None;
                    true
                }
                None => true,
            };

        // Offloads: synthesize rules, install at the ToR, broadcast on Ack.
        let mut rules = Vec::new();
        let mut offloadable = Vec::new();
        if hw_ok {
            for agg in &decision.offload {
                if self.entries_used + rules.len() >= self.cfg.budget {
                    break;
                }
                // Chaos gates: an aggregate in blackhole cooldown, or homed
                // on a server whose SR-IOV path is down, stays in software.
                if self.blackhole_until.contains_key(agg) || self.touches_down_vm(agg) {
                    continue;
                }
                match self.cfg.rule_manager.synthesize(agg, 10) {
                    Ok(rule) => {
                        rules.push(rule);
                        offloadable.push(*agg);
                    }
                    Err(_) => { /* deny-overlap: skip this aggregate */ }
                }
            }
        }
        // Audit every offload/demote with the score that ranked it, the
        // current software/hardware rate split, and fast-path occupancy.
        if api.ctx.telemetry.audit.enabled() {
            let by_agg: HashMap<FlowAggregate, &AggDemand> =
                demands.iter().map(|d| (d.agg, d)).collect();
            let hw_bps: HashMap<FlowAggregate, f64> = hw_agg_bps.iter().copied().collect();
            let now_ns = api.now.as_nanos();
            let (de, entries_used, budget) = (&self.cfg.de, self.entries_used, self.cfg.budget);
            let audit = &mut api.ctx.telemetry.audit;
            let decided = decision
                .demote
                .iter()
                .map(|a| (DecisionKind::Demote, a))
                .chain(offloadable.iter().map(|a| (DecisionKind::Offload, a)));
            for (kind, agg) in decided {
                let (score, total_bits) = by_agg
                    .get(agg)
                    .map(|d| (de.score(d), d.bps * 8.0))
                    .unwrap_or((0.0, 0.0));
                let hw_bits = hw_bps.get(agg).copied().unwrap_or(0.0);
                let sw_bits = (total_bits - hw_bits).max(0.0);
                audit.decision(
                    now_ns,
                    kind,
                    &format!("{agg:?}"),
                    score,
                    (sw_bits as u64, hw_bits as u64),
                    entries_used as u64,
                    budget as u64,
                );
            }
        }

        let broadcast = OffloadDecision {
            interval: self.interval,
            offload: offloadable.clone(),
            demote: decision.demote.clone(),
            hw_agg_bps,
        };
        if rules.is_empty() {
            // Nothing to install; broadcast demotions/rates immediately.
            self.broadcast(api, broadcast);
        } else {
            let xid = self.next_xid;
            self.next_xid += 1;
            for (agg, rule) in offloadable.iter().zip(&rules) {
                self.installed_spec.insert(*agg, (rule.tenant, rule.spec));
                self.spec_to_agg.insert((rule.tenant, rule.spec), *agg);
                // Re-offloading a spec whose demoted rule still awaits GC:
                // drop the GC token's claim so the grace-period sweep can't
                // delete a rule the hardware is about to need again (the
                // install itself is an idempotent no-op at the ToR).
                self.unqueue_gc(rule.tenant, &rule.spec);
            }
            self.entries_used += rules.len();
            // Trace the install transaction: opens here, closes on the Ack
            // (or Error/abandonment) so the span length is the offload
            // hand-shake latency.
            let span = if api.ctx.telemetry.spans.enabled() {
                let spans = &mut api.ctx.telemetry.spans;
                let comp = spans.comp("tor-ctrl");
                spans.begin(api.now.as_nanos(), comp, "offload-xact", xid)
            } else {
                None
            };
            self.pending_install.insert(
                xid,
                InstallTxn {
                    aggs: offloadable,
                    rules,
                    broadcast,
                    attempt: 0,
                    timeout: EventHandle::NULL,
                    span,
                },
            );
            self.send_install(api, xid);
        }
    }

    /// (Re)transmit a pending install batch and arm its Ack timeout with
    /// bounded exponential backoff (`install_timeout * 2^attempt`, capped).
    fn send_install(&mut self, api: &mut Api<'_, Event, NetCtx>, xid: u64) {
        let (rules, attempt) = match self.pending_install.get(&xid) {
            Some(t) => (t.rules.clone(), t.attempt),
            None => return,
        };
        api.send(
            self.cfg.tor,
            SimDuration::from_micros(100),
            Event::Ctl(CtlMsg::new(
                api.self_id,
                CtrlRequest::InstallTorRules { rules, xid },
            )),
        );
        let backoff = self
            .cfg
            .ctrl
            .install_timeout
            .0
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cfg.ctrl.backoff_cap.0);
        let h = api.timer(
            SimDuration(backoff),
            Event::Timer {
                tag: tags::INSTALL_TIMEOUT,
                a: xid,
                b: attempt as u64,
            },
        );
        if let Some(txn) = self.pending_install.get_mut(&xid) {
            txn.timeout = h;
        }
    }

    /// Ack-timeout handling: retransmit with backoff, or — once the retry
    /// budget is spent — abandon the transaction: roll the bookkeeping
    /// back, broadcast only the demotions (placers never flipped, so no
    /// traffic is blackholed), and count a hardware failure. Any rules a
    /// late-arriving attempt installs anyway become untracked hardware
    /// state that the reconciliation sweep removes.
    fn on_install_timeout(&mut self, api: &mut Api<'_, Event, NetCtx>, xid: u64, attempt: u64) {
        let current = match self.pending_install.get(&xid) {
            Some(t) => t.attempt,
            None => return,
        };
        if current as u64 != attempt {
            return; // stale timer from a superseded attempt
        }
        api.ctx
            .telemetry
            .registry
            .inc(self.cfg.counters.install_timeouts);
        if current >= self.cfg.ctrl.max_install_retries {
            let txn = self
                .pending_install
                .remove(&xid)
                .expect("checked just above");
            api.ctx
                .telemetry
                .registry
                .inc(self.cfg.counters.installs_abandoned);
            api.ctx.telemetry.flight.record(
                api.now.as_nanos(),
                "tor-ctrl",
                Severity::Error,
                "install transaction abandoned after retry budget",
                [xid, current as u64, txn.aggs.len() as u64],
            );
            if let Some(s) = txn.span {
                api.ctx.telemetry.spans.end(api.now.as_nanos(), s);
            }
            self.rollback_install(&txn.aggs);
            self.record_hw_failure(api);
            let mut b = txn.broadcast;
            b.offload.clear();
            self.broadcast(api, b);
        } else {
            if let Some(txn) = self.pending_install.get_mut(&xid) {
                txn.attempt += 1;
            }
            api.ctx
                .telemetry
                .registry
                .inc(self.cfg.counters.install_retries);
            self.send_install(api, xid);
        }
    }

    fn broadcast(&self, api: &mut Api<'_, Event, NetCtx>, d: OffloadDecision) {
        for &local in &self.cfg.locals {
            api.send(
                local,
                SimDuration::from_micros(100),
                Event::Ctl(CtlMsg::new(api.self_id, d.clone())),
            );
        }
    }

    fn on_install_ack(&mut self, api: &mut Api<'_, Event, NetCtx>, xid: u64, ok: bool) {
        let Some(txn) = self.pending_install.remove(&xid) else {
            return; // duplicate reply, or reply after abandonment
        };
        api.cancel(txn.timeout);
        if let Some(s) = txn.span {
            api.ctx.telemetry.spans.end(api.now.as_nanos(), s);
        }
        if ok {
            self.consecutive_install_failures = 0;
            for a in &txn.aggs {
                if self.offloaded.insert(*a) {
                    // Offloads commit here (on Ack): failed installs never
                    // count as transitions.
                    Self::count_tenant_transition(
                        &mut api.ctx.telemetry.registry,
                        "ctrl.tenant.offloads",
                        a.tenant(),
                    );
                }
            }
            self.broadcast(api, txn.broadcast);
        } else {
            // Definitive rejection (capacity exhausted / injected failure):
            // the ToR's atomic batch left no partial state, so roll back the
            // bookkeeping exactly and broadcast only the demotions.
            api.ctx
                .telemetry
                .registry
                .inc(self.cfg.counters.install_failures);
            self.rollback_install(&txn.aggs);
            self.record_hw_failure(api);
            let mut b = txn.broadcast;
            b.offload.clear();
            self.broadcast(api, b);
        }
    }

    /// Undo `decide()`'s eager bookkeeping for aggregates whose install
    /// never took effect. Exact accounting: `entries_used` is decremented
    /// only for entries actually still recorded (never a blanket
    /// `saturating_sub`, which masked double-frees against a concurrent
    /// demote-GC), and the reverse map entry is removed only while it still
    /// points at the same aggregate.
    fn rollback_install(&mut self, aggs: &[FlowAggregate]) {
        for a in aggs {
            if let Some(s) = self.installed_spec.remove(a) {
                debug_assert!(self.entries_used > 0, "entries_used underflow");
                self.entries_used -= 1;
                if self.spec_to_agg.get(&s) == Some(a) {
                    self.spec_to_agg.remove(&s);
                }
            }
        }
    }

    /// Count one hardware install failure; past the threshold, suspend
    /// offloads for the cooldown (graceful degradation to the software
    /// path — demand keeps being served via the vswitch).
    fn record_hw_failure(&mut self, api: &mut Api<'_, Event, NetCtx>) {
        self.consecutive_install_failures += 1;
        if self.consecutive_install_failures >= self.cfg.ctrl.hw_failure_threshold {
            self.consecutive_install_failures = 0;
            self.hw_suspended_until = Some(api.now + self.cfg.ctrl.hw_cooldown);
            api.ctx
                .telemetry
                .registry
                .inc(self.cfg.counters.hw_suspensions);
            api.ctx.telemetry.flight.record(
                api.now.as_nanos(),
                "tor-ctrl",
                Severity::Warn,
                "hardware path suspended (install-failure cooldown)",
                [
                    self.cfg.ctrl.hw_failure_threshold as u64,
                    self.cfg.ctrl.hw_cooldown.0,
                    0,
                ],
            );
        }
    }

    /// Remove `(tenant, spec)` from every pending demote-GC batch (called
    /// when the spec is re-offloaded during its grace period).
    fn unqueue_gc(&mut self, tenant: TenantId, spec: &FlowSpec) {
        for specs in self.gc_queue.values_mut() {
            specs.retain(|s| !(s.0 == tenant && s.1 == *spec));
        }
    }

    /// True when a demote-GC batch still claims this rule (it is within its
    /// grace period and must not be treated as untracked).
    fn gc_pending(&self, s: &(TenantId, FlowSpec)) -> bool {
        self.gc_queue.values().any(|v| v.contains(s))
    }

    /// Reconciliation: compare the ToR's actual rule inventory against the
    /// controller's bookkeeping and repair both sides. Three repairs:
    ///
    /// 1. hardware rules nobody tracks (left by abandoned transactions or
    ///    late retransmits) are removed immediately;
    /// 2. offloaded aggregates whose rule vanished from hardware are
    ///    demoted (placers flip back to the software path — better than
    ///    silently dropping at the ToR's default-deny VRF);
    /// 3. `entries_used` is re-derived from `installed_spec` if drifted.
    ///
    /// Only aggregates already offloaded when the dump was *requested* are
    /// eligible for (2): anything acked while the dump was in flight is
    /// legitimately absent from the reply.
    fn on_reconcile_dump(
        &mut self,
        api: &mut Api<'_, Event, NetCtx>,
        xid: u64,
        rules: Vec<(TenantId, FlowSpec)>,
    ) {
        let Some((want, snapshot)) = self.pending_reconcile.take() else {
            return; // duplicate reply
        };
        if xid != want {
            // A delayed reply to a superseded sweep; keep waiting.
            self.pending_reconcile = Some((want, snapshot));
            return;
        }

        let stale: Vec<(TenantId, FlowSpec)> = rules
            .iter()
            .filter(|rs| !self.spec_to_agg.contains_key(rs) && !self.gc_pending(rs))
            .copied()
            .collect();
        if !stale.is_empty() {
            api.ctx.telemetry.registry.add(
                self.cfg.counters.reconcile_stale_removed,
                stale.len() as u64,
            );
            api.send(
                self.cfg.tor,
                SimDuration::from_micros(100),
                Event::Ctl(CtlMsg::new(
                    api.self_id,
                    CtrlRequest::RemoveTorRules { rules: stale },
                )),
            );
        }

        let have: HashSet<(TenantId, FlowSpec)> = rules.into_iter().collect();
        let mut lost: Vec<FlowAggregate> = snapshot
            .into_iter()
            .filter(|a| self.offloaded.contains(a))
            .filter(|a| {
                self.installed_spec
                    .get(a)
                    .is_some_and(|s| !have.contains(s))
            })
            .collect();
        lost.sort();
        if !lost.is_empty() {
            api.ctx
                .telemetry
                .registry
                .add(self.cfg.counters.reconcile_lost_demoted, lost.len() as u64);
            for a in &lost {
                if self.offloaded.remove(a) {
                    Self::count_tenant_transition(
                        &mut api.ctx.telemetry.registry,
                        "ctrl.tenant.demotes",
                        a.tenant(),
                    );
                }
                self.hw.forget(a);
            }
            self.rollback_install(&lost);
            self.broadcast(
                api,
                OffloadDecision {
                    interval: self.interval,
                    offload: Vec::new(),
                    demote: lost,
                    hw_agg_bps: Vec::new(),
                },
            );
        }

        let expect = self.installed_spec.len();
        if self.entries_used != expect {
            api.ctx
                .telemetry
                .registry
                .inc(self.cfg.counters.reconcile_counter_repairs);
            api.ctx.telemetry.flight.record(
                api.now.as_nanos(),
                "tor-ctrl",
                Severity::Warn,
                "entries_used drift repaired by reconciliation",
                [self.entries_used as u64, expect as u64, 0],
            );
            self.entries_used = expect;
        }
    }

    fn on_migration_prepare(&mut self, api: &mut Api<'_, Event, NetCtx>, m: MigrationPrepare) {
        // Demote every aggregate touching the migrating VM (paper §4.1.2:
        // "any offloaded flows must be returned back to the VM's hypervisor
        // before the migration can occur").
        let mut affected: Vec<FlowAggregate> = self
            .offloaded
            .iter()
            .copied()
            .filter(|a| match *a {
                FlowAggregate::SrcApp { tenant, ip, .. }
                | FlowAggregate::DstApp { tenant, ip, .. } => tenant == m.tenant && ip == m.vm_ip,
                FlowAggregate::Exact(k) => {
                    k.tenant == m.tenant && (k.src_ip == m.vm_ip || k.dst_ip == m.vm_ip)
                }
            })
            .collect();
        affected.sort();
        self.force_demote(api, affected);
    }

    /// Force-demote offloaded aggregates outside the normal decision flow
    /// (VM migration, hardware-path failure, blackhole suspicion): placers
    /// flip back to the software path immediately via a demote-only
    /// broadcast, and the ToR rules are garbage-collected after the usual
    /// grace so in-flight hardware packets still match. `affected` must be
    /// sorted; empty input is a no-op.
    fn force_demote(&mut self, api: &mut Api<'_, Event, NetCtx>, affected: Vec<FlowAggregate>) {
        if affected.is_empty() {
            return;
        }
        let mut specs = Vec::new();
        for agg in &affected {
            if let Some(s) = self.installed_spec.remove(agg) {
                self.spec_to_agg.remove(&s);
                specs.push(s);
            }
            if self.offloaded.remove(agg) {
                Self::count_tenant_transition(
                    &mut api.ctx.telemetry.registry,
                    "ctrl.tenant.demotes",
                    agg.tenant(),
                );
            }
            self.hw.forget(agg);
            self.zero_epochs.remove(agg);
            self.hw_active.remove(agg);
        }
        self.entries_used -= specs.len();
        self.broadcast(
            api,
            OffloadDecision {
                interval: self.interval,
                offload: Vec::new(),
                demote: affected,
                hw_agg_bps: Vec::new(),
            },
        );
        // Remove ToR rules after the usual grace.
        let token = self.next_gc;
        self.next_gc += 1;
        self.gc_queue.insert(token, specs);
        api.timer(
            self.cfg.demote_grace,
            Event::Timer {
                tag: tags::GC,
                a: token,
                b: 0,
            },
        );
    }

    /// Does the aggregate touch a VM whose server reported its SR-IOV
    /// hardware path down?
    fn touches_down_vm(&self, agg: &FlowAggregate) -> bool {
        if self.hw_down_vms.is_empty() {
            return false;
        }
        match *agg {
            FlowAggregate::SrcApp { tenant, ip, .. } | FlowAggregate::DstApp { tenant, ip, .. } => {
                self.hw_down_vms.contains(&(tenant, ip))
            }
            FlowAggregate::Exact(k) => {
                self.hw_down_vms.contains(&(k.tenant, k.src_ip))
                    || self.hw_down_vms.contains(&(k.tenant, k.dst_ip))
            }
        }
    }

    /// A local controller reported its server's SR-IOV path changed
    /// liveness. Down: force-demote every offloaded aggregate touching that
    /// server's VMs — their hardware path is dark, so software is strictly
    /// better — and bar those VMs from re-offload. Up: lift the bar; the
    /// normal hysteresis (N-of-M persistence + score band) governs
    /// re-offload, so a flapping VF cannot thrash the fast path.
    fn on_hw_path_report(&mut self, api: &mut Api<'_, Event, NetCtx>, rep: HwPathReport) {
        if rep.up {
            for vm in &rep.vms {
                self.hw_down_vms.remove(vm);
            }
            api.ctx.telemetry.flight.record(
                api.now.as_nanos(),
                "tor-ctrl",
                Severity::Info,
                "server hardware path recovered; VMs re-eligible for offload",
                [rep.vms.len() as u64, 0, 0],
            );
            return;
        }
        for vm in &rep.vms {
            self.hw_down_vms.insert(*vm);
        }
        let mut affected: Vec<FlowAggregate> = self
            .offloaded
            .iter()
            .copied()
            .filter(|a| self.touches_down_vm(a))
            .collect();
        affected.sort();
        api.ctx.telemetry.registry.add(
            self.cfg.counters.chaos_hw_path_down_demotes,
            affected.len() as u64,
        );
        api.ctx.telemetry.flight.record(
            api.now.as_nanos(),
            "tor-ctrl",
            Severity::Error,
            "server hardware path down: demoting its offloaded aggregates",
            [affected.len() as u64, rep.vms.len() as u64, 0],
        );
        self.force_demote(api, affected);
    }

    /// Blackhole detection, run each closed measurement epoch when enabled:
    /// an offloaded aggregate whose hardware counters stopped moving for
    /// `blackhole_epochs` consecutive measured epochs — while the software
    /// plane still remembers demand for it — is presumed blackholed (dead
    /// VF, wedged rule) and force-demoted, then barred from re-offload for
    /// the cooldown.
    fn check_blackholes(&mut self, api: &mut Api<'_, Event, NetCtx>) {
        let mut offl: Vec<FlowAggregate> = self.offloaded.iter().copied().collect();
        offl.sort();
        let mut victims: Vec<FlowAggregate> = Vec::new();
        for agg in offl {
            match self.hw.last_rates.get(&agg) {
                Some(&(pps, bps)) if pps <= 0.0 && bps <= 0.0 => {
                    if !self.hw_active.contains(&agg) {
                        continue; // never carried traffic: nothing to lose
                    }
                    if !self.sw_demand_persists(&agg) {
                        continue; // demand genuinely stopped: idle, not dark
                    }
                    let n = self.zero_epochs.entry(agg).or_insert(0);
                    *n += 1;
                    if *n >= self.cfg.ctrl.blackhole_epochs {
                        victims.push(agg);
                    }
                }
                Some(_) => {
                    // Counters moved: healthy; remember it carried traffic.
                    self.hw_active.insert(agg);
                    self.zero_epochs.remove(&agg);
                }
                None => {} // unmeasurable epoch (reinstall churn): no evidence
            }
        }
        if victims.is_empty() {
            return;
        }
        for agg in &victims {
            self.blackhole_until
                .insert(*agg, api.now + self.cfg.ctrl.blackhole_cooldown);
        }
        api.ctx.telemetry.registry.add(
            self.cfg.counters.chaos_blackhole_demotes,
            victims.len() as u64,
        );
        api.ctx.telemetry.flight.record(
            api.now.as_nanos(),
            "tor-ctrl",
            Severity::Warn,
            "blackhole suspected: hw counters idle under live demand; demoting",
            [
                victims.len() as u64,
                self.cfg.ctrl.blackhole_epochs as u64,
                0,
            ],
        );
        self.force_demote(api, victims);
    }

    /// Does any local controller's latest report still show demand (current
    /// or median-history) for this aggregate? Offloaded traffic bypasses
    /// the vswitch, so the *median history* is what persists for a few
    /// intervals after a hardware path goes dark — that persistence is the
    /// blackhole signal.
    fn sw_demand_persists(&self, agg: &FlowAggregate) -> bool {
        self.reports.values().any(|rep| {
            rep.entries
                .iter()
                .any(|d| d.agg == *agg && (d.pps > 0.0 || d.m_pps > 0.0))
        })
    }

    /// Adopt a newly observed ToR boot generation: the hardware table was
    /// wiped by a reboot, so any in-flight reconcile snapshot is already
    /// untrustworthy. Counting happens here; the caller decides whether to
    /// re-sweep.
    fn note_tor_reboot(&mut self, api: &mut Api<'_, Event, NetCtx>, generation: u64) {
        self.tor_generation = generation;
        api.ctx
            .telemetry
            .registry
            .inc(self.cfg.counters.chaos_tor_reboots_seen);
        api.ctx.telemetry.flight.record(
            api.now.as_nanos(),
            "tor-ctrl",
            Severity::Warn,
            "tor reboot detected: hardware table presumed wiped",
            [
                generation,
                self.offloaded.len() as u64,
                self.entries_used as u64,
            ],
        );
    }

    /// Start a reconciliation sweep now: snapshot the offloaded set and
    /// request a rule dump (shared by the periodic timer and the
    /// reboot-triggered immediate sweep).
    fn start_reconcile_dump(&mut self, api: &mut Api<'_, Event, NetCtx>) {
        api.ctx
            .telemetry
            .registry
            .inc(self.cfg.counters.reconcile_sweeps);
        let xid = self.next_xid;
        self.next_xid += 1;
        // A still-outstanding previous sweep (dump or reply lost to
        // faults) is superseded: its snapshot is replaced wholesale.
        self.pending_reconcile = Some((xid, self.offloaded.clone()));
        api.send(
            self.cfg.tor,
            SimDuration::from_micros(50),
            Event::Ctl(CtlMsg::new(api.self_id, CtrlRequest::DumpTorRules { xid })),
        );
    }

    fn mark_tor_down(&mut self, api: &mut Api<'_, Event, NetCtx>, msg: &str) {
        if self.tor_down {
            return;
        }
        self.tor_down = true;
        api.ctx.telemetry.flight.record(
            api.now.as_nanos(),
            "tor-ctrl",
            Severity::Error,
            msg,
            [
                self.consecutive_probe_failures as u64,
                self.offloaded.len() as u64,
                0,
            ],
        );
    }

    fn on_probe_reply(&mut self, api: &mut Api<'_, Event, NetCtx>, xid: u64, generation: u64) {
        if self.pending_probe.is_none_or(|(want, _)| want != xid) {
            return; // reply to a superseded or pre-restart probe
        }
        let (_, h) = self.pending_probe.take().expect("checked just above");
        api.cancel(h);
        self.consecutive_probe_failures = 0;
        if self.tor_down {
            self.tor_down = false;
            api.ctx.telemetry.flight.record(
                api.now.as_nanos(),
                "tor-ctrl",
                Severity::Info,
                "tor probe answered: hardware path back up",
                [xid, generation, 0],
            );
        }
        if generation > self.tor_generation {
            self.note_tor_reboot(api, generation);
            // The wiped table invalidates any in-flight reconcile snapshot;
            // sweep again immediately so lost aggregates demote now rather
            // than a full reconcile interval later.
            self.pending_reconcile = None;
            self.start_reconcile_dump(api);
        }
    }

    /// Lazily adopt a new controller incarnation when the chaos plane
    /// scripted a crash/restart: all volatile state dies with the process,
    /// and the new instance rebuilds its offloaded set, transactions, and
    /// policy occupancy from the hardware itself via a full rule dump.
    /// Decisions are suspended until the dump lands; the periodic timer
    /// chains (epoch/reconcile/probe) model the new instance restarting
    /// its loops. The xid space jumps so replies addressed to the dead
    /// incarnation can never be confused with the new one's transactions.
    fn maybe_restart(&mut self, api: &mut Api<'_, Event, NetCtx>) {
        let epoch = api.chaos_ctrl_restart_epoch();
        if epoch <= self.restart_epoch {
            return;
        }
        self.restart_epoch = epoch;
        for txn in self.pending_install.values() {
            api.cancel(txn.timeout);
            if let Some(s) = txn.span {
                api.ctx.telemetry.spans.end(api.now.as_nanos(), s);
            }
        }
        self.pending_install.clear();
        if let Some((_, h)) = self.pending_probe.take() {
            api.cancel(h);
        }
        self.reports.clear();
        self.offloaded.clear();
        self.installed_spec.clear();
        self.spec_to_agg.clear();
        self.hw.reset();
        // Demoted rules whose GC was pending become untracked hardware
        // state; the reconciliation sweep removes them.
        self.gc_queue.clear();
        self.pending_reconcile = None;
        self.consecutive_install_failures = 0;
        self.hw_suspended_until = None;
        self.entries_used = 0;
        self.epoch_in_interval = 0;
        self.consecutive_probe_failures = 0;
        self.tor_down = false;
        self.zero_epochs.clear();
        self.hw_active.clear();
        self.blackhole_until.clear();
        self.hw_down_vms.clear();
        self.next_xid = (epoch << 40) | 1;
        api.ctx
            .telemetry
            .registry
            .inc(self.cfg.counters.chaos_ctrl_restarts);
        api.ctx.telemetry.flight.record(
            api.now.as_nanos(),
            "tor-ctrl",
            Severity::Error,
            "controller restarted: rebuilding state from hardware",
            [epoch, 0, 0],
        );
        self.recovering = true;
        self.send_recovery_dump(api);
    }

    /// Ask the ToR for its full rule inventory to rebuild from. Retried on
    /// the reconcile cadence while recovery is outstanding (the request or
    /// reply can be lost to faults, or rejected by a dark ToR).
    fn send_recovery_dump(&mut self, api: &mut Api<'_, Event, NetCtx>) {
        let xid = self.next_xid;
        self.next_xid += 1;
        self.recovery_xid = Some(xid);
        api.send(
            self.cfg.tor,
            SimDuration::from_micros(50),
            Event::Ctl(CtlMsg::new(api.self_id, CtrlRequest::DumpTorRules { xid })),
        );
    }

    /// Rebuild bookkeeping from the hardware's rule inventory after a
    /// restart. Every rule whose spec inverts to a known aggregate shape
    /// ([`FlowAggregate::from_spec`]) becomes an offloaded entry again;
    /// anything else is untracked state the next reconciliation sweep
    /// removes. Per-tenant policy occupancy re-derives from the rebuilt
    /// offloaded set (no transition counters: these are not new offloads).
    fn on_recovery_dump(
        &mut self,
        api: &mut Api<'_, Event, NetCtx>,
        rules: Vec<(TenantId, FlowSpec)>,
        fastpath_used: usize,
        generation: u64,
    ) {
        self.recovering = false;
        self.recovery_xid = None;
        // Adopt silently: the new incarnation has no pre-crash view to
        // compare against, so this is baseline, not a detected reboot.
        self.tor_generation = self.tor_generation.max(generation);
        let mut aggs: Vec<FlowAggregate> = rules
            .iter()
            .filter_map(|(t, s)| FlowAggregate::from_spec(s).filter(|a| a.tenant() == *t))
            .collect();
        aggs.sort();
        aggs.dedup();
        for agg in aggs {
            let tenant = agg.tenant();
            let spec = agg.to_spec();
            self.installed_spec.insert(agg, (tenant, spec));
            self.spec_to_agg.insert((tenant, spec), agg);
            self.offloaded.insert(agg);
        }
        self.entries_used = self.installed_spec.len();
        api.ctx.telemetry.flight.record(
            api.now.as_nanos(),
            "tor-ctrl",
            Severity::Info,
            "controller state rebuilt from hardware rule dump",
            [self.entries_used as u64, fastpath_used as u64, generation],
        );
    }
}

impl Node<Event, NetCtx> for TorController {
    fn on_event(&mut self, ev: Event, api: &mut Api<'_, Event, NetCtx>) {
        // A scripted crash/restart takes effect at the next event the
        // controller would have processed (the new process starts where the
        // old one died, state-free).
        self.maybe_restart(api);
        match ev {
            Event::Timer {
                tag: tags::EPOCH, ..
            } => {
                if !self.reconcile_armed && self.cfg.ctrl.reconcile_interval > SimDuration::ZERO {
                    self.reconcile_armed = true;
                    api.timer(
                        self.cfg.ctrl.reconcile_interval,
                        Event::Timer {
                            tag: tags::RECONCILE,
                            a: 0,
                            b: 0,
                        },
                    );
                }
                if !self.probe_armed && self.cfg.ctrl.probe_interval > SimDuration::ZERO {
                    self.probe_armed = true;
                    api.timer(
                        self.cfg.ctrl.probe_interval,
                        Event::Timer {
                            tag: tags::PROBE,
                            a: 0,
                            b: 0,
                        },
                    );
                }
                self.request_tor_dump(api, false);
                api.timer(
                    self.cfg.timing.sample_gap,
                    Event::Timer {
                        tag: tags::SAMPLE_B,
                        a: 0,
                        b: 0,
                    },
                );
                api.timer(self.cfg.timing.epoch, TorController::boot_event());
            }
            Event::Timer {
                tag: tags::SAMPLE_B,
                ..
            } => {
                self.request_tor_dump(api, true);
            }
            Event::Timer {
                tag: tags::DECIDE, ..
            } => {
                self.decide(api);
            }
            Event::Timer {
                tag: tags::GC, a, ..
            } => {
                // A batch can drain to empty if every spec was re-offloaded
                // during the grace period (see `unqueue_gc`).
                if let Some(specs) = self.gc_queue.remove(&a) {
                    if !specs.is_empty() {
                        api.send(
                            self.cfg.tor,
                            SimDuration::from_micros(100),
                            Event::Ctl(CtlMsg::new(
                                api.self_id,
                                CtrlRequest::RemoveTorRules { rules: specs },
                            )),
                        );
                    }
                }
            }
            Event::Timer {
                tag: tags::INSTALL_TIMEOUT,
                a,
                b,
            } => {
                self.on_install_timeout(api, a, b);
            }
            Event::Timer {
                tag: tags::RECONCILE,
                ..
            } => {
                if self.recovering {
                    // The recovery dump is still outstanding (lost to
                    // faults, or rejected by a dark ToR): re-ask instead of
                    // sweeping — there is no bookkeeping to reconcile yet.
                    self.send_recovery_dump(api);
                } else {
                    self.start_reconcile_dump(api);
                }
                api.timer(
                    self.cfg.ctrl.reconcile_interval,
                    Event::Timer {
                        tag: tags::RECONCILE,
                        a: 0,
                        b: 0,
                    },
                );
            }
            Event::Timer {
                tag: tags::PROBE, ..
            } => {
                if self.pending_probe.is_none() {
                    let xid = self.next_xid;
                    self.next_xid += 1;
                    api.send(
                        self.cfg.tor,
                        SimDuration::from_micros(50),
                        Event::Ctl(CtlMsg::new(api.self_id, CtrlRequest::Probe { xid })),
                    );
                    let h = api.timer(
                        self.cfg.ctrl.install_timeout,
                        Event::Timer {
                            tag: tags::PROBE_TIMEOUT,
                            a: xid,
                            b: 0,
                        },
                    );
                    self.pending_probe = Some((xid, h));
                }
                api.timer(
                    self.cfg.ctrl.probe_interval,
                    Event::Timer {
                        tag: tags::PROBE,
                        a: 0,
                        b: 0,
                    },
                );
            }
            Event::Timer {
                tag: tags::PROBE_TIMEOUT,
                a,
                ..
            } if self.pending_probe.is_some_and(|(want, _)| want == a) => {
                self.pending_probe = None;
                self.consecutive_probe_failures += 1;
                api.ctx
                    .telemetry
                    .registry
                    .inc(self.cfg.counters.chaos_probe_timeouts);
                if self.consecutive_probe_failures >= self.cfg.ctrl.hw_failure_threshold {
                    self.mark_tor_down(api, "tor probes unanswered: offloads suspended");
                }
            }
            Event::Timer {
                tag: tags::PROBE_TIMEOUT,
                ..
            } => {} // timeout for a probe that was already answered or superseded
            Event::Ctl(msg) => {
                let msg = match msg.downcast::<CtrlReply>() {
                    Ok((_, CtrlReply::TorFlowStats { xid, entries })) => {
                        if xid % 2 == 0 {
                            self.hw.sample_a(&entries, &self.spec_to_agg);
                        } else {
                            let gap = self.cfg.timing.sample_gap.as_secs_f64();
                            let map = std::mem::take(&mut self.spec_to_agg);
                            self.hw.sample_b(&entries, &map, gap);
                            self.spec_to_agg = map;
                            if self.cfg.ctrl.blackhole_epochs > 0 {
                                self.check_blackholes(api);
                            }
                            self.epoch_in_interval += 1;
                            if self.epoch_in_interval >= self.cfg.timing.epochs_per_interval {
                                self.epoch_in_interval = 0;
                                self.interval += 1;
                                // Decide shortly after the epoch closes so
                                // local reports for the interval have landed.
                                api.timer(
                                    SimDuration::from_millis(10),
                                    Event::Timer {
                                        tag: tags::DECIDE,
                                        a: 0,
                                        b: 0,
                                    },
                                );
                            }
                        }
                        return;
                    }
                    Ok((_, CtrlReply::Ack { xid })) => {
                        self.on_install_ack(api, xid, true);
                        return;
                    }
                    Ok((_, CtrlReply::Error { xid, .. })) => {
                        if self.pending_probe.is_some_and(|(want, _)| want == xid) {
                            // A definitive Error to a probe is the ToR agent
                            // itself answering "rebooting": down immediately,
                            // no timeout threshold needed.
                            let (_, h) = self.pending_probe.take().expect("checked just above");
                            api.cancel(h);
                            self.consecutive_probe_failures = 0;
                            self.mark_tor_down(api, "tor reports rebooting: offloads suspended");
                            return;
                        }
                        if self.recovery_xid == Some(xid) {
                            // Recovery dump rejected (ToR still dark); the
                            // reconcile-cadence retry will re-ask.
                            return;
                        }
                        self.on_install_ack(api, xid, false);
                        return;
                    }
                    Ok((
                        _,
                        CtrlReply::ProbeReply {
                            xid,
                            boot_generation,
                        },
                    )) => {
                        self.on_probe_reply(api, xid, boot_generation);
                        return;
                    }
                    Ok((
                        _,
                        CtrlReply::TorRuleDump {
                            xid,
                            rules,
                            fastpath_used,
                            boot_generation,
                        },
                    )) => {
                        if self.recovery_xid == Some(xid) {
                            self.on_recovery_dump(api, rules, fastpath_used, boot_generation);
                            return;
                        }
                        if boot_generation < self.tor_generation {
                            // Snapshotted before a reboot the controller
                            // already knows about: using it would resurrect
                            // wiped rules in the bookkeeping. Discard, and
                            // re-sweep if it was the awaited reconcile dump.
                            api.ctx
                                .telemetry
                                .registry
                                .inc(self.cfg.counters.chaos_stale_dumps_discarded);
                            api.ctx.telemetry.flight.record(
                                api.now.as_nanos(),
                                "tor-ctrl",
                                Severity::Warn,
                                "stale pre-reboot rule dump discarded",
                                [xid, boot_generation, self.tor_generation],
                            );
                            if self
                                .pending_reconcile
                                .as_ref()
                                .is_some_and(|(want, _)| *want == xid)
                            {
                                self.pending_reconcile = None;
                                self.start_reconcile_dump(api);
                            }
                            return;
                        }
                        if boot_generation > self.tor_generation {
                            // This dump is post-reboot truth: note the wipe,
                            // then let the sweep demote everything the
                            // hardware lost.
                            self.note_tor_reboot(api, boot_generation);
                        }
                        self.on_reconcile_dump(api, xid, rules);
                        return;
                    }
                    Ok(_) => return,
                    Err(m) => m,
                };
                let msg = match msg.downcast::<DemandReport>() {
                    Ok((_, rep)) => {
                        self.reports.insert(rep.server_ip, rep);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<HwPathReport>() {
                    Ok((_, rep)) => {
                        self.on_hw_path_report(api, rep);
                        return;
                    }
                    Err(m) => m,
                };
                if let Ok((_, m)) = msg.downcast::<MigrationPrepare>() {
                    self.on_migration_prepare(api, m);
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "tor-ctrl"
    }
}
