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
//!
//! **Shape.** Five state machines that never see the kernel — each takes an
//! input and a [`Cx`] (now, telemetry, an output list) and appends
//! [`CtrlOut`]s — behind the orchestrator in this file and `decide.rs`,
//! which owns the epoch cadence and the decision round:
//!
//! | component | owns | holds |
//! |---|---|---|
//! | [`ledger::RuleLedger`] | offloaded set, rule ↔ aggregate maps, GC batches | an aggregate gives its entry back through one call |
//! | [`txns::InstallTxns`] | xid → batch, attempt, backoff | every batch ends in exactly one of Ack / Error / abandoned |
//! | [`health::TorHealth`] | probe, boot generation, down flag, failure cooldown | offloads are attempted only at a ToR believed healthy |
//! | [`reconcile::Reconciler`] | sweep snapshot, recovery dump | only the awaited dump is acted on |
//! | [`hw_meter::HwMeter`] | counter samples, rate history, blackhole evidence | only the awaited sample pair closes an epoch |
//!
//! `adapter.rs` is the only file that knows `Api`: it adopts a chaos
//! restart, turns the `Event` into a [`CtrlIn`], and applies the outputs in
//! order. The order of sends and timers *is* the simulation (the kernel's
//! `seq` breaks ties), so components emit in a fixed, documented order.

mod adapter;
mod decide;
mod health;
mod hw_meter;
#[cfg(test)]
mod interleave;
mod ledger;
mod reconcile;
#[cfg(test)]
mod testkit;
mod txns;

use std::collections::{BTreeMap, BTreeSet, HashSet};

use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::ctrl::{Ctl, CtrlReply, CtrlRequest, DemandReport, OffloadDecision};
use fastrak_net::event::Event;
use fastrak_net::flow::FlowAggregate;
use fastrak_sim::kernel::{EventHandle, NodeId};
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_sim::{FxHashMap, FxHashSet};
use fastrak_telemetry::{CounterId, Registry, Telemetry};

use crate::de::DeConfig;
use crate::de_inc::IncrementalDecisionEngine;
use crate::rules::RuleManager;

use decide::Demote;
use health::TorHealth;
use hw_meter::{HwMeter, Phase};
use ledger::RuleLedger;
use reconcile::Reconciler;
use txns::InstallTxns;

// Control-plane constants. Each was a config field with one value in the
// whole repo; they assume the testbed's sub-millisecond control RTT (ToR
// agent latency 200 µs + 50–100 µs send delay each way) and would scale
// with a real deployment's RTT together, not one by one.

/// Ack deadline for the first install attempt (and for a liveness probe);
/// doubles per retry up to [`BACKOFF_CAP`].
pub(crate) const INSTALL_TIMEOUT: SimDuration = SimDuration::from_millis(10);
/// Retransmissions after the initial attempt before a transaction is
/// abandoned (rolled back; reconciliation cleans hardware).
pub(crate) const MAX_INSTALL_RETRIES: u32 = 5;
/// Upper bound on the per-attempt install timeout.
pub(crate) const BACKOFF_CAP: SimDuration = SimDuration::from_millis(160);
/// Period of the reconciliation sweep (and of recovery-dump retries).
pub(crate) const RECONCILE_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Consecutive install failures (Error replies or abandoned transactions)
/// that suspend the hardware path; also the unanswered probes in a row that
/// mark the ToR down.
pub(crate) const HW_FAILURE_THRESHOLD: u32 = 3;
/// How long offloads stay suspended after the failure threshold trips.
pub(crate) const HW_COOLDOWN: SimDuration = SimDuration::from_secs(2);
/// How long a blackhole-demoted aggregate is barred from re-offload.
pub(crate) const BLACKHOLE_COOLDOWN: SimDuration = SimDuration::from_secs(2);
/// Grace period before demoted ToR rules are removed, so in-flight hardware
/// packets still match.
pub(crate) const DEMOTE_GRACE: SimDuration = SimDuration::from_millis(50);
/// Decide this long after the interval's last epoch closes, so the local
/// controllers' reports for the interval have landed.
const DECIDE_DELAY: SimDuration = SimDuration::from_millis(10);

/// The two control-plane options scenarios actually vary (both default
/// off: they add control traffic, so scenarios opt in).
#[derive(Debug, Clone, Default)]
pub struct CtrlPlaneConfig {
    /// Period of the hardware-path liveness probe ([`SimDuration::ZERO`]
    /// disables). A probe answered with a definitive Error (ToR rebooting)
    /// marks the ToR down immediately; three consecutive unanswered probes
    /// do the same. Probe replies carry the ToR's boot generation, which is
    /// how reboots are detected.
    pub probe_interval: SimDuration,
    /// Consecutive measured zero-rate hardware epochs — while software-side
    /// demand history persists — before an offloaded aggregate is declared
    /// blackholed and force-demoted (0 disables).
    pub blackhole_epochs: u32,
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
#[derive(Clone)]
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
    /// Tenant policies for rule synthesis.
    pub rule_manager: RuleManager,
    /// Liveness probing and blackhole detection (both default off).
    pub ctrl: CtrlPlaneConfig,
    /// Registry ids for the controller's counters (see
    /// [`CtrlCounterIds::register`]).
    pub counters: CtrlCounterIds,
}

/// A timer the controller arms on itself. The variant (with its payload) is
/// also the key of the adapter's handle table, which is what [`CtrlOut::Disarm`]
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Timer {
    /// Start of a ToR measurement epoch (sample A).
    Epoch,
    /// Sample B, `t` later.
    SampleB,
    /// Run the decision round for a control interval.
    Decide,
    /// The grace period of a demoted rule batch ended.
    Gc(u64),
    /// Ack deadline of one attempt of an install transaction.
    InstallTimeout { xid: u64, attempt: u32 },
    /// Periodic reconciliation sweep against actual ToR rule state.
    Reconcile,
    /// Periodic hardware-path liveness probe.
    Probe,
    /// Reply deadline of the probe with this xid.
    ProbeTimeout(u64),
}

impl Timer {
    fn event(self) -> Event {
        let (tag, a, b) = match self {
            Timer::Epoch => (1, 0, 0),
            Timer::SampleB => (2, 0, 0),
            Timer::Decide => (3, 0, 0),
            Timer::Gc(token) => (4, token, 0),
            Timer::InstallTimeout { xid, attempt } => (5, xid, attempt as u64),
            Timer::Reconcile => (6, 0, 0),
            Timer::Probe => (7, 0, 0),
            Timer::ProbeTimeout(xid) => (8, xid, 0),
        };
        Event::Timer { tag, a, b }
    }

    fn from_event(tag: u64, a: u64, b: u64) -> Option<Timer> {
        Some(match tag {
            1 => Timer::Epoch,
            2 => Timer::SampleB,
            3 => Timer::Decide,
            4 => Timer::Gc(a),
            5 => Timer::InstallTimeout {
                xid: a,
                attempt: b as u32,
            },
            6 => Timer::Reconcile,
            7 => Timer::Probe,
            8 => Timer::ProbeTimeout(a),
            _ => return None,
        })
    }
}

/// Everything the controller reacts to.
pub(crate) enum CtrlIn {
    Timer(Timer),
    Msg(Ctl),
}

/// Everything the controller does to the world. The adapter applies a
/// handler's outputs in the order they were pushed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CtrlOut {
    /// Send a request to the ToR, arriving after the delay.
    ToTor(SimDuration, CtrlRequest),
    /// Send a decision to every local controller.
    Broadcast(OffloadDecision),
    Arm(SimDuration, Timer),
    /// Cancel an armed timer (a no-op if it already fired).
    Disarm(Timer),
}

/// What a component handler gets besides its input: the clock, the
/// observability plane and the output list. Nothing in here can schedule.
pub(crate) struct Cx<'a> {
    pub now: SimTime,
    pub tel: &'a mut Telemetry,
    pub out: &'a mut Vec<CtrlOut>,
    pub c: CtrlCounterIds,
}

impl Cx<'_> {
    /// Ask the ToR something (stats, rule dump, probe).
    fn query(&mut self, req: CtrlRequest) {
        self.out
            .push(CtrlOut::ToTor(SimDuration::from_micros(50), req));
    }

    /// Change ToR state (install, remove).
    fn update(&mut self, req: CtrlRequest) {
        self.out
            .push(CtrlOut::ToTor(SimDuration::from_micros(100), req));
    }

    fn broadcast(&mut self, d: OffloadDecision) {
        self.out.push(CtrlOut::Broadcast(d));
    }

    fn arm(&mut self, after: SimDuration, t: Timer) {
        self.out.push(CtrlOut::Arm(after, t));
    }

    fn disarm(&mut self, t: Timer) {
        self.out.push(CtrlOut::Disarm(t));
    }

    fn inc(&mut self, id: CounterId) {
        self.tel.registry.inc(id);
    }

    fn add(&mut self, id: CounterId, n: u64) {
        self.tel.registry.add(id, n);
    }
}

/// Correlation ids for every request the controller sends. One space, so a
/// reply names exactly one request whatever its kind.
#[derive(Clone)]
pub(crate) struct Xids(u64);

impl Xids {
    fn next(&mut self) -> u64 {
        let xid = self.0;
        self.0 += 1;
        xid
    }

    /// The xid space jumps per incarnation so replies addressed to a dead
    /// one can never be confused with the new one's requests.
    fn restart(&mut self, incarnation: u64) {
        self.0 = (incarnation << 40) | 1;
    }
}

/// The TOR controller node.
#[derive(Clone)]
pub struct TorController {
    cfg: TorControllerConfig,
    /// The decision engine: incremental top-k (`tests/de_differential.rs`
    /// holds it to the full-scan reference in `tests/support/`).
    inc: IncrementalDecisionEngine,
    /// Latest report per local controller. Ordered: merged into the
    /// decision's demand rows.
    reports: BTreeMap<Ip, DemandReport>,
    ledger: RuleLedger,
    txns: InstallTxns,
    health: TorHealth,
    recon: Reconciler,
    hw: HwMeter,
    xids: Xids,
    /// The reconcile and probe timer chains are running (armed with the
    /// first epoch; they survive restarts, modelling the new process
    /// restarting its loops).
    chains_armed: bool,
    epoch_in_interval: u32,
    interval: u64,
    /// Controller incarnation: highest chaos restart epoch adopted.
    incarnation: u64,
    /// Blackhole-demoted aggregates barred from re-offload until the time.
    blackhole_until: FxHashMap<FlowAggregate, SimTime>,
    /// VMs whose server reported its SR-IOV hardware path down; aggregates
    /// touching them are not offloaded.
    hw_down_vms: FxHashSet<(TenantId, Ip)>,
    /// Fast-path entries currently used by this controller. Stored, not
    /// derived: [`RuleLedger`] moves it entry by entry and the
    /// reconciliation sweep checks it against the ledger's maps.
    pub entries_used: usize,
    /// Decision rounds executed.
    pub rounds: u64,
    /// Tenants ever seen in the offloaded set — remembered so
    /// [`TorController::publish_telemetry`] can zero a tenant's occupancy
    /// gauges after its last entry is demoted (a stale last-nonzero gauge
    /// would misreport the fairness picture). BTreeSet: registration order
    /// must be deterministic.
    telemetry_tenants: BTreeSet<TenantId>,
    /// IO state, touched by `adapter.rs` only: handles of armed timers, and
    /// the output list reused across events.
    timers: FxHashMap<Timer, EventHandle>,
    outs: Vec<CtrlOut>,
}

impl TorController {
    /// Build; post [`TorController::boot_event`] to start.
    pub fn new(cfg: TorControllerConfig) -> TorController {
        let hist_cap = (cfg.timing.epochs_per_interval * cfg.timing.history_intervals) as usize;
        TorController {
            inc: IncrementalDecisionEngine::new(cfg.de.clone()),
            reports: BTreeMap::new(),
            ledger: RuleLedger::default(),
            txns: InstallTxns::default(),
            health: TorHealth::default(),
            recon: Reconciler::default(),
            hw: HwMeter::new(hist_cap),
            xids: Xids(1),
            chains_armed: false,
            epoch_in_interval: 0,
            interval: 0,
            incarnation: 0,
            blackhole_until: FxHashMap::default(),
            hw_down_vms: FxHashSet::default(),
            entries_used: 0,
            rounds: 0,
            telemetry_tenants: BTreeSet::new(),
            timers: FxHashMap::default(),
            outs: Vec::new(),
            cfg,
        }
    }

    /// Publish per-tenant fast-path occupancy into the registry
    /// (pull-model, like `Testbed::publish_telemetry` — call at collection
    /// points, never from the hot path): `ctrl.tenant.offloaded_entries`
    /// and `ctrl.tenant.occupancy_share` gauges, labelled by tenant.
    pub fn publish_telemetry(&mut self, reg: &mut Registry) {
        let mut per: BTreeMap<TenantId, u64> = BTreeMap::new();
        for a in self.ledger.offloaded() {
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
        Timer::Epoch.event()
    }

    /// Currently offloaded aggregates (inspection).
    pub fn offloaded(&self) -> &HashSet<FlowAggregate> {
        self.ledger.offloaded()
    }

    /// Highest ToR boot generation this controller has observed.
    pub fn tor_generation(&self) -> u64 {
        self.health.generation()
    }

    /// True while a restarted incarnation is still rebuilding its state
    /// from the hardware rule dump.
    pub fn is_recovering(&self) -> bool {
        self.recon.is_recovering()
    }

    /// True while the ToR is believed unreachable (probe-driven).
    pub fn tor_believed_down(&self) -> bool {
        self.health.is_down()
    }

    /// React to one input. Pure: state in, state and `cx.out` out.
    pub(crate) fn handle(&mut self, input: CtrlIn, cx: &mut Cx<'_>) {
        match input {
            CtrlIn::Timer(t) => self.on_timer(t, cx),
            CtrlIn::Msg(msg) => match msg {
                Ctl::Reply(r) => self.on_reply(r, cx),
                Ctl::Report(rep) => {
                    self.reports.insert(rep.server_ip, rep);
                }
                Ctl::HwPath(rep) => self.on_hw_path_report(rep, cx),
                Ctl::Migration(m) => {
                    // Paper §4.1.2: "any offloaded flows must be returned back
                    // to the VM's hypervisor before the migration can occur".
                    let affected = self.offloaded_touching(|vm| *vm == (m.tenant, m.vm_ip));
                    self.demote(&affected, Demote::Forced, cx);
                }
                // The controller sends these; it never receives them.
                Ctl::Req(_) | Ctl::Decision(_) => {}
            },
        }
    }

    fn on_timer(&mut self, t: Timer, cx: &mut Cx<'_>) {
        match t {
            Timer::Epoch => {
                if !self.chains_armed {
                    self.chains_armed = true;
                    cx.arm(RECONCILE_INTERVAL, Timer::Reconcile);
                    if self.cfg.ctrl.probe_interval > SimDuration::ZERO {
                        cx.arm(self.cfg.ctrl.probe_interval, Timer::Probe);
                    }
                }
                self.hw.request(Phase::A, &mut self.xids, cx);
                cx.arm(self.cfg.timing.sample_gap, Timer::SampleB);
                cx.arm(self.cfg.timing.epoch, Timer::Epoch);
            }
            Timer::SampleB => self.hw.request(Phase::B, &mut self.xids, cx),
            Timer::Decide => self.decide(cx),
            Timer::Gc(token) => {
                if let Some(rules) = self.ledger.take_gc(token).filter(|r| !r.is_empty()) {
                    cx.update(CtrlRequest::RemoveTorRules { rules });
                }
            }
            Timer::InstallTimeout { xid, attempt } => {
                if let Some(txn) = self.txns.on_timeout(xid, attempt, cx) {
                    self.fail_install(txn, cx);
                }
            }
            Timer::Reconcile => {
                self.recon.tick(self.ledger.offloaded(), &mut self.xids, cx);
                cx.arm(RECONCILE_INTERVAL, Timer::Reconcile);
            }
            Timer::Probe => {
                self.health.probe(&mut self.xids, cx);
                cx.arm(self.cfg.ctrl.probe_interval, Timer::Probe);
            }
            Timer::ProbeTimeout(xid) => self.health.on_probe_timeout(xid, cx),
        }
    }

    fn on_reply(&mut self, reply: CtrlReply, cx: &mut Cx<'_>) {
        match reply {
            CtrlReply::TorFlowStats { xid, entries } => {
                let gap = self.cfg.timing.sample_gap.as_secs_f64();
                let map = self.ledger.spec_to_agg();
                if self.hw.on_stats(xid, &entries, map, gap) {
                    self.close_epoch(cx);
                }
            }
            CtrlReply::Ack { xid } => {
                // None: a duplicate Ack, or one arriving after abandonment.
                if let Some(txn) = self.txns.resolve(xid, cx) {
                    self.health.install_ok();
                    for a in &txn.broadcast.offload {
                        self.ledger.commit(*a, cx.tel);
                    }
                    cx.broadcast(txn.broadcast);
                }
            }
            CtrlReply::Error { xid, .. } => {
                // The probe's: handled there. The recovery dump's (ToR still
                // dark): the reconcile-cadence retry will re-ask.
                if self.health.on_probe_error(xid, cx) || self.recon.is_recovery_dump(xid) {
                    return;
                }
                // Definitive rejection (capacity exhausted / injected
                // failure): the ToR's atomic batch left no partial state.
                if let Some(txn) = self.txns.resolve(xid, cx) {
                    cx.inc(cx.c.install_failures);
                    self.fail_install(txn, cx);
                }
            }
            CtrlReply::ProbeReply {
                xid,
                boot_generation,
            } => {
                if self.health.on_probe_reply(xid, boot_generation, cx) {
                    // The wiped table invalidates any in-flight reconcile
                    // snapshot; sweep again immediately so lost aggregates
                    // demote now rather than a full interval later.
                    self.recon
                        .start_sweep(self.ledger.offloaded(), &mut self.xids, cx);
                }
            }
            CtrlReply::TorRuleDump {
                xid,
                rules,
                boot_generation,
            } => self.on_rule_dump(xid, rules, boot_generation, cx),
            CtrlReply::FlowStats { .. } => {}
        }
    }

    /// A sample-B reply closed a measurement epoch.
    fn close_epoch(&mut self, cx: &mut Cx<'_>) {
        if self.cfg.ctrl.blackhole_epochs > 0 {
            self.check_blackholes(cx);
        }
        self.epoch_in_interval += 1;
        if self.epoch_in_interval >= self.cfg.timing.epochs_per_interval {
            self.epoch_in_interval = 0;
            self.interval += 1;
            cx.arm(DECIDE_DELAY, Timer::Decide);
        }
    }

    /// An install batch ended without an Ack (Error, or retries spent):
    /// give its entries back, broadcast only the demotions that rode with
    /// it (placers never flipped, so no traffic is blackholed), and count a
    /// hardware failure. Any rules a late-arriving attempt installs anyway
    /// become untracked hardware state that the reconciliation sweep removes.
    fn fail_install(&mut self, txn: txns::InstallTxn, cx: &mut Cx<'_>) {
        for a in &txn.broadcast.offload {
            self.ledger.release(&mut self.entries_used, a, cx.tel);
        }
        self.health.install_failed(cx);
        let mut b = txn.broadcast;
        b.offload.clear();
        cx.broadcast(b);
    }

    /// A rule inventory arrived: the recovery dump, or a reconcile sweep's.
    fn on_rule_dump(
        &mut self,
        xid: u64,
        rules: Vec<ledger::RuleId>,
        generation: u64,
        cx: &mut Cx<'_>,
    ) {
        if self.recon.finish_recovery(xid) {
            // Adopt silently: the new incarnation has no pre-crash view to
            // compare against, so this is baseline, not a detected reboot.
            self.health.adopt_generation(generation);
            self.ledger.rebuild(&mut self.entries_used, &rules);
            return;
        }
        if generation < self.health.generation() {
            // Snapshotted before a reboot the controller already knows
            // about: using it would resurrect wiped rules in the
            // bookkeeping. Discard, and re-sweep if it was the awaited one.
            cx.inc(cx.c.chaos_stale_dumps_discarded);
            if self.recon.awaits(xid) {
                self.recon
                    .start_sweep(self.ledger.offloaded(), &mut self.xids, cx);
            }
            return;
        }
        let Some(sweep) = self.recon.classify(xid, rules, &self.ledger) else {
            // A duplicate, a straggler from a superseded sweep, or a reply
            // to a request never sent: a newer generation in it proves
            // nothing.
            return;
        };
        // A newer generation is post-reboot truth: note the wipe, then let
        // the sweep demote everything the hardware lost.
        self.health.observe_generation(generation, cx);
        if !sweep.stale.is_empty() {
            cx.add(cx.c.reconcile_stale_removed, sweep.stale.len() as u64);
            cx.update(CtrlRequest::RemoveTorRules { rules: sweep.stale });
        }
        if !sweep.lost.is_empty() {
            cx.add(cx.c.reconcile_lost_demoted, sweep.lost.len() as u64);
            self.demote(&sweep.lost, Demote::Lost, cx);
        }
        let expect = self.ledger.installed();
        if self.entries_used != expect {
            cx.inc(cx.c.reconcile_counter_repairs);
            self.entries_used = expect;
        }
    }

    /// Adopt a new controller incarnation when the chaos plane scripted a
    /// crash/restart: all volatile state dies with the process, and the new
    /// instance rebuilds its offloaded set and policy occupancy from the
    /// hardware itself via a full rule dump. Decisions are suspended until
    /// the dump lands; the timer chains keep running.
    pub(crate) fn restart(&mut self, incarnation: u64, cx: &mut Cx<'_>) {
        if incarnation <= self.incarnation {
            return;
        }
        self.incarnation = incarnation;
        self.txns.clear(cx);
        self.health.reset(cx);
        self.reports.clear();
        self.ledger.clear(&mut self.entries_used);
        self.hw.reset();
        self.epoch_in_interval = 0;
        self.blackhole_until.clear();
        self.hw_down_vms.clear();
        self.xids.restart(incarnation);
        cx.inc(cx.c.chaos_ctrl_restarts);
        self.recon.begin_recovery(&mut self.xids, cx);
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{self, Msg, World};
    use super::*;

    /// One kind of `Error` reply, three possible addressees — an install, the
    /// liveness probe, the recovery dump — told apart by xid alone.
    #[test]
    fn an_error_reaches_only_the_request_it_names() {
        let ctrl = CtrlPlaneConfig {
            probe_interval: RECONCILE_INTERVAL,
            ..CtrlPlaneConfig::default()
        };
        let mut w = World::new(1, ctrl);
        w.fire(Timer::Epoch);
        w.settle();
        w.report([10_000.0, 1_000.0]);
        w.fire(Timer::Decide);
        w.fire(Timer::Probe);
        let [Msg::ToTor(CtrlRequest::InstallTorRules { xid: install, .. }), Msg::ToTor(CtrlRequest::Probe { xid: probe })] =
            w.wire[..]
        else {
            panic!(
                "expected an install and a probe in flight, got {:?}",
                w.wire
            )
        };
        w.wire.clear();
        let error = |xid| {
            let reason = "tor rebooting";
            Msg::ToCtl(CtrlReply::Error { xid, reason })
        };

        // To the probe: the ToR is down at once; the install is untouched.
        let outs = w.hand_over(error(probe));
        assert_eq!(outs, [CtrlOut::Disarm(Timer::ProbeTimeout(probe))]);
        assert!(w.ctl.tor_believed_down());
        assert_eq!(w.ctl.entries_used, 1);
        assert_eq!(w.b.count("ctrl.install_failures"), 0);

        // To the install: rolled back, and only the (empty) demotions go out.
        let outs = w.hand_over(error(install));
        let timeout = Timer::InstallTimeout {
            xid: install,
            attempt: 0,
        };
        let demote_only = OffloadDecision {
            interval: 0,
            offload: Vec::new(),
            demote: Vec::new(),
            hw_agg_bps: Vec::new(),
        };
        assert_eq!(
            outs,
            [CtrlOut::Disarm(timeout), CtrlOut::Broadcast(demote_only)]
        );
        assert_eq!(w.ctl.entries_used, 0);
        assert_eq!(w.b.count("ctrl.install_failures"), 1);
        assert_eq!(w.hand_over(error(install)), [], "a copy finds nothing");

        // To the recovery dump: nothing but patience — the reconcile cadence
        // asks again.
        w.restart();
        let [Msg::ToTor(CtrlRequest::DumpTorRules { xid: recovery })] = w.wire[..] else {
            panic!("expected the recovery dump in flight, got {:?}", w.wire)
        };
        w.wire.clear();
        assert_eq!(w.hand_over(error(recovery)), []);
        assert!(w.ctl.is_recovering());
        assert_eq!(w.b.count("ctrl.install_failures"), 1);
        w.fire(Timer::Reconcile);
        assert!(matches!(
            w.wire[..],
            [Msg::ToTor(CtrlRequest::DumpTorRules { .. })]
        ));
        assert_eq!(w.b.count("ctrl.reconcile_sweeps"), 0, "not a sweep yet");
    }

    /// What a stray message must not move: the ledger, the open requests,
    /// the ToR generation believed and every counter.
    #[derive(Debug, PartialEq)]
    struct State {
        offloaded: Vec<FlowAggregate>,
        entries_used: usize,
        idle: [bool; 3],
        generation: u64,
        counters: Vec<(String, u64)>,
    }

    fn state(w: &World) -> State {
        let mut offloaded: Vec<FlowAggregate> = w.ctl.offloaded().iter().copied().collect();
        offloaded.sort();
        let reg = &w.b.tel.registry;
        State {
            offloaded,
            entries_used: w.ctl.entries_used,
            idle: [
                w.ctl.txns.is_idle(),
                w.ctl.recon.is_idle(),
                !w.ctl.health.awaits_probe(),
            ],
            generation: w.ctl.tor_generation(),
            counters: reg.counters().map(|(n, v)| (n.to_string(), v)).collect(),
        }
    }

    /// Replies to requests never sent, a second Ack, and the messages the
    /// controller only sends: each is dropped without a trace. A reply to a
    /// request never sent proves nothing even when it names a newer boot
    /// generation: it must not re-baseline the generation, force a sweep or
    /// count a reboot.
    #[test]
    fn stray_control_messages_change_nothing_and_send_nothing() {
        let ctrl = CtrlPlaneConfig {
            probe_interval: RECONCILE_INTERVAL,
            ..CtrlPlaneConfig::default()
        };
        let mut w = World::new(1, ctrl);
        w.fire(Timer::Epoch);
        w.settle();
        w.report([10_000.0, 1_000.0]);
        w.fire(Timer::Decide);
        let [Msg::ToTor(CtrlRequest::InstallTorRules { xid: install, .. })] = w.wire[..] else {
            panic!("expected an install in flight, got {:?}", w.wire)
        };
        w.settle();
        assert_eq!(w.ctl.entries_used, 1);
        // A probe stays awaited: its reply is lost.
        w.fire(Timer::Probe);
        w.wire.clear();

        // The xid space counts up from 1 and has not reached this.
        let never = 1 << 30;
        let generation = w.ctl.tor_generation();
        let stray = [
            CtrlReply::FlowStats {
                xid: never,
                entries: Vec::new(),
            },
            CtrlReply::TorFlowStats {
                xid: never,
                entries: Vec::new(),
            },
            CtrlReply::TorRuleDump {
                xid: never,
                rules: Vec::new(),
                boot_generation: generation,
            },
            CtrlReply::ProbeReply {
                xid: never,
                boot_generation: generation,
            },
            CtrlReply::TorRuleDump {
                xid: never,
                rules: Vec::new(),
                boot_generation: generation + 1,
            },
            CtrlReply::ProbeReply {
                xid: never,
                boot_generation: generation + 1,
            },
            CtrlReply::Ack { xid: never },
            CtrlReply::Error {
                xid: never,
                reason: "tor rebooting",
            },
            CtrlReply::Ack { xid: install },
        ]
        .map(Ctl::Reply);
        let not_for_us = [
            Ctl::Req(CtrlRequest::Probe { xid: never }),
            Ctl::Decision(OffloadDecision {
                interval: 1,
                offload: vec![testkit::agg(2)],
                demote: vec![testkit::agg(1)],
                hw_agg_bps: Vec::new(),
            }),
        ];
        let before = state(&w);
        for body in stray.into_iter().chain(not_for_us) {
            let shown = format!("{body:?}");
            assert_eq!(w.input(CtrlIn::Msg(body)), [], "{shown}");
            assert_eq!(state(&w), before, "{shown}");
        }
    }
}
