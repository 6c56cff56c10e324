//! The per-server **local controller** (paper §4.3, §5.2: "a python script
//! that queries the OVS datapath for active flow statistics twice within a
//! period of t = 100 ms ... repeated once every T seconds ... aggregated for
//! N epochs" and sent to the TOR controller).
//!
//! Responsibilities:
//! * run the Measurement Engine against the server's vswitch stats;
//! * ship demand reports to the TOR controller each control interval;
//! * on decisions, program the flow placers of co-resident VMs over the
//!   OpenFlow-style interface;
//! * recompute the FPS rate split for each limited VM and push the VIF half
//!   to the vswitch and the hardware half to the ToR (§4.1.4).

use std::collections::BTreeMap;

use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::ctrl::{
    Ctl, CtrlReply, CtrlRequest, DemandReport, Dir, HwPathReport, OffloadDecision,
};
use fastrak_net::event::{Event, NetCtx};
use fastrak_net::flow::FlowAggregate;
use fastrak_net::packet::PathTag;
use fastrak_sim::kernel::{Api, Node, NodeId};
use fastrak_sim::time::SimDuration;
use fastrak_sim::FxHashMap;

use crate::fps::{fps_split, is_maxed, FpsInput};
use crate::me::{AggDemand, MeasurementEngine};

/// Timer tags.
mod tags {
    /// Start of an epoch: take sample A.
    pub const EPOCH: u64 = 1;
    /// `t` later: take sample B.
    pub const SAMPLE_B: u64 = 2;
}

/// Measurement timing (paper §5.2 defaults).
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Gap between the two samples of an epoch (`t`, 100 ms).
    pub sample_gap: SimDuration,
    /// Epoch period (`T`; the paper uses 5 s and 0.5 s).
    pub epoch: SimDuration,
    /// Epochs per control interval (`N`, 2).
    pub epochs_per_interval: u32,
    /// Control intervals of history (`M`, 3).
    pub history_intervals: u32,
}

impl Timing {
    /// T = 5 s (the paper's coarse setting).
    pub fn coarse() -> Timing {
        Timing {
            sample_gap: SimDuration::from_millis(100),
            epoch: SimDuration::from_secs(5),
            epochs_per_interval: 2,
            history_intervals: 3,
        }
    }

    /// T = 0.5 s (the paper's fine setting).
    pub fn fine() -> Timing {
        Timing {
            epoch: SimDuration::from_millis(500),
            ..Timing::coarse()
        }
    }

    /// Refuse a timing the controllers cannot run, naming the field: a zero
    /// epoch re-arms its timer at the same instant forever, zero epochs or
    /// intervals leave the measurement engine no history, and a sample gap
    /// of an epoch or more takes the next epoch's sample A before this
    /// epoch's sample B.
    pub fn validate(&self) -> Result<(), String> {
        let zero = SimDuration::ZERO;
        if self.epoch == zero {
            return Err("Timing.epoch must be > 0".into());
        }
        if self.sample_gap == zero || self.sample_gap >= self.epoch {
            return Err(format!(
                "Timing.sample_gap ({}) must be > 0 and shorter than Timing.epoch ({})",
                self.sample_gap, self.epoch
            ));
        }
        if self.epochs_per_interval == 0 {
            return Err("Timing.epochs_per_interval must be > 0".into());
        }
        if self.history_intervals == 0 {
            return Err("Timing.history_intervals must be > 0".into());
        }
        Ok(())
    }
}

/// Per-VM rate limit configuration (what the tenant paid for).
#[derive(Debug, Clone, Copy)]
pub struct VmLimit {
    /// Owning tenant.
    pub tenant: TenantId,
    /// The VM.
    pub vm_ip: Ip,
    /// Total egress limit (bits/sec), if limited.
    pub egress_bps: Option<u64>,
    /// Total ingress limit (bits/sec), if limited.
    pub ingress_bps: Option<u64>,
}

/// Local controller configuration.
#[derive(Clone)]
pub struct LocalControllerConfig {
    /// The server this controller manages.
    pub server: NodeId,
    /// That server's provider IP (report identity).
    pub server_ip: Ip,
    /// The TOR controller node.
    pub tor_ctrl: NodeId,
    /// The ToR switch node (for hardware rate-limit installs).
    pub tor: NodeId,
    /// Measurement timing.
    pub timing: Timing,
    /// VMs hosted on the server: (tenant, ip).
    pub vms: Vec<(TenantId, Ip)>,
    /// Rate limits to enforce.
    pub limits: Vec<VmLimit>,
}

/// The local controller node.
#[derive(Clone)]
pub struct LocalController {
    cfg: LocalControllerConfig,
    /// Cached display name (`Node::name` returns a borrow, not an allocation).
    name: String,
    me: MeasurementEngine,
    epoch_in_interval: u32,
    interval: u64,
    next_xid: u64,
    /// xid → phase (A/B) so async stat replies land in the right sample.
    pending: FxHashMap<u64, Phase>,
    /// Latest hardware rates per aggregate from the TOR controller. Ordered:
    /// [`LocalController::vm_demand`] sums them, and float addition is not
    /// associative.
    hw_rates: BTreeMap<FlowAggregate, f64>,
    /// Last configured splits per (tenant, vm, dir): (sw_bps, hw_bps).
    last_split: FxHashMap<(TenantId, Ip, u8), (u64, u64)>,
    /// Placer rules currently installed: aggregate → installed on which VMs.
    installed: FxHashMap<FlowAggregate, Vec<(TenantId, Ip)>>,
    /// Last observed liveness of the server's SR-IOV hardware path (polled
    /// each measurement epoch; reports to the TOR controller only on
    /// transitions, so a healthy path generates no control traffic).
    hw_path_down: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    A,
    B,
}

impl LocalController {
    /// Build; call [`LocalController::boot`] (or post an EPOCH timer) after
    /// adding to the kernel.
    pub fn new(cfg: LocalControllerConfig) -> LocalController {
        let hist = (cfg.timing.epochs_per_interval * cfg.timing.history_intervals) as usize;
        LocalController {
            name: format!("local-ctrl@{}", cfg.server_ip),
            me: MeasurementEngine::new(cfg.timing.sample_gap.as_secs_f64(), hist),
            epoch_in_interval: 0,
            interval: 0,
            next_xid: 1,
            pending: FxHashMap::default(),
            hw_rates: BTreeMap::new(),
            last_split: FxHashMap::default(),
            installed: FxHashMap::default(),
            hw_path_down: false,
            cfg,
        }
    }

    /// The first event to post: start the epoch loop at `at`.
    pub fn boot_event() -> Event {
        Event::Timer {
            tag: tags::EPOCH,
            a: 0,
            b: 0,
        }
    }

    fn request_dump(&mut self, api: &mut Api<'_, Event, NetCtx>, phase: Phase) {
        let xid = self.next_xid;
        self.next_xid += 1;
        self.pending.insert(xid, phase);
        api.send(
            self.cfg.server,
            SimDuration::from_micros(20),
            Event::ctl(api.self_id, Ctl::Req(CtrlRequest::DumpFlowStats { xid })),
        );
    }

    /// Poll the server's SR-IOV path liveness (the NIC driver knows
    /// immediately; the epoch cadence models the health-check loop) and
    /// report transitions to the TOR controller so it can demote / readmit
    /// this server's offloaded aggregates.
    fn poll_hw_path(&mut self, api: &mut Api<'_, Event, NetCtx>) {
        let down = api.chaos_vf_down_at(self.cfg.server);
        if down == self.hw_path_down {
            return;
        }
        self.hw_path_down = down;
        api.send(
            self.cfg.tor_ctrl,
            SimDuration::from_micros(100),
            Event::ctl(
                api.self_id,
                Ctl::HwPath(HwPathReport {
                    server_ip: self.cfg.server_ip,
                    up: !down,
                    vms: self.cfg.vms.clone(),
                }),
            ),
        );
    }

    fn on_sample_b_done(&mut self, api: &mut Api<'_, Event, NetCtx>) {
        self.epoch_in_interval += 1;
        if self.epoch_in_interval >= self.cfg.timing.epochs_per_interval {
            self.epoch_in_interval = 0;
            self.interval += 1;
            let report = DemandReport {
                interval: self.interval,
                server_ip: self.cfg.server_ip,
                entries: self.me.report(),
            };
            api.send(
                self.cfg.tor_ctrl,
                SimDuration::from_micros(100),
                Event::ctl(api.self_id, Ctl::Report(report)),
            );
        }
    }

    /// Which hosted VMs need a placer rule for this aggregate?
    ///
    /// * `SrcApp` — only the VM that *is* the source endpoint;
    /// * `DstApp` — every hosted VM of the tenant (any of them may send to
    ///   the destination endpoint).
    fn placer_targets(&self, agg: &FlowAggregate) -> Vec<(TenantId, Ip)> {
        match *agg {
            FlowAggregate::SrcApp { tenant, ip, .. } => self
                .cfg
                .vms
                .iter()
                .copied()
                .filter(|&(t, vip)| t == tenant && vip == ip)
                .collect(),
            FlowAggregate::DstApp { tenant, .. } => self
                .cfg
                .vms
                .iter()
                .copied()
                .filter(|&(t, _)| t == tenant)
                .collect(),
        }
    }

    fn apply_decision(&mut self, api: &mut Api<'_, Event, NetCtx>, d: OffloadDecision) {
        self.hw_rates = d.hw_agg_bps.iter().copied().collect();
        // Demotions first: pull traffic back into software.
        for agg in &d.demote {
            if let Some(targets) = self.installed.remove(agg) {
                for (tenant, vm_ip) in targets {
                    api.send(
                        self.cfg.server,
                        SimDuration::from_micros(20),
                        Event::ctl(
                            api.self_id,
                            Ctl::Req(CtrlRequest::RemovePlacerRule {
                                vm_ip,
                                tenant,
                                spec: agg.to_spec(),
                            }),
                        ),
                    );
                }
            }
            self.hw_rates.remove(agg);
        }
        // Then offloads: ToR rules are already in place (the TOR controller
        // installs before broadcasting), so flipping placers is safe.
        for agg in &d.offload {
            let targets = self.placer_targets(agg);
            for &(tenant, vm_ip) in &targets {
                api.send(
                    self.cfg.server,
                    SimDuration::from_micros(20),
                    Event::ctl(
                        api.self_id,
                        Ctl::Req(CtrlRequest::InstallPlacerRule {
                            vm_ip,
                            tenant,
                            spec: agg.to_spec(),
                            priority: 10,
                            path: PathTag::SrIov,
                        }),
                    ),
                );
            }
            if !targets.is_empty() {
                self.installed.insert(*agg, targets);
            }
        }
        self.refresh_rate_splits(api);
    }

    /// Per-VM software/hardware demand, from the ME report's `rows` + hw
    /// rates.
    fn vm_demand(&self, rows: &[AggDemand], tenant: TenantId, vm_ip: Ip, dir: Dir) -> (f64, f64) {
        let mut sw = 0.0;
        let mut hw = 0.0;
        let owned = |agg: &FlowAggregate| match (*agg, dir) {
            (FlowAggregate::SrcApp { tenant: t, ip, .. }, Dir::Egress) => {
                t == tenant && ip == vm_ip
            }
            (FlowAggregate::DstApp { tenant: t, ip, .. }, Dir::Ingress) => {
                t == tenant && ip == vm_ip
            }
            _ => false,
        };
        for d in rows {
            if owned(&d.agg) {
                sw += d.bps * 8.0; // ME reports bytes/sec; demand in bits/sec
            }
        }
        for (agg, bps) in &self.hw_rates {
            if owned(agg) {
                hw += bps;
            }
        }
        (sw, hw)
    }

    fn refresh_rate_splits(&mut self, api: &mut Api<'_, Event, NetCtx>) {
        let limits = self.cfg.limits.clone();
        // Nothing measures during a refresh: one report serves every limit.
        let rows = self.me.report();
        for l in limits {
            for (dir, dtag, total) in [
                (Dir::Egress, 0u8, l.egress_bps),
                (Dir::Ingress, 1u8, l.ingress_bps),
            ] {
                let Some(total) = total else { continue };
                let (sw_demand, hw_demand) = self.vm_demand(&rows, l.tenant, l.vm_ip, dir);
                let prev = self.last_split.get(&(l.tenant, l.vm_ip, dtag)).copied();
                let (sw_maxed, hw_maxed) = match prev {
                    Some((ps, ph)) => {
                        (is_maxed(sw_demand, ps, 0.95), is_maxed(hw_demand, ph, 0.95))
                    }
                    None => (false, false),
                };
                let split = fps_split(FpsInput {
                    limit_bps: total,
                    sw_demand_bps: sw_demand,
                    hw_demand_bps: hw_demand,
                    sw_maxed,
                    hw_maxed,
                });
                self.last_split
                    .insert((l.tenant, l.vm_ip, dtag), (split.sw_bps, split.hw_bps));
                api.send(
                    self.cfg.server,
                    SimDuration::from_micros(20),
                    Event::ctl(
                        api.self_id,
                        Ctl::Req(CtrlRequest::SetVifRate {
                            tenant: l.tenant,
                            vm_ip: l.vm_ip,
                            dir,
                            bps: split.sw_bps,
                        }),
                    ),
                );
                api.send(
                    self.cfg.tor,
                    SimDuration::from_micros(100),
                    Event::ctl(
                        api.self_id,
                        Ctl::Req(CtrlRequest::SetHwRate {
                            tenant: l.tenant,
                            vm_ip: l.vm_ip,
                            dir,
                            bps: split.hw_bps,
                        }),
                    ),
                );
            }
        }
    }

    /// Per-tenant (sw_bps, hw_bps) FPS-split totals over this server's
    /// rate-limited VMs, both directions summed — the deployment layer
    /// aggregates these across servers into the `ctrl.tenant.fps_*_bps`
    /// gauges (pull-model; sorted map so publication order is
    /// deterministic).
    pub fn tenant_fps_totals(&self) -> std::collections::BTreeMap<TenantId, (u64, u64)> {
        let mut per: std::collections::BTreeMap<TenantId, (u64, u64)> =
            std::collections::BTreeMap::new();
        for l in &self.cfg.limits {
            for d in [0u8, 1u8] {
                if let Some(&(sw, hw)) = self.last_split.get(&(l.tenant, l.vm_ip, d)) {
                    let e = per.entry(l.tenant).or_default();
                    e.0 += sw;
                    e.1 += hw;
                }
            }
        }
        per
    }

    /// Current split for a (tenant, vm, dir) — test/inspection hook.
    pub fn split_of(&self, tenant: TenantId, vm_ip: Ip, dir: Dir) -> Option<(u64, u64)> {
        let d = match dir {
            Dir::Egress => 0,
            Dir::Ingress => 1,
        };
        self.last_split.get(&(tenant, vm_ip, d)).copied()
    }
}

impl Node<Event, NetCtx> for LocalController {
    fn on_event(&mut self, ev: Event, api: &mut Api<'_, Event, NetCtx>) {
        match ev {
            Event::Timer {
                tag: tags::EPOCH, ..
            } => {
                self.poll_hw_path(api);
                self.request_dump(api, Phase::A);
                api.timer(
                    self.cfg.timing.sample_gap,
                    Event::Timer {
                        tag: tags::SAMPLE_B,
                        a: 0,
                        b: 0,
                    },
                );
                api.timer(self.cfg.timing.epoch, LocalController::boot_event());
            }
            Event::Timer {
                tag: tags::SAMPLE_B,
                ..
            } => {
                self.request_dump(api, Phase::B);
            }
            Event::Ctl(msg) => match msg.body {
                Ctl::Reply(CtrlReply::FlowStats { xid, entries }) => {
                    match self.pending.remove(&xid) {
                        Some(Phase::A) => self.me.epoch_sample_a(&entries),
                        Some(Phase::B) => {
                            self.me.epoch_sample_b(&entries);
                            self.on_sample_b_done(api);
                        }
                        None => {}
                    }
                }
                Ctl::Decision(d) => self.apply_decision(api, d),
                // Only the server's stats replies are addressed here; the
                // rest of the vocabulary flows between other nodes.
                Ctl::Reply(_)
                | Ctl::Req(_)
                | Ctl::Report(_)
                | Ctl::Migration(_)
                | Ctl::HwPath(_) => {}
            },
            _ => {}
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn fork(&self) -> Option<Self> {
        Some(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use fastrak_net::ctrl::MigrationPrepare;
    use fastrak_sim::kernel::Kernel;

    const T: TenantId = TenantId(1);
    const VM: Ip = Ip::new(10, 0, 0, 1);

    /// A local controller alone in a kernel, its own server, ToR and TOR
    /// controller: what it sends comes back to it as a message it ignores.
    /// Its one VM is limited to 10 Gb/s each way.
    fn lone() -> (Kernel<Event, NetCtx>, NodeId) {
        let mut k = Kernel::new(NetCtx::new(), 1);
        let id = k.add_node(LocalController::new(LocalControllerConfig {
            server: 0,
            server_ip: Ip::provider_server(0, 1),
            tor_ctrl: 0,
            tor: 0,
            timing: Timing::fine(),
            vms: vec![(T, VM)],
            limits: vec![VmLimit {
                tenant: T,
                vm_ip: VM,
                egress_bps: Some(10_000_000_000),
                ingress_bps: Some(10_000_000_000),
            }],
        }));
        assert_eq!(id, 0);
        (k, id)
    }

    fn deliver(k: &mut Kernel<Event, NetCtx>, id: NodeId, body: Ctl) {
        k.post(id, k.now(), Event::ctl(id, body));
        k.run_to_completion();
    }

    #[test]
    fn hw_rates_sum_in_one_order_whatever_the_decision_lists() {
        // 1e16 + 1 rounds back to 1e16, so the sum depends on the order
        // the three rates are added in.
        let rate = |i: u16| [1e16, 1.0, 1.0][usize::from(i)];
        let agg = |port| FlowAggregate::SrcApp {
            tenant: T,
            ip: VM,
            port,
        };
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut seen = BTreeSet::new();
        for order in orders.iter().cycle().take(30) {
            let (mut k, id) = lone();
            let d = OffloadDecision {
                interval: 1,
                offload: Vec::new(),
                demote: Vec::new(),
                hw_agg_bps: order.iter().map(|&i| (agg(i), rate(i))).collect(),
            };
            deliver(&mut k, id, Ctl::Decision(d));
            let l = k.node::<LocalController>(id);
            let (_, hw) = l.vm_demand(&l.me.report(), T, VM, Dir::Egress);
            seen.insert((hw.to_bits(), l.split_of(T, VM, Dir::Egress)));
        }
        assert_eq!(seen.len(), 1, "{seen:?}");
    }

    #[test]
    fn control_messages_a_local_controller_does_not_handle_change_nothing() {
        let (mut k, id) = lone();
        let server_ip = Ip::provider_server(0, 1);
        let stray = [
            Ctl::Req(CtrlRequest::DumpFlowStats { xid: 1 }),
            // A stats reply to a dump never asked for, and replies that
            // only the TOR controller gets.
            Ctl::Reply(CtrlReply::FlowStats {
                xid: 1,
                entries: Vec::new(),
            }),
            Ctl::Reply(CtrlReply::Ack { xid: 1 }),
            Ctl::Report(DemandReport {
                interval: 1,
                server_ip,
                entries: Vec::new(),
            }),
            Ctl::Migration(MigrationPrepare {
                tenant: T,
                vm_ip: VM,
            }),
            Ctl::HwPath(HwPathReport {
                server_ip,
                up: false,
                vms: vec![(T, VM)],
            }),
        ];
        let n = stray.len() as u64;
        for body in stray {
            deliver(&mut k, id, body);
        }
        assert_eq!(k.events_processed(), n, "the controller sent something");
        let l = k.node::<LocalController>(id);
        assert!(l.pending.is_empty() && l.hw_rates.is_empty());
        assert!(l.last_split.is_empty() && l.installed.is_empty());
        assert_eq!((l.interval, l.epoch_in_interval), (0, 0));
        assert!(l.me.report().is_empty());
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// `timing` is refused, and the reason names `field`.
    fn refused(timing: Timing, field: &str) {
        let err = timing.validate().expect_err(field);
        assert!(err.starts_with(field), "{err}");
    }

    #[test]
    fn every_timing_in_use_is_valid() {
        let fast = |gap, epoch| Timing {
            sample_gap: ms(gap),
            epoch: ms(epoch),
            epochs_per_interval: 2,
            history_intervals: 2,
        };
        let one_epoch = Timing {
            epochs_per_interval: 1,
            ..Timing::fine()
        };
        // fine, coarse, tenant_matrix, the benchmark's flow_scale, testkit.
        for t in [
            Timing::fine(),
            Timing::coarse(),
            fast(50, 250),
            fast(5, 20),
            one_epoch,
        ] {
            assert_eq!(t.validate(), Ok(()), "{t:?}");
        }
    }

    #[test]
    fn a_zero_epoch_is_refused() {
        let t = Timing {
            epoch: SimDuration::ZERO,
            ..Timing::fine()
        };
        refused(t, "Timing.epoch");
    }

    #[test]
    fn zero_epochs_per_interval_are_refused() {
        let t = Timing {
            epochs_per_interval: 0,
            ..Timing::fine()
        };
        refused(t, "Timing.epochs_per_interval");
    }

    #[test]
    fn zero_history_intervals_are_refused() {
        let t = Timing {
            history_intervals: 0,
            ..Timing::fine()
        };
        refused(t, "Timing.history_intervals");
    }

    #[test]
    fn a_sample_gap_of_an_epoch_or_more_is_refused() {
        for gap in [ms(500), ms(501), SimDuration::ZERO] {
            let t = Timing {
                sample_gap: gap,
                ..Timing::fine()
            };
            refused(t, "Timing.sample_gap");
        }
    }
}
