//! The Top-of-Rack switch (paper §4.1.3, §4.2).
//!
//! An L3 switch with Virtual Routing and Forwarding (VRF) tables. FasTrak
//! uses exactly the features commodity L3 ToRs already have:
//!
//! * **VLAN → VRF demux** on frames from servers' SR-IOV ports; the VLAN
//!   tag identifies the tenant, selecting the VRF to consult.
//! * **ACLs in the VRF**: explicit `allow` rules for offloaded flows;
//!   everything else hits the default rule and is **dropped** — a malicious
//!   VM pushing disallowed traffic through its VF gets nothing (§4.1.3).
//! * **GRE tunneling**: the tunnel destination is the *destination ToR*; the
//!   32-bit GRE key carries the tenant ID.
//! * **QoS queues** selected by VRF rules (modelled as DSCP marking plus
//!   per-class counters; queueing is FIFO per port).
//! * **Rate limiters** for the hardware split of per-VM limits (§4.1.4).
//! * **Bounded fast-path memory**: rule installation fails when the TCAM
//!   budget is exhausted — the central constraint FasTrak's decision engine
//!   manages.

use fastrak_net::addr::{Ip, TenantId, VlanId};
use fastrak_net::ctrl::{Ctl, CtrlReply, CtrlRequest, Dir, TorRule, TorStatEntry};
use fastrak_net::event::{Event, NetCtx};
use fastrak_net::flow::FlowSpec;
use fastrak_net::packet::{Encap, Packet};
use fastrak_net::port::EgressPort;
use fastrak_net::rules::{Action, QosClass};
use fastrak_net::tables::{TableError, WildcardTable};
use fastrak_net::tunnel::TunnelMapping;
use fastrak_sim::kernel::{Api, Node, NodeId};
use fastrak_sim::tbf::TokenBucket;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_sim::FxHashMap;

/// Action attached to a VRF fast-path rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VrfAction {
    /// Allow or deny.
    pub action: Action,
    /// GRE tunnel target when the destination is behind a remote ToR.
    pub tunnel: Option<TunnelMapping>,
    /// QoS class for matching traffic.
    pub qos: Option<QosClass>,
}

/// Where a locally attached VM's hardware path terminates: which ToR port
/// and what VLAN tag to use toward the server NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwDest {
    /// ToR port wired to the server's SR-IOV NIC port.
    pub port: usize,
    /// Tenant VLAN on that server.
    pub vlan: VlanId,
}

// Properties of the testbed's Cisco Nexus 5596UP that no world varies; its
// ports are `fastrak_net::port`'s 10 GbE links.
/// Number of ports.
pub const PORTS: usize = 96;
/// Cut-through switching latency, added before a frame queues for its port.
const SWITCHING_LATENCY: SimDuration = SimDuration::from_micros(1);
/// Switch control-plane op latency (rule install via switch agent).
const CTRL_LATENCY: SimDuration = SimDuration(200_000);

/// ToR configuration.
#[derive(Debug, Clone)]
pub struct TorConfig {
    /// Name for traces.
    pub name: String,
    /// Provider IP (GRE tunnel endpoint).
    pub provider_ip: Ip,
    /// Fast-path (TCAM/VRF) rule budget across all tenants.
    pub fastpath_capacity: usize,
    /// When set, CE-mark (RFC 3168 RED-style) any admitted ECT frame that
    /// would wait longer than this in a port's output queue — the switch
    /// half of the DCTCP deployment model (threshold K). Read per frame:
    /// experiments set it on a ToR already built.
    pub ecn_mark_threshold: Option<SimDuration>,
}

impl TorConfig {
    /// Defaults mirroring the testbed's Cisco Nexus 5596UP (96 × 10 Gbps).
    pub fn testbed(name: impl Into<String>, rack: u8) -> TorConfig {
        TorConfig {
            name: name.into(),
            provider_ip: Ip::provider_tor(rack),
            fastpath_capacity: 2048,
            ecn_mark_threshold: None,
        }
    }
}

/// ToR statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TorStats {
    /// Frames dropped by the default-deny ACL.
    pub acl_drops: u64,
    /// Frames dropped for lack of a host route / port backlog.
    pub fwd_drops: u64,
    /// Frames switched on the hardware (VRF) path.
    pub hw_frames: u64,
    /// Frames switched on the plain L2/L3 path.
    pub sw_frames: u64,
    /// GRE encapsulations performed.
    pub gre_encaps: u64,
    /// GRE decapsulations performed.
    pub gre_decaps: u64,
    /// `InstallTorRules` batches applied atomically and acked.
    pub install_batches_ok: u64,
    /// `InstallTorRules` batches rejected (fault-forced or memory-full);
    /// every rejection rolled back this batch's fresh installs.
    pub install_batches_rejected: u64,
    /// Individual ACL rules installed (idempotent re-installs excluded).
    pub rules_installed: u64,
    /// Individual ACL rules removed (controller demotes + rollbacks).
    pub rules_removed: u64,
}

/// What a port is wired to.
#[derive(Debug, Clone, Copy)]
struct PortWire {
    peer: NodeId,
    peer_port: usize,
}

/// The ToR switch node.
#[derive(Clone)]
pub struct Tor {
    /// Static configuration.
    pub cfg: TorConfig,
    wires: Vec<Option<PortWire>>,
    /// The output queue of each port.
    ports: Vec<EgressPort>,
    /// Per-tenant VRF tables (share the global fast-path budget).
    vrfs: FxHashMap<TenantId, WildcardTable<VrfAction>>,
    /// VLAN → tenant mapping (VRF selection).
    vlan_tenant: FxHashMap<u16, TenantId>,
    /// Locally attached hardware destinations: (tenant, vm ip) → port+vlan.
    hw_dests: FxHashMap<(TenantId, Ip), HwDest>,
    /// Software-side destinations: provider server IP → port; used for
    /// VXLAN outers and as the L2 table for untunneled tenant traffic.
    ip_ports: FxHashMap<Ip, usize>,
    /// L2 table for untunneled tenant traffic (baseline configs).
    l2_ports: FxHashMap<(TenantId, Ip), usize>,
    /// Hardware rate limiters: (tenant, vm ip, dir) → bucket.
    hw_rates: FxHashMap<(TenantId, Ip, Dir), TokenBucket>,
    /// GRE tunnel mappings held in the VRFs (paper §4.1.3): destination
    /// tenant VM → provider location. Counts against fast-path memory.
    tunnel_dir: FxHashMap<(TenantId, Ip), TunnelMapping>,
    /// Per-QoS-class frame counters.
    pub qos_counters: FxHashMap<u8, u64>,
    fastpath_used: usize,
    /// Boot generation: increments every time a chaos-scripted reboot wipes
    /// the hardware state. Echoed in `TorRuleDump`/`ProbeReply` so the
    /// controller can detect reboots and discard pre-reboot dumps.
    boot_epoch: u64,
    /// Public counters.
    pub stats: TorStats,
}

impl Tor {
    /// Build a ToR.
    pub fn new(cfg: TorConfig) -> Tor {
        Tor {
            wires: vec![None; PORTS],
            ports: vec![EgressPort::default(); PORTS],
            vrfs: FxHashMap::default(),
            vlan_tenant: FxHashMap::default(),
            hw_dests: FxHashMap::default(),
            ip_ports: FxHashMap::default(),
            l2_ports: FxHashMap::default(),
            hw_rates: FxHashMap::default(),
            tunnel_dir: FxHashMap::default(),
            qos_counters: FxHashMap::default(),
            fastpath_used: 0,
            boot_epoch: 0,
            stats: TorStats::default(),
            cfg,
        }
    }

    /// Observe the chaos plane's boot epoch; on change, model the reboot:
    /// everything a power cycle loses is wiped — VRF rule tables (with
    /// their per-rule flow counters), the GRE tunnel directory, hardware
    /// rate limiters, QoS counters, fast-path occupancy, and per-port
    /// serialization state. Management-plane configuration (port wiring,
    /// VLAN→tenant mapping, destination tables) survives: it reloads from
    /// the management network at boot, exactly like a real ToR's startup
    /// config.
    fn maybe_reboot(&mut self, api: &mut Api<'_, Event, NetCtx>) {
        let epoch = api.chaos_tor_boot_epoch();
        if epoch <= self.boot_epoch {
            return;
        }
        self.vrfs.clear();
        self.tunnel_dir.clear();
        self.hw_rates.clear();
        self.qos_counters.clear();
        self.fastpath_used = 0;
        self.ports.iter_mut().for_each(EgressPort::drain);
        self.boot_epoch = epoch;
    }

    // ------------------------------------------------------------ wiring --

    /// Wire `port` to a neighbour's ingress port.
    pub fn wire_port(&mut self, port: usize, peer: NodeId, peer_port: usize) {
        self.wires[port] = Some(PortWire { peer, peer_port });
    }

    /// Map a VLAN to its tenant (VRF selection).
    pub fn map_vlan(&mut self, vlan: VlanId, tenant: TenantId) {
        self.vlan_tenant.insert(vlan.0, tenant);
    }

    /// Register a locally attached VM's hardware destination.
    pub fn add_hw_dest(&mut self, tenant: TenantId, vm_ip: Ip, dest: HwDest) {
        self.hw_dests.insert((tenant, vm_ip), dest);
    }

    /// Register a provider-IP route (server or remote ToR) out a port.
    pub fn add_ip_route(&mut self, ip: Ip, port: usize) {
        self.ip_ports.insert(ip, port);
    }

    /// Register an L2 destination for untunneled tenant traffic.
    pub fn add_l2_route(&mut self, tenant: TenantId, vm_ip: Ip, port: usize) {
        self.l2_ports.insert((tenant, vm_ip), port);
    }

    // --------------------------------------------------------- fast path --

    /// Remaining fast-path rule budget.
    pub fn fastpath_free(&self) -> usize {
        self.cfg.fastpath_capacity - self.fastpath_used
    }

    /// Rules currently installed.
    pub fn fastpath_used(&self) -> usize {
        self.fastpath_used
    }

    /// Install one VRF rule; fails when fast-path memory is exhausted.
    pub fn install_rule(&mut self, rule: &TorRule) -> Result<(), TableError> {
        if self.fastpath_used >= self.cfg.fastpath_capacity {
            return Err(TableError::CapacityExhausted {
                capacity: self.cfg.fastpath_capacity,
            });
        }
        let vrf = self
            .vrfs
            .entry(rule.tenant)
            .or_insert_with(|| WildcardTable::new(usize::MAX >> 1));
        vrf.install(
            rule.spec,
            rule.priority,
            VrfAction {
                action: rule.action,
                tunnel: rule.tunnel,
                qos: rule.qos,
            },
        )?;
        self.fastpath_used += 1;
        self.stats.rules_installed += 1;
        Ok(())
    }

    /// Remove VRF rules matching (tenant, spec) exactly. Returns removed
    /// count.
    pub fn remove_rule(&mut self, tenant: TenantId, spec: &FlowSpec) -> usize {
        let Some(vrf) = self.vrfs.get_mut(&tenant) else {
            return 0;
        };
        let n = vrf.remove_spec(spec);
        self.fastpath_used -= n;
        self.stats.rules_removed += n as u64;
        n
    }

    /// Install a GRE tunnel mapping in the VRF fast path.
    pub fn install_tunnel(
        &mut self,
        tenant: TenantId,
        vm_ip: Ip,
        m: TunnelMapping,
    ) -> Result<(), TableError> {
        if self.fastpath_used >= self.cfg.fastpath_capacity {
            return Err(TableError::CapacityExhausted {
                capacity: self.cfg.fastpath_capacity,
            });
        }
        if self.tunnel_dir.insert((tenant, vm_ip), m).is_none() {
            self.fastpath_used += 1;
        }
        Ok(())
    }

    /// Remove a GRE tunnel mapping.
    pub fn remove_tunnel(&mut self, tenant: TenantId, vm_ip: Ip) -> bool {
        let removed = self.tunnel_dir.remove(&(tenant, vm_ip)).is_some();
        if removed {
            self.fastpath_used -= 1;
        }
        removed
    }

    /// True when an ACL rule with exactly this `(tenant, spec)` identity is
    /// installed. Lets `InstallTorRules` be idempotent: a retransmitted
    /// batch (retry after a delayed Ack) skips rules already present.
    pub fn has_rule(&self, tenant: TenantId, spec: &FlowSpec) -> bool {
        self.vrfs
            .get(&tenant)
            .is_some_and(|v| v.contains_spec(spec))
    }

    /// Number of ACL rules installed across all VRFs (excludes tunnel
    /// mappings, which also count against `fastpath_used`).
    pub fn acl_rules(&self) -> usize {
        self.vrfs.values().map(WildcardTable::len).sum()
    }

    /// Number of installed tunnel-directory mappings.
    pub fn tunnel_entries(&self) -> usize {
        self.tunnel_dir.len()
    }

    /// Identity of every installed ACL rule across VRFs (no counters); the
    /// TOR controller's reconciliation sweep compares this against its
    /// bookkeeping.
    pub fn dump_rule_identities(&self) -> Vec<(TenantId, FlowSpec)> {
        let mut out = Vec::new();
        for (&tenant, vrf) in &self.vrfs {
            for e in vrf.iter() {
                out.push((tenant, e.spec));
            }
        }
        out
    }

    /// Dump per-rule statistics across all VRFs.
    pub fn dump_rule_stats(&self) -> Vec<TorStatEntry> {
        let mut out = Vec::new();
        for (&tenant, vrf) in &self.vrfs {
            for e in vrf.iter() {
                out.push(TorStatEntry {
                    tenant,
                    spec: e.spec,
                    packets: e.stats.count,
                    bytes: e.stats.bytes,
                });
            }
        }
        out
    }

    /// Mirror switch counters and fast-path occupancy into the telemetry
    /// registry (pull model; called at collection time, never per-frame).
    pub fn publish_telemetry(&self, reg: &mut fastrak_telemetry::Registry) {
        let tor: &[(&str, &str)] = &[("tor", &self.cfg.name)];
        for (name, v) in [
            ("tor.acl_drops", self.stats.acl_drops),
            ("tor.fwd_drops", self.stats.fwd_drops),
            ("tor.hw_frames", self.stats.hw_frames),
            ("tor.sw_frames", self.stats.sw_frames),
            ("tor.gre_encaps", self.stats.gre_encaps),
            ("tor.gre_decaps", self.stats.gre_decaps),
            ("tor.install_batches_ok", self.stats.install_batches_ok),
            (
                "tor.install_batches_rejected",
                self.stats.install_batches_rejected,
            ),
            ("tor.rules_installed", self.stats.rules_installed),
            ("tor.rules_removed", self.stats.rules_removed),
            ("tor.ecn_marked", self.ecn_marked()),
        ] {
            let id = reg.counter(name, tor);
            reg.set_counter(id, v);
        }
        for (name, v) in [
            ("tor.fastpath.acl_rules", self.acl_rules() as f64),
            ("tor.fastpath.tunnel_entries", self.tunnel_entries() as f64),
            ("tor.fastpath.used", self.fastpath_used as f64),
            ("tor.fastpath.free", self.fastpath_free() as f64),
            ("tor.boot_generation", self.boot_epoch as f64),
        ] {
            let id = reg.gauge(name, tor);
            reg.gauge_set(id, v);
        }
    }

    /// ECT frames CE-marked in a port output queue (marked frames are
    /// admitted, never also counted as drops).
    pub fn ecn_marked(&self) -> u64 {
        self.ports.iter().map(EgressPort::marked).sum()
    }

    /// Configure a hardware rate limit.
    pub fn set_hw_rate(&mut self, tenant: TenantId, vm_ip: Ip, dir: Dir, bps: u64) {
        let tb = TokenBucket::for_rate(bps);
        self.hw_rates.insert((tenant, vm_ip, dir), tb);
    }

    fn hw_shape(
        &mut self,
        tenant: TenantId,
        vm_ip: Ip,
        dir: Dir,
        now: SimTime,
        bytes: u64,
    ) -> SimTime {
        match self.hw_rates.get_mut(&(tenant, vm_ip, dir)) {
            Some(tb) => tb.acquire(now, bytes),
            None => now,
        }
    }

    // ------------------------------------------------------- forwarding --

    /// Queue a frame on `port`'s output queue from `at` (a shaper's release
    /// time) plus the switching latency.
    fn send_out(
        &mut self,
        api: &mut Api<'_, Event, NetCtx>,
        port: usize,
        at: SimTime,
        mut pkt: Packet,
    ) {
        let Some(wire) = self.wires[port] else {
            self.stats.fwd_drops += 1;
            return;
        };
        let wire_bytes = pkt.wire_bytes_total();
        let Some(arrive) = self.ports[port].admit(
            at.max(api.now) + SWITCHING_LATENCY,
            wire_bytes,
            &mut pkt.ecn,
            self.cfg.ecn_mark_threshold,
        ) else {
            self.stats.fwd_drops += 1;
            return;
        };
        api.send_at(
            wire.peer,
            arrive,
            Event::Frame {
                port: wire.peer_port,
                pkt,
            },
        );
    }

    /// Queue a frame on the port routed to provider IP `ip` (a server or a
    /// remote ToR); no route is a forwarding drop.
    fn route_ip(&mut self, api: &mut Api<'_, Event, NetCtx>, ip: Ip, at: SimTime, pkt: Packet) {
        match self.ip_ports.get(&ip) {
            Some(&p) => self.send_out(api, p, at, pkt),
            None => self.stats.fwd_drops += 1,
        }
    }

    /// Frame from a server's SR-IOV port: VLAN → VRF, ACL, GRE encap or
    /// local hardware delivery (§4.2.1).
    fn on_hw_frame(&mut self, api: &mut Api<'_, Event, NetCtx>, mut pkt: Packet) {
        let Some(vlan) = pkt.outer_vlan() else {
            // Untagged frame on the hw side: not FasTrak traffic; drop.
            self.stats.acl_drops += 1;
            return;
        };
        let Some(&tenant) = self.vlan_tenant.get(&vlan) else {
            self.stats.acl_drops += 1;
            return;
        };
        if tenant != pkt.flow.tenant {
            // Spoofed tenant: the VLAN says otherwise. Drop.
            self.stats.acl_drops += 1;
            return;
        }
        pkt.decap(); // ToR removes the VLAN tag (§4.2.1)
        let wire = pkt.wire_bytes_total();
        let action = {
            let Some(vrf) = self.vrfs.get_mut(&tenant) else {
                self.stats.acl_drops += 1;
                return;
            };
            match vrf.lookup(&pkt.flow, wire) {
                Some(a) if a.action == Action::Allow => *a,
                // Default rule: deny (§4.1.3).
                _ => {
                    self.stats.acl_drops += 1;
                    return;
                }
            }
        };
        self.stats.hw_frames += 1;
        if let Some(QosClass(c)) = action.qos {
            *self.qos_counters.entry(c).or_insert(0) += 1;
        }
        // Egress hardware rate limit for the source VM.
        let at = self.hw_shape(tenant, pkt.flow.src_ip, Dir::Egress, api.now, wire);
        // Destination resolution: locally attached VMs first, then the VRF
        // tunnel directory, then a per-rule tunnel override.
        if self.hw_dests.contains_key(&(tenant, pkt.flow.dst_ip)) {
            self.deliver_hw_local(api, tenant, at, pkt);
            return;
        }
        let mapping = self
            .tunnel_dir
            .get(&(tenant, pkt.flow.dst_ip))
            .copied()
            .or(action.tunnel);
        match mapping {
            Some(m) if m.tor_ip != self.cfg.provider_ip => {
                // Remote: GRE-encapsulate to the destination ToR.
                pkt.encap(Encap::Gre {
                    key: tenant.0,
                    src: self.cfg.provider_ip,
                    dst: m.tor_ip,
                });
                self.stats.gre_encaps += 1;
                self.route_ip(api, m.tor_ip, at, pkt);
            }
            _ => {
                // No way to reach the destination on the hardware path.
                self.stats.fwd_drops += 1;
            }
        }
    }

    /// Deliver to a locally attached VM's VF: tag the tenant VLAN and send
    /// out the server's SR-IOV port (§4.2.2), applying the ingress hw limit.
    fn deliver_hw_local(
        &mut self,
        api: &mut Api<'_, Event, NetCtx>,
        tenant: TenantId,
        at: SimTime,
        mut pkt: Packet,
    ) {
        let wire = pkt.wire_bytes_total();
        let at = self.hw_shape(tenant, pkt.flow.dst_ip, Dir::Ingress, at, wire);
        let Some(&dest) = self.hw_dests.get(&(tenant, pkt.flow.dst_ip)) else {
            self.stats.fwd_drops += 1;
            return;
        };
        pkt.encap(Encap::Vlan(dest.vlan.0));
        self.send_out(api, dest.port, at, pkt);
    }

    /// Frame on the software side or from an uplink: GRE termination,
    /// VXLAN/IP routing, or L2 switching for untunneled tenant traffic.
    fn on_sw_frame(&mut self, api: &mut Api<'_, Event, NetCtx>, mut pkt: Packet) {
        match pkt.outer().copied() {
            Some(Encap::Gre { key, dst, .. }) => {
                if dst == self.cfg.provider_ip {
                    // Terminate: GRE key identifies the tenant VRF (§4.2.2).
                    pkt.decap();
                    self.stats.gre_decaps += 1;
                    let tenant = TenantId(key);
                    if tenant != pkt.flow.tenant {
                        self.stats.acl_drops += 1;
                        return;
                    }
                    let wire = pkt.wire_bytes_total();
                    let allowed = match self.vrfs.get_mut(&tenant) {
                        Some(vrf) => matches!(
                            vrf.lookup(&pkt.flow, wire),
                            Some(a) if a.action == Action::Allow
                        ),
                        None => false,
                    };
                    if !allowed {
                        self.stats.acl_drops += 1;
                        return;
                    }
                    self.stats.hw_frames += 1;
                    self.deliver_hw_local(api, tenant, api.now, pkt);
                } else {
                    // Transit GRE: forward toward the destination ToR.
                    self.route_ip(api, dst, api.now, pkt);
                }
            }
            Some(Encap::Vxlan { dst, .. }) => {
                // Software tunnel: route the outer provider IP.
                self.stats.sw_frames += 1;
                self.route_ip(api, dst, api.now, pkt);
            }
            _ => {
                // Untunneled tenant traffic (baseline configs): L2 switch on
                // (tenant, dst VM IP).
                self.stats.sw_frames += 1;
                match self.l2_ports.get(&(pkt.flow.tenant, pkt.flow.dst_ip)) {
                    Some(&p) => self.send_out(api, p, api.now, pkt),
                    None => self.stats.fwd_drops += 1,
                }
            }
        }
    }

    /// Serve one controller request; a correlated request gets the reply
    /// to send back. `dark`: the ToR is mid-reboot. `install_fault`: the
    /// fault plane rejects this request if it is a rule install.
    fn answer(&mut self, req: CtrlRequest, dark: bool, install_fault: bool) -> Option<CtrlReply> {
        if dark {
            // Mid-reboot: the management agent answers every correlated
            // request with a *definitive* error rather than silently acking
            // (or worse, acking an install into a table about to be wiped —
            // the controller's retries would then leak phantom
            // `entries_used`). Uncorrelated requests are dropped; the state
            // they would have touched is gone after the wipe anyway.
            let xid = match req {
                CtrlRequest::InstallTorRules { xid, .. } => {
                    self.stats.install_batches_rejected += 1;
                    xid
                }
                CtrlRequest::DumpFlowStats { xid }
                | CtrlRequest::DumpTorRules { xid }
                | CtrlRequest::Probe { xid } => xid,
                CtrlRequest::RemoveTorRules { .. }
                | CtrlRequest::SetHwRate { .. }
                | CtrlRequest::InstallPlacerRule { .. }
                | CtrlRequest::RemovePlacerRule { .. }
                | CtrlRequest::SetVifRate { .. } => return None,
            };
            let reason = "tor rebooting";
            return Some(CtrlReply::Error { xid, reason });
        }
        match req {
            CtrlRequest::DumpFlowStats { xid } => {
                let entries = self.dump_rule_stats();
                Some(CtrlReply::TorFlowStats { xid, entries })
            }
            CtrlRequest::InstallTorRules { rules, xid } => {
                Some(self.install_batch(&rules, xid, install_fault))
            }
            CtrlRequest::RemoveTorRules { rules } => {
                for (tenant, spec) in &rules {
                    self.remove_rule(*tenant, spec);
                }
                None
            }
            CtrlRequest::DumpTorRules { xid } => Some(CtrlReply::TorRuleDump {
                xid,
                rules: self.dump_rule_identities(),
                boot_generation: self.boot_epoch,
            }),
            CtrlRequest::Probe { xid } => Some(CtrlReply::ProbeReply {
                xid,
                boot_generation: self.boot_epoch,
            }),
            CtrlRequest::SetHwRate {
                tenant,
                vm_ip,
                dir,
                bps,
            } => {
                self.set_hw_rate(tenant, vm_ip, dir, bps);
                None
            }
            // Server-side requests: not ours.
            CtrlRequest::InstallPlacerRule { .. }
            | CtrlRequest::RemovePlacerRule { .. }
            | CtrlRequest::SetVifRate { .. } => None,
        }
    }

    /// Atomic batch with at-most-once effect per rule: rules already present
    /// (a retransmitted batch whose Ack was lost or delayed) are skipped,
    /// and on failure only this batch's fresh installs are rolled back — an
    /// Error reply guarantees the batch left no partial hardware state.
    fn install_batch(&mut self, rules: &[TorRule], xid: u64, fault: bool) -> CtrlReply {
        let mut failed_reason = fault.then_some("rule install failed (injected fault)");
        let mut installed: Vec<(TenantId, FlowSpec)> = Vec::new();
        if failed_reason.is_none() {
            for r in rules {
                if self.has_rule(r.tenant, &r.spec) {
                    continue;
                }
                if self.install_rule(r).is_err() {
                    failed_reason = Some("fast-path memory exhausted");
                    break;
                }
                installed.push((r.tenant, r.spec));
            }
        }
        match failed_reason {
            Some(reason) => {
                for (tenant, spec) in &installed {
                    self.remove_rule(*tenant, spec);
                }
                self.stats.install_batches_rejected += 1;
                CtrlReply::Error { xid, reason }
            }
            None => {
                self.stats.install_batches_ok += 1;
                CtrlReply::Ack { xid }
            }
        }
    }
}

impl Node<Event, NetCtx> for Tor {
    fn on_event(&mut self, ev: Event, api: &mut Api<'_, Event, NetCtx>) {
        self.maybe_reboot(api);
        match ev {
            Event::Frame { port: _, pkt } => {
                // VLAN-tagged frames only originate from SR-IOV server
                // ports; everything else takes the software pipeline.
                if pkt.outer_vlan().is_some() {
                    self.on_hw_frame(api, pkt);
                } else {
                    self.on_sw_frame(api, pkt);
                }
            }
            Event::Ctl(msg) => match msg.body {
                Ctl::Req(req) => {
                    // The fault plane counts the installs it rejects, so it
                    // is asked only about an install the ToR would attempt.
                    let dark = api.chaos_tor_dark();
                    let install = matches!(req, CtrlRequest::InstallTorRules { .. });
                    let fault = install && !dark && api.fault_forces_install_failure();
                    if let Some(reply) = self.answer(req, dark, fault) {
                        let reply = Event::ctl(api.self_id, Ctl::Reply(reply));
                        api.send(msg.from, CTRL_LATENCY, reply);
                    }
                }
                // The switch agent serves requests only; the rest of the
                // vocabulary flows between the controllers.
                Ctl::Reply(_)
                | Ctl::Report(_)
                | Ctl::Decision(_)
                | Ctl::Migration(_)
                | Ctl::HwPath(_) => {}
            },
            Event::Timer { tag, .. } => panic!("{}: unexpected timer {tag}", self.cfg.name),
        }
    }

    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn fork(&self) -> Option<Self> {
        Some(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::ctrl::{DemandReport, HwPathReport, MigrationPrepare, OffloadDecision};
    use fastrak_net::flow::Proto;
    use fastrak_net::packet::PathTag;
    use fastrak_sim::kernel::Kernel;

    const T: TenantId = TenantId(1);

    fn rule(src_port: u16) -> TorRule {
        TorRule {
            tenant: T,
            spec: FlowSpec {
                tenant: Some(T),
                src_ip: Some(Ip::tenant_vm(1)),
                dst_ip: Some(Ip::tenant_vm(2)),
                proto: Some(Proto::Tcp),
                src_port: Some(src_port),
                dst_port: Some(80),
            },
            priority: 10,
            action: Action::Allow,
            tunnel: None,
            qos: None,
        }
    }

    /// A ToR holding one rule.
    fn tor() -> Tor {
        let mut tor = Tor::new(TorConfig::testbed("tor", 0));
        tor.install_rule(&rule(1)).expect("an empty table has room");
        tor
    }

    /// Every request there is, each carrying `xid` if it is correlated.
    fn every_request(xid: u64) -> Vec<CtrlRequest> {
        let vm_ip = Ip::tenant_vm(1);
        let spec = rule(1).spec;
        vec![
            CtrlRequest::DumpFlowStats { xid },
            CtrlRequest::InstallPlacerRule {
                vm_ip,
                tenant: T,
                spec,
                priority: 10,
                path: PathTag::SrIov,
            },
            CtrlRequest::RemovePlacerRule {
                vm_ip,
                tenant: T,
                spec,
            },
            CtrlRequest::SetVifRate {
                tenant: T,
                vm_ip,
                dir: Dir::Egress,
                bps: 1,
            },
            CtrlRequest::InstallTorRules {
                rules: vec![rule(2)],
                xid,
            },
            CtrlRequest::RemoveTorRules {
                rules: vec![(T, spec)],
            },
            CtrlRequest::DumpTorRules { xid },
            CtrlRequest::Probe { xid },
            CtrlRequest::SetHwRate {
                tenant: T,
                vm_ip,
                dir: Dir::Egress,
                bps: 1,
            },
        ]
    }

    /// What a request can change: the rule table and the batch counters.
    fn table(tor: &Tor) -> (Vec<(TenantId, FlowSpec)>, usize, u64, u64) {
        let s = tor.stats;
        let rules = tor.dump_rule_identities();
        (
            rules,
            tor.fastpath_used(),
            s.install_batches_ok,
            s.rules_removed,
        )
    }

    #[test]
    fn a_dark_tor_fails_every_correlated_request_and_changes_no_rule() {
        let mut tor = tor();
        let before = table(&tor);
        for req in every_request(7) {
            let correlated = matches!(
                req,
                CtrlRequest::DumpFlowStats { .. }
                    | CtrlRequest::InstallTorRules { .. }
                    | CtrlRequest::DumpTorRules { .. }
                    | CtrlRequest::Probe { .. }
            );
            let reply = tor.answer(req, true, false);
            let error = CtrlReply::Error {
                xid: 7,
                reason: "tor rebooting",
            };
            assert_eq!(reply, correlated.then_some(error));
        }
        assert_eq!(table(&tor), before);
        assert!(tor.hw_rates.is_empty(), "a dark ToR sets no rate limit");
        assert_eq!(tor.stats.install_batches_rejected, 1);
    }

    #[test]
    fn a_lit_tor_answers_what_it_holds() {
        let mut tor = tor();
        let [dump, placer_in, placer_out, vif, install, remove, identities, probe, hw] =
            every_request(3).try_into().expect("nine requests");
        let entries = vec![TorStatEntry {
            tenant: T,
            spec: rule(1).spec,
            packets: 0,
            bytes: 0,
        }];
        let stats = CtrlReply::TorFlowStats { xid: 3, entries };
        assert_eq!(tor.answer(dump, false, false), Some(stats));
        for server_side in [placer_in, placer_out, vif] {
            assert_eq!(tor.answer(server_side, false, false), None);
        }
        assert_eq!(
            tor.answer(install, false, false),
            Some(CtrlReply::Ack { xid: 3 })
        );
        assert_eq!(tor.answer(remove, false, false), None);
        let held = CtrlReply::TorRuleDump {
            xid: 3,
            rules: vec![(T, rule(2).spec)],
            boot_generation: 0,
        };
        assert_eq!(tor.answer(identities, false, false), Some(held));
        let alive = CtrlReply::ProbeReply {
            xid: 3,
            boot_generation: 0,
        };
        assert_eq!(tor.answer(probe, false, false), Some(alive));
        assert_eq!(tor.answer(hw, false, false), None);
        assert_eq!(tor.hw_rates.len(), 1);
    }

    #[test]
    fn an_injected_install_fault_rejects_the_whole_batch() {
        let mut tor = tor();
        let req = CtrlRequest::InstallTorRules {
            rules: vec![rule(2), rule(3)],
            xid: 5,
        };
        let reason = "rule install failed (injected fault)";
        assert_eq!(
            tor.answer(req, false, true),
            Some(CtrlReply::Error { xid: 5, reason })
        );
        assert_eq!(tor.acl_rules(), 1);
        assert_eq!(tor.stats.install_batches_rejected, 1);
    }

    /// Replies and controller-to-controller messages reach a ToR only by
    /// mistake: it sends nothing back and its table stays as it was.
    #[test]
    fn control_messages_a_tor_does_not_serve_change_nothing() {
        let mut k: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), 1);
        let id = k.add_node(tor());
        let vms = vec![(T, Ip::tenant_vm(1))];
        let server_ip = Ip::provider_server(0, 1);
        let decision = OffloadDecision {
            interval: 1,
            offload: Vec::new(),
            demote: Vec::new(),
            hw_agg_bps: Vec::new(),
        };
        let stray = [
            Ctl::Reply(CtrlReply::Ack { xid: 1 }),
            Ctl::Report(DemandReport {
                interval: 1,
                server_ip,
                entries: Vec::new(),
            }),
            Ctl::Decision(decision),
            Ctl::Migration(MigrationPrepare {
                tenant: T,
                vm_ip: Ip::tenant_vm(1),
            }),
            Ctl::HwPath(HwPathReport {
                server_ip,
                up: false,
                vms,
            }),
        ];
        let before = table(k.node::<Tor>(id));
        let n = stray.len() as u64;
        for body in stray {
            k.post(id, SimTime::ZERO, Event::ctl(id, body));
        }
        k.run_to_completion();
        assert_eq!(k.events_processed(), n, "the ToR sent something");
        assert_eq!(table(k.node::<Tor>(id)), before);
    }
}
