//! The physical-server node: host CPUs, VMs, the vswitch, the SR-IOV NIC,
//! and the two uplink ports to the ToR (the paper's testbed wires one
//! 10 Gbps NIC port to OVS and the second port to the SR-IOV VFs, §5.1).
//!
//! Packet pipelines (each `→` is one kernel event, so service centers keep
//! FIFO order and CPU contention emerges naturally):
//!
//! ```text
//! tx VIF:    app/TCP → [guest vCPU] → placer → [vswitch pool] → htb → NIC0 → ToR
//! tx SR-IOV: app/TCP → [guest vCPU] → placer → VF(+VLAN) → NIC1 → ToR
//! rx VIF:    NIC0 → [vswitch pool (decap)] → htb-in → [guest vCPU] → TCP/app
//! rx SR-IOV: NIC1 → VLAN demux → [guest vCPU] → TCP/app
//! ```
//!
//! Host CPU is accounted on three pools mirroring where Linux runs the
//! work: the vswitch datapath softirq threads, the (single-queue) tunnel
//! path, and interrupt handling for SR-IOV — see
//! [`crate::cost::CostModel`] for the calibration rationale.

use fastrak_net::addr::{Ip, TenantId, VlanId};
use fastrak_net::ctrl::{CtrlReply, CtrlRequest, Dir};
use fastrak_net::event::{CtlMsg, Event, NetCtx};
use fastrak_net::packet::{Encap, L4Meta, Packet, PathTag};
use fastrak_net::tunnel::{TunnelKey, TunnelMapping};
use fastrak_sim::cpu::CpuPool;
use fastrak_sim::kernel::{Api, Node, NodeId};
use fastrak_sim::tbf::TokenBucket;
use fastrak_sim::time::{serialization_delay, SimDuration, SimTime};
use fastrak_sim::FxHashMap;
use fastrak_transport::tcp::TSO_LIMIT;

use crate::app::GuestApi;
use crate::cost::CostModel;
use crate::vm::Vm;
use crate::vswitch::{TxVerdict, Vswitch, VswitchConfig};

/// Timer tags used by server nodes.
pub mod tags {
    /// Resume a pending pipeline stage (`a` = token).
    pub const PENDING: u64 = 1;
    /// TCP stack timer (`a` = vm index, `b` = generation).
    pub const TCP: u64 = 2;
    /// Application timer (`a` = vm index, `b` = app tag).
    pub const APP: u64 = 3;
    /// Start all guest applications.
    pub const START: u64 = 4;
}

/// Index of the vswitch-side NIC port.
pub const PORT_SW: usize = 0;
/// Index of the SR-IOV-side NIC port.
pub const PORT_HW: usize = 1;

/// Static server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Name for traces.
    pub name: String,
    /// Provider-space IP (VXLAN tunnel endpoint).
    pub provider_ip: Ip,
    /// Datapath softirq threads for the vswitch fast path.
    pub vswitch_threads: usize,
    /// Threads for the software tunnel path (1 = the paper's bottleneck).
    pub tunnel_threads: usize,
    /// Threads servicing SR-IOV interrupts.
    pub irq_threads: usize,
    /// Line rate of each NIC port, bits/sec.
    pub nic_rate_bps: u64,
    /// Maximum VFs on the SR-IOV port.
    pub max_vfs: usize,
    /// Cost model.
    pub cost: CostModel,
    /// vswitch configuration.
    pub vswitch: VswitchConfig,
    /// Drop a packet when the NIC tx ring is backed up further than this.
    pub max_link_backlog: SimDuration,
    /// Drop receive work the host cannot start within this budget.
    pub max_rx_backlog: SimDuration,
    /// When set, CE-mark (instead of queueing unmarked) any ECT packet that
    /// would wait longer than this in the NIC tx ring — RED-style marking
    /// at the host egress, the DCTCP deployment model's K threshold.
    pub ecn_mark_threshold: Option<SimDuration>,
    /// When set, *pin* this server: all guest vCPU work **and** all
    /// hypervisor network processing compete for this one pool of logical
    /// CPUs (the paper's Table-1 setup pins 3 VMs to 4 CPUs, §6.1.1, so the
    /// vswitch steals cycles directly from the guests).
    pub pinned_cpus: Option<usize>,
}

impl ServerConfig {
    /// Defaults mirroring one HP DL380G6 testbed server (§3.1/§5.1):
    /// 2× Intel E5520 (16 logical CPUs), dual-port 10 GbE, 4 VFs.
    pub fn testbed(name: impl Into<String>, provider_ip: Ip) -> ServerConfig {
        ServerConfig {
            name: name.into(),
            provider_ip,
            vswitch_threads: 4,
            tunnel_threads: 1,
            irq_threads: 2,
            nic_rate_bps: 10_000_000_000,
            max_vfs: 4,
            cost: CostModel::default(),
            vswitch: VswitchConfig::default(),
            max_link_backlog: SimDuration::from_millis(12),
            max_rx_backlog: SimDuration::from_millis(5),
            ecn_mark_threshold: None,
            pinned_cpus: None,
        }
    }
}

/// Counters the experiments read.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Packets dropped at the NIC tx ring (backlog bound).
    pub tx_ring_drops: u64,
    /// Receive work dropped (host overload).
    pub rx_drops: u64,
    /// Packets denied by the vswitch security policy.
    pub policy_drops: u64,
    /// Packets dropped because the SR-IOV hardware path was dark (chaos VF
    /// failure): tx attempts into the dead VF and hw-port rx during the
    /// outage.
    pub hw_path_drops: u64,
    /// Packets with no tunnel route.
    pub no_route_drops: u64,
    /// Frames sent on the vswitch port.
    pub tx_sw_frames: u64,
    /// Frames sent on the SR-IOV port.
    pub tx_hw_frames: u64,
    /// Frames received (both ports).
    pub rx_frames: u64,
    /// ECT packets CE-marked at the NIC tx ring (never also counted as
    /// drops: marking is instead-of-dropping).
    pub ecn_marked: u64,
}

#[allow(clippy::enum_variant_names)] // stages are all completions
enum Pending {
    GuestTxDone {
        vm: usize,
        pkt: Packet,
    },
    VswitchTxDone {
        vm: usize,
        pkt: Packet,
        verdict: TxVerdict,
    },
    VswitchRxDone {
        vm: usize,
        pkt: Packet,
    },
    GuestRxDone {
        vm: usize,
        pkt: Packet,
    },
}

/// The server node.
pub struct Server {
    /// Static configuration.
    pub cfg: ServerConfig,
    vms: Vec<Vm>,
    vswitch: Vswitch,
    nic: crate::sriov::SriovNic,
    vswitch_pool: CpuPool,
    tunnel_pool: CpuPool,
    irq_pool: CpuPool,
    /// Uplink wiring: (ToR node, ingress port index at the ToR) per local port.
    uplinks: [Option<(NodeId, usize)>; 2],
    link_free: [SimTime; 2],
    /// Stage table: packets parked between pipeline stages, indexed by the
    /// token their `tags::PENDING` timer carries. A slot is filled by
    /// [`Server::stash`], emptied when its timer fires, and its index
    /// reused, so the table stays as long as the most stages ever in flight.
    pending: Vec<Option<Pending>>,
    free_slots: Vec<usize>,
    /// Shared pool when `cfg.pinned_cpus` is set.
    pin_pool: Option<CpuPool>,
    /// Per-flow monotonic completion clamps (per direction): real stacks
    /// preserve per-flow ordering via RSS/queue affinity even across
    /// parallel CPUs; without this, differing service times across a CPU
    /// pool would reorder a connection's segments and trigger spurious
    /// fast retransmits.
    flow_clock: FxHashMap<(u64, u8), SimTime>,
    /// Public counters.
    pub stats: ServerStats,
    /// Last observed SR-IOV path liveness (updated on the hw datapath,
    /// published as the `host.hw_path_up` gauge).
    hw_path_up: bool,
    window_start: SimTime,
    hw_rate_tx: FxHashMap<usize, TokenBucket>,
    /// Cached "name/vmN" labels so enabled tracing allocates nothing per
    /// record (the trace ring interns, but `format!` itself would allocate).
    vm_labels: Vec<String>,
}

impl Server {
    /// Build a server.
    pub fn new(cfg: ServerConfig) -> Server {
        Server {
            vswitch: Vswitch::new(cfg.vswitch),
            nic: crate::sriov::SriovNic::new(cfg.max_vfs),
            vswitch_pool: CpuPool::new(cfg.vswitch_threads),
            tunnel_pool: CpuPool::new(cfg.tunnel_threads),
            irq_pool: CpuPool::new(cfg.irq_threads),
            uplinks: [None, None],
            link_free: [SimTime::ZERO; 2],
            pending: Vec::new(),
            free_slots: Vec::new(),
            pin_pool: cfg.pinned_cpus.map(CpuPool::new),
            flow_clock: FxHashMap::default(),
            stats: ServerStats::default(),
            hw_path_up: true,
            window_start: SimTime::ZERO,
            hw_rate_tx: FxHashMap::default(),
            vms: Vec::new(),
            vm_labels: Vec::new(),
            cfg,
        }
    }

    /// (Re)configure CPU pinning; call before the simulation starts.
    pub fn set_pinned_cpus(&mut self, n: Option<usize>) {
        self.cfg.pinned_cpus = n;
        self.pin_pool = n.map(CpuPool::new);
    }

    /// Wire local port `port` to `(tor_node, tor_ingress_port)`.
    pub fn attach_uplink(&mut self, port: usize, tor: NodeId, tor_port: usize) {
        self.uplinks[port] = Some((tor, tor_port));
    }

    /// Add a VM; allocates its VIF, and an SR-IOV VF when `vlan` is given.
    /// Returns the VM index.
    pub fn add_vm(&mut self, vm: Vm, vlan: Option<VlanId>) -> usize {
        let idx = self.vms.len();
        let vif = self.vswitch.attach_vif(vm.spec.tenant, vm.spec.ip);
        debug_assert_eq!(vif, idx, "VIF index must track VM index");
        if let Some(v) = vlan {
            self.nic
                .alloc_vf(idx, vm.spec.tenant, vm.spec.ip, v)
                .expect("VF allocation failed");
        }
        self.vms.push(vm);
        self.vm_labels.push(format!("{}/vm{idx}", self.cfg.name));
        idx
    }

    /// Access a VM.
    pub fn vm(&self, idx: usize) -> &Vm {
        &self.vms[idx]
    }

    /// Mutable VM access (harness configuration between events).
    pub fn vm_mut(&mut self, idx: usize) -> &mut Vm {
        &mut self.vms[idx]
    }

    /// Number of VMs.
    pub fn n_vms(&self) -> usize {
        self.vms.len()
    }

    /// Find a VM index by (tenant, IP).
    pub fn vm_by_ip(&self, tenant: TenantId, ip: Ip) -> Option<usize> {
        self.vms
            .iter()
            .position(|v| v.spec.tenant == tenant && v.spec.ip == ip)
    }

    /// The vswitch (rules, tunnels, rate limits).
    pub fn vswitch(&self) -> &Vswitch {
        &self.vswitch
    }

    /// Mutable vswitch access.
    pub fn vswitch_mut(&mut self) -> &mut Vswitch {
        &mut self.vswitch
    }

    /// The SR-IOV NIC.
    pub fn nic(&self) -> &crate::sriov::SriovNic {
        &self.nic
    }

    /// Mutable NIC access.
    pub fn nic_mut(&mut self) -> &mut crate::sriov::SriovNic {
        &mut self.nic
    }

    /// Mirror this server's datapath state into the telemetry registry:
    /// drop/frame counters, vswitch cache behaviour, per-VF packet counts,
    /// and summed guest TCP stats (pull model — nothing on the packet path
    /// touches the registry; snapshots are published at collection time).
    pub fn publish_telemetry(&self, reg: &mut fastrak_telemetry::Registry) {
        let server: &[(&str, &str)] = &[("server", &self.cfg.name)];
        for (name, v) in [
            ("host.tx_ring_drops", self.stats.tx_ring_drops),
            ("host.rx_drops", self.stats.rx_drops),
            ("host.policy_drops", self.stats.policy_drops),
            ("host.hw_path_drops", self.stats.hw_path_drops),
            ("host.no_route_drops", self.stats.no_route_drops),
            ("host.tx_frames.sw", self.stats.tx_sw_frames),
            ("host.tx_frames.hw", self.stats.tx_hw_frames),
            ("host.rx_frames", self.stats.rx_frames),
            ("host.vswitch.fast_path_hits", self.vswitch.fast_path_hits()),
            ("host.vswitch.slow_path_hits", self.vswitch.slow_path_hits()),
            ("host.ecn_marked", self.stats.ecn_marked),
        ] {
            let id = reg.counter(name, server);
            reg.set_counter(id, v);
        }
        let dp = reg.gauge("host.vswitch.datapath_entries", server);
        reg.gauge_set(dp, self.vswitch.datapath_len() as f64);
        let up = reg.gauge("host.hw_path_up", server);
        reg.gauge_set(up, if self.hw_path_up { 1.0 } else { 0.0 });
        for vf in self.nic.vfs() {
            let labels: &[(&str, &str)] = &[
                ("server", &self.cfg.name),
                ("vm", &self.vm_labels[vf.vm_idx]),
            ];
            let tx = reg.counter("host.sriov.tx_packets", labels);
            reg.set_counter(tx, vf.tx_packets);
            let rx = reg.counter("host.sriov.rx_packets", labels);
            reg.set_counter(rx, vf.rx_packets);
        }
        let mut tcp = fastrak_transport::tcp::TcpStats::default();
        let mut conn_states = [0u64; 11];
        let cwnd_id = reg.histogram("tcp.cwnd_bytes", server);
        for vm in &self.vms {
            for cid in vm.stack.conn_ids() {
                let conn = vm.stack.conn(cid);
                let s = &conn.stats;
                tcp.segs_tx += s.segs_tx;
                tcp.segs_rx += s.segs_rx;
                tcp.acks_tx += s.acks_tx;
                tcp.dup_acks_rx += s.dup_acks_rx;
                tcp.fast_retransmits += s.fast_retransmits;
                tcp.timeouts += s.timeouts;
                tcp.ooo_segs_rx += s.ooo_segs_rx;
                tcp.bytes_acked += s.bytes_acked;
                tcp.bytes_delivered += s.bytes_delivered;
                tcp.delayed_acks += s.delayed_acks;
                tcp.rtx_segs += s.rtx_segs;
                tcp.ecn_ce_rx += s.ecn_ce_rx;
                tcp.ecn_ece_rx += s.ecn_ece_rx;
                tcp.ecn_ece_tx += s.ecn_ece_tx;
                tcp.ecn_cwr_tx += s.ecn_cwr_tx;
                use fastrak_transport::tcp::TcpState as S;
                let si = match conn.state() {
                    S::Closed => 0,
                    S::Listen => 1,
                    S::SynSent => 2,
                    S::SynRcvd => 3,
                    S::Established => 4,
                    S::FinWait1 => 5,
                    S::FinWait2 => 6,
                    S::Closing => 7,
                    S::CloseWait => 8,
                    S::LastAck => 9,
                    S::TimeWait => 10,
                };
                conn_states[si] += 1;
                reg.observe(cwnd_id, conn.cwnd());
            }
        }
        for (name, v) in [
            ("tcp.segs_tx", tcp.segs_tx),
            ("tcp.segs_rx", tcp.segs_rx),
            ("tcp.acks_tx", tcp.acks_tx),
            ("tcp.dup_acks_rx", tcp.dup_acks_rx),
            ("tcp.fast_retransmits", tcp.fast_retransmits),
            ("tcp.timeouts", tcp.timeouts),
            ("tcp.ooo_segs_rx", tcp.ooo_segs_rx),
            ("tcp.bytes_acked", tcp.bytes_acked),
            ("tcp.bytes_delivered", tcp.bytes_delivered),
            ("tcp.rtx_segs", tcp.rtx_segs),
            ("tcp.ecn_ce_rx", tcp.ecn_ce_rx),
            ("tcp.ecn_ece_rx", tcp.ecn_ece_rx),
            ("tcp.ecn_ece_tx", tcp.ecn_ece_tx),
            ("tcp.ecn_cwr_tx", tcp.ecn_cwr_tx),
        ] {
            let id = reg.counter(name, server);
            reg.set_counter(id, v);
        }
        for (name, si) in [
            ("tcp.conns.closed", 0usize),
            ("tcp.conns.listen", 1),
            ("tcp.conns.syn_sent", 2),
            ("tcp.conns.syn_rcvd", 3),
            ("tcp.conns.established", 4),
            ("tcp.conns.fin_wait_1", 5),
            ("tcp.conns.fin_wait_2", 6),
            ("tcp.conns.closing", 7),
            ("tcp.conns.close_wait", 8),
            ("tcp.conns.last_ack", 9),
            ("tcp.conns.time_wait", 10),
        ] {
            let id = reg.gauge(name, server);
            reg.gauge_set(id, conn_states[si] as f64);
        }
    }

    /// Begin a CPU measurement window (paper's "# of CPUs for test").
    pub fn begin_cpu_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.vswitch_pool.begin_window(now);
        self.tunnel_pool.begin_window(now);
        self.irq_pool.begin_window(now);
        if let Some(p) = &mut self.pin_pool {
            p.begin_window(now);
        }
        for vm in &mut self.vms {
            vm.vcpus.begin_window(now);
            vm.vhost.begin_window(now);
        }
    }

    /// Average host logical CPUs busy over the window.
    pub fn host_cpus_used(&self, now: SimTime) -> f64 {
        self.vswitch_pool.cpus_used(now)
            + self.tunnel_pool.cpus_used(now)
            + self.irq_pool.cpus_used(now)
            + self.pin_pool.as_ref().map_or(0.0, |p| p.cpus_used(now))
            + self.vms.iter().map(|v| v.vhost.cpus_used(now)).sum::<f64>()
    }

    /// Average guest logical CPUs busy over the window (all VMs).
    pub fn guest_cpus_used(&self, now: SimTime) -> f64 {
        self.vms.iter().map(|v| v.vcpus.cpus_used(now)).sum()
    }

    /// Total logical CPUs busy (host + guest) — the paper's test metric.
    pub fn cpus_used(&self, now: SimTime) -> f64 {
        self.host_cpus_used(now) + self.guest_cpus_used(now)
    }

    /// Submit guest (vCPU) work for a VM; under pinning this competes with
    /// hypervisor work in the shared pool.
    fn submit_guest(&mut self, vm_idx: usize, now: SimTime, cost: SimDuration) -> SimTime {
        match &mut self.pin_pool {
            Some(p) => p.submit(now, cost),
            None => self.vms[vm_idx].vcpus.submit(now, cost),
        }
    }

    /// Submit a VM's VIF-path host work: the per-VM vhost thread when not
    /// pinned (tunneled work rides the single tunnel queue instead, which
    /// is the paper's ~2 Gbps VXLAN bottleneck).
    fn submit_vswitch(
        &mut self,
        vm_idx: usize,
        now: SimTime,
        cost: SimDuration,
        tunneled: bool,
    ) -> SimTime {
        match &mut self.pin_pool {
            Some(p) => p.submit(now, cost),
            None if tunneled => self.tunnel_pool.submit(now, cost),
            None => self.vms[vm_idx].vhost.submit(now, cost),
        }
    }

    fn try_submit_vswitch(
        &mut self,
        vm_idx: usize,
        now: SimTime,
        cost: SimDuration,
        tunneled: bool,
        budget: SimDuration,
    ) -> Option<SimTime> {
        match &mut self.pin_pool {
            Some(p) => p.try_submit(now, cost, budget),
            None if tunneled => self.tunnel_pool.try_submit(now, cost, budget),
            None => self.vms[vm_idx].vhost.try_submit(now, cost, budget),
        }
    }

    fn submit_irq(&mut self, now: SimTime, cost: SimDuration) {
        match &mut self.pin_pool {
            Some(p) => {
                p.submit(now, cost);
            }
            None => {
                self.irq_pool.submit(now, cost);
            }
        }
    }

    /// Clamp a completion time to be monotone per (flow, direction).
    fn seq_clamp(&mut self, flow: &fastrak_net::flow::FlowKey, dir: u8, t: SimTime) -> SimTime {
        let key = (flow.trace_hash(), dir);
        let e = self.flow_clock.entry(key).or_insert(SimTime::ZERO);
        let t = t.max(*e);
        *e = t;
        t
    }

    /// Park a stage in a free slot; the slot index is the timer token.
    fn stash(&mut self, p: Pending) -> u64 {
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.pending[slot] = Some(p);
                slot
            }
            None => {
                self.pending.push(Some(p));
                self.pending.len() - 1
            }
        };
        slot as u64
    }

    /// Take the stage a fired timer names and free its slot. A token naming
    /// a vacant or out-of-range slot yields `None` and frees nothing.
    fn unstash(&mut self, tok: u64) -> Option<Pending> {
        let slot = usize::try_from(tok).ok()?;
        let p = self.pending.get_mut(slot)?.take()?;
        self.free_slots.push(slot);
        Some(p)
    }

    /// Pipeline stages currently parked waiting for their completion timer
    /// (one per packet inside this server). Zero once a run has drained.
    pub fn stages_in_flight(&self) -> usize {
        self.pending.len() - self.free_slots.len()
    }

    // ---------------------------------------------------------------- tx --

    /// Pull segments out of a VM's TCP stack into the guest-CPU stage.
    fn pump_vm(&mut self, api: &mut Api<'_, Event, NetCtx>, vm_idx: usize) {
        loop {
            let vm = &mut self.vms[vm_idx];
            if vm.tx_inflight >= vm.spec.tx_width {
                break;
            }
            let Some((conn, plan)) = vm.stack.poll_transmit(api.now, TSO_LIMIT) else {
                break;
            };
            let flow = vm.stack.conn(conn).flow;
            let mut pkt = Packet::new(
                api.ctx.alloc_packet_id(),
                flow,
                L4Meta::Tcp {
                    seq: plan.seq,
                    ack: plan.ack,
                    flags: plan.flags,
                },
                plan.len,
                api.now,
            );
            pkt.ecn = plan.ecn;
            pkt.sack = plan.sack;
            let cost = self.cfg.cost.guest_tx(&pkt);
            let done = self.submit_guest(vm_idx, api.now, cost);
            let done = self.seq_clamp(&flow, 0, done);
            self.vms[vm_idx].tx_inflight += 1;
            let tok = self.stash(Pending::GuestTxDone { vm: vm_idx, pkt });
            api.send_at(
                api.self_id,
                done,
                Event::Timer {
                    tag: tags::PENDING,
                    a: tok,
                    b: 0,
                },
            );
        }
        self.rearm_tcp_timer(api, vm_idx);
        self.notify_tx_room(api, vm_idx);
    }

    fn notify_tx_room(&mut self, api: &mut Api<'_, Event, NetCtx>, vm_idx: usize) {
        // Give stream workloads a chance to top up their send buffers.
        self.with_app(api, vm_idx, |app, g| app.on_tx_room(g));
    }

    /// Run `f` with the VM's app and a GuestApi; afterwards apply timer and
    /// cpu-burn requests and drain any new stack events.
    fn with_app(
        &mut self,
        api: &mut Api<'_, Event, NetCtx>,
        vm_idx: usize,
        f: impl FnOnce(&mut dyn crate::app::GuestApp, &mut GuestApi<'_>),
    ) {
        let vm = &mut self.vms[vm_idx];
        let Some(mut app) = vm.app.take() else {
            return; // reentrant dispatch: events will be drained by caller
        };
        let mut timer_reqs = Vec::new();
        let mut cpu_burn = Vec::new();
        {
            let mut g = GuestApi {
                now: api.now,
                rng: api.rng,
                tenant: vm.spec.tenant,
                vm_ip: vm.spec.ip,
                stack: &mut vm.stack,
                timer_reqs: &mut timer_reqs,
                cpu_burn: &mut cpu_burn,
            };
            f(app.as_mut(), &mut g);
        }
        self.vms[vm_idx].app = Some(app);
        for (delay, tag) in timer_reqs {
            api.send(
                api.self_id,
                delay,
                Event::Timer {
                    tag: tags::APP,
                    a: vm_idx as u64,
                    b: tag,
                },
            );
        }
        for work in cpu_burn {
            self.submit_guest(vm_idx, api.now, work);
        }
        self.drain_stack_events(api, vm_idx);
    }

    /// Deliver queued socket events to the app (which may generate more).
    fn drain_stack_events(&mut self, api: &mut Api<'_, Event, NetCtx>, vm_idx: usize) {
        for _round in 0..64 {
            let events = self.vms[vm_idx].stack.drain_events();
            if events.is_empty() {
                return;
            }
            for ev in events {
                self.with_app(api, vm_idx, |app, g| app.on_event(ev, g));
            }
        }
        debug_assert!(
            !self.vms[vm_idx].stack.has_events(),
            "app/stack event loop did not quiesce"
        );
    }

    // Timer audit note: this uses a *soft* cancel — stale timers still fire
    // and are discarded by generation (`tcp_timer_gen`) in the handler. The
    // kernel now offers O(1) `Api::cancel` via `EventHandle`, which would
    // keep stale timers out of the queue entirely; switching would change
    // the delivered event stream (and thus every seeded artifact), so it is
    // deliberately left as-is. New timer-heavy nodes should prefer
    // `Api::cancel`.
    fn rearm_tcp_timer(&mut self, api: &mut Api<'_, Event, NetCtx>, vm_idx: usize) {
        let vm = &mut self.vms[vm_idx];
        let next = vm.stack.next_timer();
        match (next, vm.tcp_timer) {
            (None, _) => {
                vm.tcp_timer = None;
            }
            (Some(deadline), Some((armed, _))) if armed <= deadline => {
                // Existing timer fires first (or at the same time): keep it.
            }
            (Some(deadline), _) => {
                vm.tcp_timer_gen += 1;
                vm.tcp_timer = Some((deadline, vm.tcp_timer_gen));
                let gen = vm.tcp_timer_gen;
                api.send_at(
                    api.self_id,
                    deadline,
                    Event::Timer {
                        tag: tags::TCP,
                        a: vm_idx as u64,
                        b: gen,
                    },
                );
            }
        }
    }

    fn on_guest_tx_done(
        &mut self,
        api: &mut Api<'_, Event, NetCtx>,
        vm_idx: usize,
        mut pkt: Packet,
    ) {
        self.vms[vm_idx].tx_inflight -= 1;
        let wire = pkt.wire_bytes_total();
        let (path, _first) = self.vms[vm_idx].placer.place(&pkt.flow, wire);
        pkt.path = path;
        if api.ctx.telemetry.spans.enabled() {
            // Path-residency span per (vm, flow): same-path calls are no-ops,
            // a placement change closes the old span and opens the next one.
            let spans = &mut api.ctx.telemetry.spans;
            let comp = spans.comp(&self.vm_labels[vm_idx]);
            let name = match path {
                PathTag::SrIov => "sriov",
                PathTag::Vif | PathTag::Unplaced => "vif",
            };
            spans.track_flow_path(api.now.as_nanos(), comp, pkt.flow.trace_hash(), name);
        }
        match path {
            PathTag::Vif | PathTag::Unplaced => {
                let r = self.vswitch.process_tx(&pkt.flow, wire);
                let tunneled = matches!(r.verdict, TxVerdict::UplinkTunneled(_));
                let rate_limited = self.vswitch.egress_limited(vm_idx);
                let mut cost = if tunneled {
                    self.cfg.cost.vswitch_tunneled(&pkt, rate_limited)
                } else {
                    self.cfg.cost.vswitch_fast(&pkt, rate_limited)
                };
                if r.slow_path {
                    cost += self.cfg.cost.vswitch_slow_path(self.vswitch.n_rules());
                }
                let done = self.submit_vswitch(vm_idx, api.now, cost, tunneled);
                let done = self.seq_clamp(&pkt.flow, 1, done);
                let tok = self.stash(Pending::VswitchTxDone {
                    vm: vm_idx,
                    pkt,
                    verdict: r.verdict,
                });
                api.send_at(
                    api.self_id,
                    done,
                    Event::Timer {
                        tag: tags::PENDING,
                        a: tok,
                        b: 0,
                    },
                );
            }
            PathTag::SrIov => {
                // Dead VF (chaos): the placer still steers into the hardware
                // path — the NIC just eats the packet. Falling back to the
                // vswitch here would mask the failure; recovery is the
                // control plane's job (HwPathReport → force demote).
                if api.chaos_vf_down_at(api.self_id) {
                    self.hw_path_up = false;
                    self.stats.hw_path_drops += 1;
                    self.pump_vm(api, vm_idx);
                    return;
                }
                self.hw_path_up = true;
                // Interrupt-isolation cost is asynchronous: account it on
                // the irq pool without delaying the packet.
                let c = self.cfg.cost.sriov_host(&pkt);
                self.submit_irq(api.now, c);
                // Optional ToR-independent hw shaper (FPS hardware split).
                let at = match self.hw_rate_tx.get_mut(&vm_idx) {
                    Some(tb) => tb.acquire(api.now, wire),
                    None => api.now,
                };
                let at = match self.nic.tx_through_vf(vm_idx, at, wire) {
                    Some(t) => t,
                    None => {
                        // No VF: misconfiguration; fall back to the vswitch
                        // path would hide the bug — drop and count instead.
                        self.stats.policy_drops += 1;
                        self.pump_vm(api, vm_idx);
                        return;
                    }
                };
                let vlan = self.nic.vlan_of_vm(vm_idx).expect("VF exists but no VLAN");
                pkt.encap(Encap::Vlan(vlan.0));
                self.nic_tx(api, PORT_HW, at, pkt);
            }
        }
        // Keep the pipeline full.
        self.pump_vm(api, vm_idx);
    }

    fn on_vswitch_tx_done(
        &mut self,
        api: &mut Api<'_, Event, NetCtx>,
        vm_idx: usize,
        mut pkt: Packet,
        verdict: TxVerdict,
    ) {
        match verdict {
            TxVerdict::Denied => {
                self.stats.policy_drops += 1;
            }
            TxVerdict::NoRoute => {
                self.stats.no_route_drops += 1;
            }
            TxVerdict::Local(dst_vm) => {
                let wire = pkt.wire_bytes_total();
                let at = self.vswitch.shape_ingress(dst_vm, api.now, wire);
                self.deliver_to_guest(api, dst_vm, pkt, at, true);
            }
            TxVerdict::UplinkPlain => {
                let wire = pkt.wire_bytes_total();
                let at = self.vswitch.shape_egress(vm_idx, api.now, wire);
                self.nic_tx(api, PORT_SW, at, pkt);
            }
            TxVerdict::UplinkTunneled(m) => {
                pkt.encap(Encap::Vxlan {
                    vni: pkt.flow.tenant.vni(),
                    src: self.cfg.provider_ip,
                    dst: m.server_ip,
                });
                let wire = pkt.wire_bytes_total();
                let at = self.vswitch.shape_egress(vm_idx, api.now, wire);
                self.nic_tx(api, PORT_SW, at, pkt);
            }
        }
    }

    fn nic_tx(
        &mut self,
        api: &mut Api<'_, Event, NetCtx>,
        port: usize,
        at: SimTime,
        mut pkt: Packet,
    ) {
        let Some((tor, tor_port)) = self.uplinks[port] else {
            // Unwired port: drop silently in tests that don't build a fabric.
            self.stats.tx_ring_drops += 1;
            return;
        };
        let at = at.max(api.now);
        let start = at.max(self.link_free[port]);
        if start.since(at) > self.cfg.max_link_backlog {
            self.stats.tx_ring_drops += 1;
            return;
        }
        if let Some(th) = self.cfg.ecn_mark_threshold {
            // Admitted ECT packets over the marking threshold carry CE
            // instead of waiting unmarked (drops above were already taken:
            // a marked packet is never also a drop).
            if fastrak_net::headers::ecn::is_ect(pkt.ecn) && start.since(at) > th {
                pkt.ecn = fastrak_net::headers::ecn::CE;
                self.stats.ecn_marked += 1;
            }
        }
        let ser = serialization_delay(pkt.wire_bytes_total(), self.cfg.nic_rate_bps);
        let end = start + ser;
        self.link_free[port] = end;
        if port == PORT_SW {
            self.stats.tx_sw_frames += 1;
        } else {
            self.stats.tx_hw_frames += 1;
        }
        if api.ctx.trace.enabled() {
            if let L4Meta::Tcp { seq, .. } = pkt.l4 {
                api.ctx.trace.push(
                    api.now,
                    &self.cfg.name,
                    if port == PORT_SW { "tx-sw" } else { "tx-hw" },
                    [pkt.id, seq, pkt.payload as u64],
                );
            }
        }
        let arrive = end + self.cfg.cost.wire_latency;
        api.send_at(
            tor,
            arrive,
            Event::Frame {
                port: tor_port,
                pkt,
            },
        );
    }

    // ---------------------------------------------------------------- rx --

    fn on_frame(&mut self, api: &mut Api<'_, Event, NetCtx>, port: usize, mut pkt: Packet) {
        self.stats.rx_frames += 1;
        match port {
            PORT_HW => {
                if api.chaos_vf_down_at(api.self_id) {
                    self.hw_path_up = false;
                    self.stats.hw_path_drops += 1;
                    return;
                }
                self.hw_path_up = true;
                let Some(vlan) = pkt.outer_vlan() else {
                    self.stats.rx_drops += 1;
                    return;
                };
                let Some((_vf, vm_idx)) = self.nic.demux_vlan(vlan, pkt.flow.dst_ip) else {
                    self.stats.rx_drops += 1;
                    return;
                };
                pkt.decap(); // NIC strips the VLAN tag (§4.2.2)
                let c = self.cfg.cost.sriov_host(&pkt);
                self.submit_irq(api.now, c);
                self.deliver_to_guest(api, vm_idx, pkt, api.now, false);
            }
            PORT_SW => {
                // Outer VXLAN?
                let tunneled = matches!(pkt.outer(), Some(Encap::Vxlan { .. }));
                if tunneled {
                    let Some(Encap::Vxlan { dst, vni, .. }) = pkt.decap() else {
                        unreachable!()
                    };
                    if dst != self.cfg.provider_ip || vni != pkt.flow.tenant.vni() {
                        // Mis-delivered or tenant mismatch: drop.
                        self.stats.rx_drops += 1;
                        return;
                    }
                }
                let wire = pkt.wire_bytes_total();
                let Some(vm_idx) = self.vswitch.process_rx(&pkt.flow, wire) else {
                    self.stats.rx_drops += 1;
                    return;
                };
                let rate_limited = self.vswitch.ingress_limited(vm_idx);
                let cost = if tunneled {
                    self.cfg.cost.vswitch_tunneled(&pkt, rate_limited)
                } else {
                    self.cfg.cost.vswitch_fast(&pkt, rate_limited)
                };
                let Some(done) = self.try_submit_vswitch(
                    vm_idx,
                    api.now,
                    cost,
                    tunneled,
                    self.cfg.max_rx_backlog,
                ) else {
                    self.stats.rx_drops += 1;
                    return;
                };
                let done = self.seq_clamp(&pkt.flow, 2, done);
                let tok = self.stash(Pending::VswitchRxDone { vm: vm_idx, pkt });
                api.send_at(
                    api.self_id,
                    done,
                    Event::Timer {
                        tag: tags::PENDING,
                        a: tok,
                        b: 0,
                    },
                );
            }
            other => panic!("server {} has no port {other}", self.cfg.name),
        }
    }

    fn on_vswitch_rx_done(&mut self, api: &mut Api<'_, Event, NetCtx>, vm_idx: usize, pkt: Packet) {
        let wire = pkt.wire_bytes_total();
        let at = self.vswitch.shape_ingress(vm_idx, api.now, wire);
        self.deliver_to_guest(api, vm_idx, pkt, at, true);
    }

    /// Charge guest rx CPU + notification latency, then hand to the stack.
    fn deliver_to_guest(
        &mut self,
        api: &mut Api<'_, Event, NetCtx>,
        vm_idx: usize,
        pkt: Packet,
        at: SimTime,
        via_vif: bool,
    ) {
        let notify = if via_vif {
            self.cfg.cost.vif_notify(api.rng)
        } else {
            self.cfg.cost.sriov_notify(api.rng)
        };
        let cost = self.cfg.cost.guest_rx(&pkt);
        let done = self.submit_guest(vm_idx, at.max(api.now), cost) + notify;
        let done = self.seq_clamp(&pkt.flow, 3, done);
        let tok = self.stash(Pending::GuestRxDone { vm: vm_idx, pkt });
        api.send_at(
            api.self_id,
            done,
            Event::Timer {
                tag: tags::PENDING,
                a: tok,
                b: 0,
            },
        );
    }

    fn on_guest_rx_done(&mut self, api: &mut Api<'_, Event, NetCtx>, vm_idx: usize, pkt: Packet) {
        if api.ctx.trace.enabled() {
            if let L4Meta::Tcp { seq, .. } = pkt.l4 {
                api.ctx.trace.push(
                    api.now,
                    &self.vm_labels[vm_idx],
                    "rx",
                    [pkt.id, seq, pkt.payload as u64],
                );
            }
        }
        self.vms[vm_idx].stack.on_packet(api.now, &pkt);
        self.drain_stack_events(api, vm_idx);
        self.pump_vm(api, vm_idx);
    }

    // ----------------------------------------------------------- control --

    fn on_ctrl(&mut self, api: &mut Api<'_, Event, NetCtx>, from: NodeId, req: CtrlRequest) {
        /// Latency of a local control-plane operation.
        const CTRL_LATENCY: SimDuration = SimDuration(50_000);
        match req {
            CtrlRequest::DumpFlowStats { xid } => {
                let entries = self.vswitch.dump_flow_stats();
                api.send(
                    from,
                    CTRL_LATENCY,
                    Event::Ctl(CtlMsg::new(
                        api.self_id,
                        CtrlReply::FlowStats { xid, entries },
                    )),
                );
            }
            CtrlRequest::InstallPlacerRule {
                vm_ip,
                tenant,
                spec,
                priority,
                path,
            } => {
                if let Some(idx) = self.vm_by_ip(tenant, vm_ip) {
                    self.vms[idx].placer.install_rule(spec, priority, path);
                }
            }
            CtrlRequest::RemovePlacerRule {
                vm_ip,
                tenant,
                spec,
            } => {
                if let Some(idx) = self.vm_by_ip(tenant, vm_ip) {
                    self.vms[idx].placer.remove_rule(&spec);
                }
            }
            CtrlRequest::SetVifRate { vm_ip, dir, bps } => {
                if let Some(idx) = self.vms.iter().position(|v| v.spec.ip == vm_ip) {
                    let burst = (bps / 8 / 100).max(64_000); // ~10ms of rate
                    let tb = Some(TokenBucket::new(bps.max(1), burst));
                    match dir {
                        Dir::Egress => self.vswitch.vif_rates_mut(idx).egress = tb,
                        Dir::Ingress => self.vswitch.vif_rates_mut(idx).ingress = tb,
                    }
                }
            }
            CtrlRequest::SetHwRate {
                vm_ip, dir, bps, ..
            } => {
                // NIC-side hw shaping (the ToR also supports SetHwRate).
                if let Some(idx) = self.vms.iter().position(|v| v.spec.ip == vm_ip) {
                    if matches!(dir, Dir::Egress) {
                        let burst = (bps / 8 / 100).max(64_000);
                        self.hw_rate_tx
                            .insert(idx, TokenBucket::new(bps.max(1), burst));
                    }
                }
            }
            CtrlRequest::InstallTorRules { .. }
            | CtrlRequest::RemoveTorRules { .. }
            | CtrlRequest::DumpTorRules { .. }
            | CtrlRequest::Probe { .. } => {
                // Not a server operation; ignore (a real switch agent would
                // NAK — the controller never sends these to servers).
            }
        }
    }

    /// Install a tunnel mapping for a remote destination VM (orchestration).
    pub fn add_tunnel_route(&mut self, tenant: TenantId, vm_ip: Ip, m: TunnelMapping) {
        self.vswitch
            .tunnels_mut()
            .insert(TunnelKey { tenant, vm_ip }, m);
    }
}

impl Node<Event, NetCtx> for Server {
    fn on_event(&mut self, ev: Event, api: &mut Api<'_, Event, NetCtx>) {
        match ev {
            Event::Frame { port, pkt } => self.on_frame(api, port, pkt),
            Event::Timer { tag, a, b } => match tag {
                tags::PENDING => {
                    let Some(p) = self.unstash(a) else {
                        return;
                    };
                    match p {
                        Pending::GuestTxDone { vm, pkt } => self.on_guest_tx_done(api, vm, pkt),
                        Pending::VswitchTxDone { vm, pkt, verdict } => {
                            self.on_vswitch_tx_done(api, vm, pkt, verdict)
                        }
                        Pending::VswitchRxDone { vm, pkt } => self.on_vswitch_rx_done(api, vm, pkt),
                        Pending::GuestRxDone { vm, pkt } => self.on_guest_rx_done(api, vm, pkt),
                    }
                }
                tags::TCP => {
                    let vm_idx = a as usize;
                    let vm = &mut self.vms[vm_idx];
                    match vm.tcp_timer {
                        Some((deadline, gen)) if gen == b && api.now >= deadline => {
                            vm.tcp_timer = None;
                            vm.stack.on_timer(api.now);
                            self.drain_stack_events(api, vm_idx);
                            self.pump_vm(api, vm_idx);
                        }
                        _ => {} // stale generation
                    }
                }
                tags::APP => {
                    let vm_idx = a as usize;
                    let tag = b;
                    self.with_app(api, vm_idx, |app, g| app.on_timer(tag, g));
                    self.pump_vm(api, vm_idx);
                }
                tags::START => {
                    for vm_idx in 0..self.vms.len() {
                        self.with_app(api, vm_idx, |app, g| app.on_start(g));
                        self.pump_vm(api, vm_idx);
                    }
                }
                other => panic!("server {}: unknown timer tag {other}", self.cfg.name),
            },
            Event::Ctl(msg) => match msg.downcast::<CtrlRequest>() {
                Ok((from, req)) => self.on_ctrl(api, from, req),
                Err(_) => { /* unknown control message: ignore */ }
            },
        }
    }

    fn name(&self) -> &str {
        &self.cfg.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmSpec;
    use fastrak_net::flow::{FlowKey, Proto};
    use fastrak_sim::kernel::Kernel;
    use fastrak_transport::stack::SockEvent;

    const TENANT: TenantId = TenantId(7);

    struct NullApp;

    impl crate::app::GuestApp for NullApp {
        fn on_start(&mut self, _api: &mut GuestApi<'_>) {}
        fn on_event(&mut self, _ev: SockEvent, _api: &mut GuestApi<'_>) {}
        fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}
    }

    fn server() -> Server {
        let mut srv = Server::new(ServerConfig::testbed("s0", Ip::new(192, 168, 0, 1)));
        let spec = VmSpec::medium("vm0", TENANT, Ip::new(10, 0, 0, 2));
        srv.add_vm(Vm::new(spec, Box::new(NullApp)), Some(VlanId::new(100)));
        srv
    }

    fn packet(id: u64) -> Packet {
        let flow = FlowKey {
            tenant: TENANT,
            src_ip: Ip::new(10, 0, 0, 1),
            dst_ip: Ip::new(10, 0, 0, 2),
            proto: Proto::Udp,
            src_port: 40_000,
            dst_port: 1000,
        };
        Packet::new(id, flow, L4Meta::Udp, 100, SimTime::ZERO)
    }

    fn stage(id: u64) -> Pending {
        Pending::GuestRxDone {
            vm: 0,
            pkt: packet(id),
        }
    }

    fn packet_id(p: Pending) -> u64 {
        match p {
            Pending::GuestRxDone { pkt, .. } => pkt.id,
            _ => panic!("only guest-rx stages are stashed here"),
        }
    }

    #[test]
    fn stage_tokens_are_slot_indices_reused_after_their_timer_fired() {
        let mut srv = server();
        let toks: Vec<u64> = (0..3).map(|i| srv.stash(stage(i))).collect();
        assert_eq!(toks, [0, 1, 2]);
        assert_eq!(srv.stages_in_flight(), 3);
        assert_eq!(srv.unstash(1).map(packet_id), Some(1));
        assert_eq!(srv.stages_in_flight(), 2);
        // The freed slot is the next token; the table did not grow.
        assert_eq!(srv.stash(stage(3)), 1);
        assert_eq!(srv.pending.len(), 3);
        assert_eq!(srv.unstash(1).map(packet_id), Some(3));
        assert_eq!(srv.unstash(0).map(packet_id), Some(0));
        assert_eq!(srv.unstash(2).map(packet_id), Some(2));
        assert_eq!(srv.stages_in_flight(), 0);
    }

    #[test]
    fn vacant_or_out_of_range_token_frees_nothing() {
        let mut srv = server();
        let a = srv.stash(stage(0));
        let b = srv.stash(stage(1));
        assert!(srv.unstash(a).is_some());
        // A second fire of the same token, a token past the table and the
        // largest token there is: all ignored.
        assert!(srv.unstash(a).is_none());
        assert!(srv.unstash(99).is_none());
        assert!(srv.unstash(u64::MAX).is_none());
        assert_eq!(srv.free_slots, [a as usize], "slot freed exactly once");
        assert_eq!(srv.stages_in_flight(), 1);
        // A double free would hand slot `a` out twice and overwrite a stage.
        let c = srv.stash(stage(2));
        let d = srv.stash(stage(3));
        assert_eq!(c, a);
        assert!(d != a && d != b);
        assert_eq!(srv.stages_in_flight(), 3);
    }

    #[test]
    fn stray_pending_timers_are_ignored_and_the_table_drains() {
        let mut k: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), 1);
        let sid = k.add_node(server());
        let at = SimTime::from_micros(10);
        for tok in [0, 5, u64::MAX] {
            let stray = Event::Timer {
                tag: tags::PENDING,
                a: tok,
                b: 0,
            };
            k.post(sid, at, stray);
        }
        for id in 0..8 {
            let mut pkt = packet(id);
            pkt.encap(Encap::Vlan(100));
            k.post(sid, at, Event::Frame { port: PORT_HW, pkt });
        }
        // The strays fired first, on an empty table; every frame is now
        // parked in the guest-rx stage.
        k.run_until(at);
        assert_eq!(k.node::<Server>(sid).stages_in_flight(), 8);
        k.run_to_completion();
        let srv = k.node::<Server>(sid);
        assert_eq!(srv.stats.rx_frames, 8);
        assert_eq!(srv.stats.rx_drops, 0);
        assert_eq!(srv.nic().vfs()[0].rx_packets, 8);
        assert_eq!(srv.stages_in_flight(), 0);
        assert!(srv.pending.len() <= 8);
    }
}
