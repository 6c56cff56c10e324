//! The physical-server node: host CPUs, VMs, the vswitch, the SR-IOV NIC,
//! and the two uplink ports to the ToR (the paper's testbed wires one
//! 10 Gbps NIC port to OVS and the second port to the SR-IOV VFs, §5.1).
//!
//! A packet crosses the server as a sequence of CPU *stages*, each one kernel
//! event, so service centres keep FIFO order and CPU contention emerges
//! naturally. All four run through `Server::stage`:
//!
//! ```text
//! stage     work, and its pool when not pinned   cost          clock      then
//! guest tx  Guest(vm): the VM's vCPUs            guest_tx      tx, guest  placer: VIF tx | VF → NIC1
//! VIF tx    Vif{vm, tunneled}: vhost | tunnel q  vswitch_*     tx, VIF    htb → NIC0 | local guest rx
//! VIF rx    the same, within max_rx_backlog      vswitch_*     rx, VIF    htb-in → guest rx
//! guest rx  Guest(vm), then the wakeup latency   guest_rx      rx, guest  TCP/app, pump guest tx
//! ```
//!
//! The SR-IOV path skips both VIF stages (NIC1 ↔ VLAN demux ↔ guest) and
//! costs the host only interrupt isolation, accounted on the IRQ pool without
//! delaying the packet. Under `pinned_cpus` every kind of work shares one
//! pool. See [`crate::cost`] for the calibration rationale.

use fastrak_net::addr::{Ip, TenantId, VlanId};
use fastrak_net::ctrl::{Ctl, CtrlReply, CtrlRequest, Dir};
use fastrak_net::event::{Event, NetCtx};
use fastrak_net::flow::FlowKey;
use fastrak_net::packet::{Encap, L4Meta, Packet, PathTag};
use fastrak_net::port::EgressPort;
use fastrak_net::tunnel::{TunnelKey, TunnelMapping};
use fastrak_sim::cpu::CpuPool;
use fastrak_sim::kernel::{Api, Node, NodeId};
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_sim::FxHashMap;
use fastrak_transport::stack::ConnId;
use fastrak_transport::tcp::{TcpState, TcpStats, TSO_LIMIT};

use crate::app::GuestApi;
use crate::cost;
use crate::vm::Vm;
use crate::vswitch::{TxVerdict, Vswitch, VswitchConfig};

/// Timer tags used by server nodes.
pub mod tags {
    /// Resume a pending pipeline stage (`a` = token).
    pub const PENDING: u64 = 1;
    /// TCP stack timer (`a` = vm index).
    pub const TCP: u64 = 2;
    /// Application timer (`a` = vm index, `b` = app tag).
    pub const APP: u64 = 3;
    /// Start all guest applications.
    pub const START: u64 = 4;
}

/// Indices into a flow's clamp pair: the guest and VIF stages of the
/// transmit pipeline (`Vm::tx_clock`) and of the receive pipeline.
const TX_GUEST: usize = 0;
const TX_VIF: usize = 1;
const RX_VIF: usize = 0;
const RX_GUEST: usize = 1;

/// Index of the vswitch-side NIC port.
pub const PORT_SW: usize = 0;
/// Index of the SR-IOV-side NIC port.
pub const PORT_HW: usize = 1;

// Properties of the testbed server that no world varies (DESIGN.md §5.6);
// its NIC ports are `fastrak_net::port`'s links.
/// Threads of the software tunnel path. One: VXLAN work of all VMs
/// serialises on a single queue, the paper's ~2 Gbps bottleneck (§3.2.1).
const TUNNEL_THREADS: usize = 1;
/// Threads servicing SR-IOV interrupts (never the bottleneck: 0.15 µs each).
const IRQ_THREADS: usize = 2;

/// Static server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Name for traces.
    pub name: String,
    /// Provider-space IP (VXLAN tunnel endpoint).
    pub provider_ip: Ip,
    /// Maximum VFs on the SR-IOV port.
    pub max_vfs: usize,
    /// Drop receive work the host cannot start within this budget. Each
    /// refused frame is one [`ServerStats::rx_drops`], never a panic or a
    /// parked stage, and the guest's TCP recovers it like any loss. At the
    /// testbed's 5 ms, 1 024 SYNs reaching one VM's VIF path in the same
    /// instant lose 98 SYNs and 815 of the handshake ACKs queued behind
    /// them; SYN retransmission (200 ms initial RTO) establishes every
    /// connection by 0.21 s (the storm test in
    /// `tests/datapath_conservation.rs`).
    pub max_rx_backlog: SimDuration,
    /// When set, CE-mark (instead of queueing unmarked) any ECT packet that
    /// would wait longer than this in the NIC tx ring — RED-style marking
    /// at the host egress, the DCTCP deployment model's K threshold. Read
    /// per packet: experiments set it on servers already built.
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
            max_vfs: 4,
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
    /// Packets denied by the vswitch security policy, either direction.
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
}

/// Which service centre a stage's work queues on.
#[derive(Clone, Copy)]
enum Work {
    /// A VM's vCPUs: the guest stack, and what its app burns.
    Guest(usize),
    /// A VM's VIF-path host work: its vhost thread, or — tunneled — the
    /// single tunnel queue all VMs share.
    Vif { vm: usize, tunneled: bool },
    /// SR-IOV interrupt isolation.
    Irq,
}

/// Which per-flow clock orders a stage's completions (see
/// [`Server::rx_slots`]); the last member indexes the flow's clamp pair.
#[derive(Clone, Copy)]
enum Clock {
    /// A transmitted flow: (VM, connection, stage).
    Tx(usize, ConnId, usize),
    /// A received flow: ([`Server::rx_slot`], stage).
    Rx(u32, usize),
}

/// One pipeline stage of one packet, as [`Server::stage`] runs it.
struct Stage {
    work: Work,
    cost: SimDuration,
    clock: Clock,
    /// Earliest start (never before now).
    start: SimTime,
    /// Refuse the work when it could not start within this long.
    budget: Option<SimDuration>,
    /// Added to the completion time without occupying the CPU (wakeup).
    latency: SimDuration,
}

impl Stage {
    /// A stage that starts now, queues without bound and adds no latency.
    fn new(work: Work, cost: SimDuration, clock: Clock) -> Stage {
        Stage {
            work,
            cost,
            clock,
            start: SimTime::ZERO,
            budget: None,
            latency: SimDuration::ZERO,
        }
    }
}

/// What happens to a packet when the stage it is parked in completes.
#[allow(clippy::enum_variant_names)] // stages are all completions
#[derive(Clone)]
enum Pending {
    GuestTxDone {
        vm: usize,
        conn: ConnId,
        pkt: Packet,
    },
    VifTxDone {
        vm: usize,
        pkt: Packet,
        verdict: TxVerdict,
    },
    VifRxDone {
        vm: usize,
        /// The flow's receive clamp slot ([`Server::rx_slot`]).
        slot: u32,
        pkt: Packet,
    },
    GuestRxDone {
        vm: usize,
        pkt: Packet,
    },
}

/// What [`Server::rearm_tcp_timer`] does about a VM's kernel timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rearm {
    /// No connection holds a deadline: cancel the armed timer.
    Clear,
    /// The armed timer fires first (or at the same time): keep it.
    Keep,
    /// Cancel the armed timer, if any, and send one for this deadline.
    Arm(SimTime),
}

impl Rearm {
    /// The decision, given the stack's earliest deadline and the time the
    /// kernel timer is armed for.
    fn decide(earliest: Option<SimTime>, armed: Option<SimTime>) -> Rearm {
        match (earliest, armed) {
            (None, _) => Rearm::Clear,
            (Some(deadline), Some(at)) if at <= deadline => Rearm::Keep,
            (Some(deadline), _) => Rearm::Arm(deadline),
        }
    }
}

/// Record a TCP segment `(id, seq, payload)` in the trace ring, when enabled.
fn trace_segment(api: &mut Api<'_, Event, NetCtx>, who: &str, kind: &'static str, pkt: &Packet) {
    if let (true, L4Meta::Tcp { seq, .. }) = (api.ctx.trace.enabled(), pkt.l4) {
        let vals = [pkt.id, seq, pkt.payload as u64];
        api.ctx.trace.push(api.now, who, kind, vals);
    }
}

/// The server node.
#[derive(Clone)]
pub struct Server {
    /// Static configuration.
    pub cfg: ServerConfig,
    vms: Vec<Vm>,
    vswitch: Vswitch,
    nic: crate::sriov::SriovNic,
    tunnel_pool: CpuPool,
    irq_pool: CpuPool,
    /// Shared pool when `cfg.pinned_cpus` is set.
    pin_pool: Option<CpuPool>,
    /// Uplink wiring: (ToR node, ingress port index at the ToR) per local port.
    uplinks: [Option<(NodeId, usize)>; 2],
    /// The tx ring of each local port.
    rings: [EgressPort; 2],
    /// Stage table: packets parked between pipeline stages, indexed by the
    /// token their `tags::PENDING` timer carries. A slot is filled by
    /// [`Server::stash`], emptied when its timer fires, and its index
    /// reused, so the table stays as long as the most stages ever in flight.
    pending: Vec<Option<Pending>>,
    free_slots: Vec<usize>,
    /// Per-flow monotonic completion clamps, one per pipeline stage: real
    /// stacks preserve per-flow ordering via RSS/queue affinity even across
    /// parallel CPUs; without this, differing service times across a CPU
    /// pool would reorder a connection's segments and trigger spurious
    /// fast retransmits. A transmitted flow is a local connection, so its
    /// two clamps (guest, VIF) live in [`Vm::tx_clock`] under its
    /// `ConnId`. A received flow gets a slot here the first time it is
    /// seen — [`FlowKey::trace_hash`] → index into `rx_clock` (VIF,
    /// guest) — which the frame carries from stage to stage.
    rx_slots: FxHashMap<u64, u32>,
    rx_clock: Vec<[SimTime; 2]>,
    /// Scratch the guest app's timer and cpu-burn requests are collected in
    /// ([`Server::with_app`] takes both and puts them back empty).
    timer_reqs: Vec<(SimDuration, u64)>,
    cpu_burn: Vec<SimDuration>,
    /// Public counters.
    pub stats: ServerStats,
    /// Last observed SR-IOV path liveness (updated on the hw datapath,
    /// published as the `host.hw_path_up` gauge).
    hw_path_up: bool,
    /// Cached "name/vmN" labels so enabled tracing allocates nothing per
    /// record (the trace ring interns, but `format!` itself would allocate).
    vm_labels: Vec<String>,
}

impl Server {
    /// Build a server whose vswitch runs in configuration `vswitch`.
    pub fn new(cfg: ServerConfig, vswitch: VswitchConfig) -> Server {
        Server {
            vswitch: Vswitch::new(vswitch),
            nic: crate::sriov::SriovNic::new(cfg.max_vfs),
            tunnel_pool: CpuPool::new(TUNNEL_THREADS),
            irq_pool: CpuPool::new(IRQ_THREADS),
            pin_pool: cfg.pinned_cpus.map(CpuPool::new),
            uplinks: [None, None],
            rings: [EgressPort::default(); 2],
            pending: Vec::new(),
            free_slots: Vec::new(),
            rx_slots: FxHashMap::default(),
            rx_clock: Vec::new(),
            timer_reqs: Vec::new(),
            cpu_burn: Vec::new(),
            stats: ServerStats::default(),
            hw_path_up: true,
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

    /// ECT packets CE-marked in the NIC tx rings (marking is
    /// instead-of-dropping: none of them is also a `tx_ring_drops`).
    pub fn ecn_marked(&self) -> u64 {
        self.rings.iter().map(EgressPort::marked).sum()
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
            ("host.ecn_marked", self.ecn_marked()),
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
        let mut tcp = TcpStats::default();
        let mut conn_states = [0u64; TcpState::ALL.len()];
        let cwnd_id = reg.histogram("tcp.cwnd_bytes", server);
        for vm in &self.vms {
            for cid in vm.stack.conn_ids() {
                let conn = vm.stack.conn(cid);
                tcp += &conn.stats;
                conn_states[conn.state() as usize] += 1;
                reg.observe(cwnd_id, conn.cwnd());
            }
        }
        // `delayed_acks` never was a series, and the set of series is pinned.
        let published = tcp.fields().into_iter().filter(|f| f.0 != "delayed_acks");
        for (name, v) in published {
            let id = reg.counter(&format!("tcp.{name}"), server);
            reg.set_counter(id, v);
        }
        for (state, n) in TcpState::ALL.into_iter().zip(conn_states) {
            let id = reg.gauge(&format!("tcp.conns.{}", state.name()), server);
            reg.gauge_set(id, n as f64);
        }
    }

    /// Begin a CPU measurement window (paper's "# of CPUs for test").
    pub fn begin_cpu_window(&mut self, now: SimTime) {
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

    /// Average guest logical CPUs busy over the window (all VMs).
    pub fn guest_cpus_used(&self, now: SimTime) -> f64 {
        self.vms.iter().map(|v| v.vcpus.cpus_used(now)).sum()
    }

    /// Total logical CPUs busy over the window — the paper's test metric:
    /// the host's (tunnel queue, interrupts, the pinned pool, every vhost
    /// thread) plus the guests'.
    pub fn cpus_used(&self, now: SimTime) -> f64 {
        self.tunnel_pool.cpus_used(now)
            + self.irq_pool.cpus_used(now)
            + self.pin_pool.as_ref().map_or(0.0, |p| p.cpus_used(now))
            + self.vms.iter().map(|v| v.vhost.cpus_used(now)).sum::<f64>()
            + self.guest_cpus_used(now)
    }

    // ------------------------------------------------------------ stages --

    /// The service centre `work` queues on: under pinning, guest and
    /// hypervisor work compete in the one shared pool.
    fn pool(&mut self, work: Work) -> &mut CpuPool {
        match (&mut self.pin_pool, work) {
            (Some(pinned), _) => pinned,
            (None, Work::Guest(vm)) => &mut self.vms[vm].vcpus,
            (None, Work::Vif { tunneled: true, .. }) => &mut self.tunnel_pool,
            (None, Work::Vif { vm, .. }) => &mut self.vms[vm].vhost,
            (None, Work::Irq) => &mut self.irq_pool,
        }
    }

    /// Run one pipeline stage: queue its work, hold its completion to the
    /// flow's clock, park `next` in the stage table and wake it then.
    /// False — and `next` is gone — when the stage's backlog budget refused
    /// the work.
    #[inline]
    fn stage(&mut self, api: &mut Api<'_, Event, NetCtx>, s: Stage, next: Pending) -> bool {
        let start = s.start.max(api.now);
        let pool = self.pool(s.work);
        let done = match s.budget {
            None => pool.submit(start, s.cost),
            Some(budget) => match pool.try_submit(start, s.cost, budget) {
                Some(done) => done,
                None => return false,
            },
        };
        let clock = match s.clock {
            Clock::Tx(vm, conn, stage) => self.vms[vm].tx_clock_mut(conn, stage),
            Clock::Rx(slot, stage) => &mut self.rx_clock[slot as usize][stage],
        };
        *clock = (done + s.latency).max(*clock);
        let done = *clock;
        let wake = Event::Timer {
            tag: tags::PENDING,
            a: self.stash(next),
            b: 0,
        };
        api.send_at(api.self_id, done, wake);
        true
    }

    /// Host CPU of one VIF-stage traversal by `pkt`, VM `vm`'s htb in that
    /// direction included when one is configured.
    fn vif_cost(&self, vm: usize, dir: Dir, pkt: &Packet, tunneled: bool) -> SimDuration {
        let rate_limited = self.vswitch.vif_rate(vm, dir).is_some();
        if tunneled {
            cost::vswitch_tunneled(pkt, rate_limited)
        } else {
            cost::vswitch_fast(pkt, rate_limited)
        }
    }

    /// The receive clamp slot of `flow`, allotted on first sight.
    fn rx_slot(&mut self, flow: &FlowKey) -> u32 {
        let next = self.rx_clock.len() as u32;
        let slot = *self.rx_slots.entry(flow.trace_hash()).or_insert(next);
        if slot == next {
            self.rx_clock.push([SimTime::ZERO; 2]);
        }
        slot
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

    /// Pull segments out of a VM's TCP stack into the guest-tx stage.
    fn pump_vm(&mut self, api: &mut Api<'_, Event, NetCtx>, vm_idx: usize) {
        loop {
            let vm = &mut self.vms[vm_idx];
            if vm.tx_inflight >= vm.spec.tx_width {
                break;
            }
            let Some((conn, plan)) = vm.stack.poll_transmit(api.now, TSO_LIMIT) else {
                break;
            };
            vm.tx_inflight += 1;
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
            let (vm, cost) = (vm_idx, cost::guest_tx(&pkt));
            let stage = Stage::new(Work::Guest(vm), cost, Clock::Tx(vm, conn, TX_GUEST));
            self.stage(api, stage, Pending::GuestTxDone { vm, conn, pkt });
        }
        self.rearm_tcp_timer(api, vm_idx);
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
        let mut timer_reqs = std::mem::take(&mut self.timer_reqs);
        let mut cpu_burn = std::mem::take(&mut self.cpu_burn);
        {
            let mut g = GuestApi {
                now: api.now,
                tenant: vm.spec.tenant,
                vm_ip: vm.spec.ip,
                stack: &mut vm.stack,
                timer_reqs: &mut timer_reqs,
                cpu_burn: &mut cpu_burn,
            };
            f(app.as_mut(), &mut g);
        }
        self.vms[vm_idx].app = Some(app);
        for (delay, tag) in timer_reqs.drain(..) {
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
        for work in cpu_burn.drain(..) {
            self.pool(Work::Guest(vm_idx)).submit(api.now, work);
        }
        // Back before the nested drain: its handlers collect into them too.
        self.timer_reqs = timer_reqs;
        self.cpu_burn = cpu_burn;
        self.drain_stack_events(api, vm_idx);
    }

    /// Deliver queued socket events to the app (which may generate more).
    fn drain_stack_events(&mut self, api: &mut Api<'_, Event, NetCtx>, vm_idx: usize) {
        for _round in 0..64 {
            let stack = &mut self.vms[vm_idx].stack;
            // A handler's own events are delivered (by `with_app`) before
            // the next one of this round: e1, what e1 raised, e2. One queued
            // event — nearly every round — needs no batch to keep that order.
            if stack.events_len() > 1 {
                for ev in stack.drain_events() {
                    self.with_app(api, vm_idx, |app, g| app.on_event(ev, g));
                }
            } else if let Some(ev) = stack.pop_event() {
                self.with_app(api, vm_idx, |app, g| app.on_event(ev, g));
            } else {
                return;
            }
        }
        debug_assert!(
            self.vms[vm_idx].stack.events_len() == 0,
            "app/stack event loop did not quiesce"
        );
    }

    // One kernel timer per VM, cancelled when superseded: a cleared or
    // re-armed timer never fires.
    //
    // The question asked after every pump is "is any deadline earlier than
    // the timer already armed?", and nearly always the stack can say no in
    // O(1): nobody holds a timer, or the armed one is no later than the
    // stack's floor. Only otherwise is the exact earliest deadline needed.
    fn rearm_tcp_timer(&mut self, api: &mut Api<'_, Event, NetCtx>, vm_idx: usize) {
        let vm = &mut self.vms[vm_idx];
        let armed = vm.tcp_timer.map(|(at, _)| at);
        let rearm = if !vm.stack.has_timers() {
            Rearm::Clear
        } else if armed.is_some_and(|at| at <= vm.stack.timer_floor()) {
            Rearm::Keep
        } else {
            Rearm::decide(vm.stack.next_timer(), armed)
        };
        #[cfg(debug_assertions)]
        {
            // The same decision from the earliest deadline alone, found by a
            // scan that neither reads nor tightens the index.
            let stack = &vm.stack;
            let deadlines = stack.conn_ids().filter_map(|c| stack.conn(c).next_timer());
            let earliest = deadlines.map(|(t, _)| t).min();
            debug_assert_eq!(rearm, Rearm::decide(earliest, armed), "vm {vm_idx}");
        }
        if rearm == Rearm::Keep {
            return;
        }
        if let Some((_, old)) = vm.tcp_timer.take() {
            api.cancel(old);
        }
        if let Rearm::Arm(deadline) = rearm {
            let ev = Event::Timer {
                tag: tags::TCP,
                a: vm_idx as u64,
                b: 0,
            };
            vm.tcp_timer = Some((deadline, api.send_at(api.self_id, deadline, ev)));
        }
    }

    /// Guest-tx stage done: the flow placer picks the interface, then the
    /// packet enters the VIF-tx stage or leaves through its VF.
    fn on_guest_tx_done(
        &mut self,
        api: &mut Api<'_, Event, NetCtx>,
        vm_idx: usize,
        conn: ConnId,
        pkt: Packet,
    ) {
        self.vms[vm_idx].tx_inflight -= 1;
        let path = self.vms[vm_idx].placer.place(&pkt.flow);
        if api.ctx.telemetry.spans.enabled() {
            // Path-residency span per (vm, flow): same-path calls are no-ops,
            // a placement change closes the old span and opens the next one.
            let spans = &mut api.ctx.telemetry.spans;
            let comp = spans.comp(&self.vm_labels[vm_idx]);
            let name = match path {
                PathTag::SrIov => "sriov",
                PathTag::Vif => "vif",
            };
            spans.track_flow_path(api.now.as_nanos(), comp, pkt.flow.trace_hash(), name);
        }
        match path {
            PathTag::Vif => {
                let r = self.vswitch.process_tx(&pkt.flow, pkt.wire_bytes_total());
                let tunneled = matches!(r.verdict, TxVerdict::UplinkTunneled(_));
                let mut cost = self.vif_cost(vm_idx, Dir::Egress, &pkt, tunneled);
                if r.slow_path {
                    cost += cost::vswitch_slow_path(self.vswitch.n_rules());
                }
                let (vm, verdict) = (vm_idx, r.verdict);
                let work = Work::Vif { vm, tunneled };
                let stage = Stage::new(work, cost, Clock::Tx(vm, conn, TX_VIF));
                self.stage(api, stage, Pending::VifTxDone { vm, pkt, verdict });
            }
            PathTag::SrIov => self.vf_tx(api, vm_idx, pkt),
        }
        // Keep the pipeline full.
        self.pump_vm(api, vm_idx);
    }

    /// Transmit through the VM's VF: no host stage, only interrupt isolation.
    fn vf_tx(&mut self, api: &mut Api<'_, Event, NetCtx>, vm_idx: usize, mut pkt: Packet) {
        // Dead VF (chaos): the placer still steers into the hardware path —
        // the NIC just eats the packet. Falling back to the vswitch here
        // would mask the failure; recovery is the control plane's job
        // (HwPathReport → force demote).
        if self.hw_path_dark(api) {
            return;
        }
        // Interrupt-isolation cost is asynchronous: account it on the irq
        // pool without delaying the packet. The path's hardware rate limit
        // is the ToR's (§4.1.4).
        self.pool(Work::Irq)
            .submit(api.now, cost::SRIOV_HOST_PER_IRQ);
        let Some(vlan) = self.nic.tx_through_vf(vm_idx) else {
            // No VF: misconfiguration; falling back to the vswitch path
            // would hide the bug — drop and count instead.
            self.stats.policy_drops += 1;
            return;
        };
        pkt.encap(Encap::Vlan(vlan.0));
        self.nic_tx(api, PORT_HW, api.now, pkt);
    }

    /// VIF-tx stage done: act on the vswitch's verdict.
    fn on_vif_tx_done(
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
                let slot = self.rx_slot(&pkt.flow);
                self.deliver_to_guest(api, dst_vm, slot, pkt, true);
            }
            TxVerdict::UplinkPlain | TxVerdict::UplinkTunneled(_) => {
                if let TxVerdict::UplinkTunneled(m) = verdict {
                    pkt.encap(Encap::Vxlan {
                        vni: pkt.flow.tenant.vni(),
                        src: self.cfg.provider_ip,
                        dst: m.server_ip,
                    });
                }
                let wire = pkt.wire_bytes_total();
                let at = self.vswitch.shape(vm_idx, Dir::Egress, api.now, wire);
                self.nic_tx(api, PORT_SW, at, pkt);
            }
        }
    }

    /// Observe the SR-IOV path's liveness for a packet about to cross it;
    /// when it is dark (a chaos VF failure) the packet is one `hw_path_drops`.
    fn hw_path_dark(&mut self, api: &Api<'_, Event, NetCtx>) -> bool {
        self.hw_path_up = !api.chaos_vf_down_at(api.self_id);
        if !self.hw_path_up {
            self.stats.hw_path_drops += 1;
        }
        !self.hw_path_up
    }

    /// Queue a packet on a NIC tx ring from `at` (a shaper's release time).
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
        let wire = pkt.wire_bytes_total();
        let threshold = self.cfg.ecn_mark_threshold;
        let Some(arrive) = self.rings[port].admit(at.max(api.now), wire, &mut pkt.ecn, threshold)
        else {
            self.stats.tx_ring_drops += 1;
            return;
        };
        if port == PORT_SW {
            self.stats.tx_sw_frames += 1;
        } else {
            self.stats.tx_hw_frames += 1;
        }
        let kind = if port == PORT_SW { "tx-sw" } else { "tx-hw" };
        trace_segment(api, &self.cfg.name, kind, &pkt);
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
                if self.hw_path_dark(api) {
                    return;
                }
                // Untagged, or a tag and address no VF carries: drop.
                let vlan = pkt.outer_vlan();
                let vf = vlan.and_then(|vlan| self.nic.demux_vlan(vlan, pkt.flow.dst_ip));
                let Some(vm_idx) = vf else {
                    self.stats.rx_drops += 1;
                    return;
                };
                pkt.decap(); // NIC strips the VLAN tag (§4.2.2)
                self.pool(Work::Irq)
                    .submit(api.now, cost::SRIOV_HOST_PER_IRQ);
                let slot = self.rx_slot(&pkt.flow);
                self.deliver_to_guest(api, vm_idx, slot, pkt, false);
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
                let vm = match self.vswitch.process_rx(&pkt.flow, wire) {
                    Ok(vm) => vm,
                    Err(TxVerdict::Denied) => {
                        self.stats.policy_drops += 1;
                        return;
                    }
                    Err(_) => {
                        self.stats.rx_drops += 1;
                        return;
                    }
                };
                let cost = self.vif_cost(vm, Dir::Ingress, &pkt, tunneled);
                let slot = self.rx_slot(&pkt.flow);
                let stage = Stage {
                    budget: Some(self.cfg.max_rx_backlog),
                    ..Stage::new(Work::Vif { vm, tunneled }, cost, Clock::Rx(slot, RX_VIF))
                };
                if !self.stage(api, stage, Pending::VifRxDone { vm, slot, pkt }) {
                    self.stats.rx_drops += 1;
                }
            }
            other => panic!("server {} has no port {other}", self.cfg.name),
        }
    }

    /// Enter the guest-rx stage: what came through the VIF passes its ingress
    /// htb first; then guest rx CPU, then the wakeup.
    fn deliver_to_guest(
        &mut self,
        api: &mut Api<'_, Event, NetCtx>,
        vm: usize,
        slot: u32,
        pkt: Packet,
        via_vif: bool,
    ) {
        let (start, latency) = if via_vif {
            let wire = pkt.wire_bytes_total();
            let released = self.vswitch.shape(vm, Dir::Ingress, api.now, wire);
            (released, cost::vif_notify(api.rng))
        } else {
            (api.now, cost::sriov_notify(api.rng))
        };
        let cost = cost::guest_rx(&pkt);
        let stage = Stage {
            start,
            latency,
            ..Stage::new(Work::Guest(vm), cost, Clock::Rx(slot, RX_GUEST))
        };
        self.stage(api, stage, Pending::GuestRxDone { vm, pkt });
    }

    /// Guest-rx stage done: the stack takes the segment, the app its events.
    fn on_guest_rx_done(&mut self, api: &mut Api<'_, Event, NetCtx>, vm_idx: usize, pkt: Packet) {
        trace_segment(api, &self.vm_labels[vm_idx], "rx", &pkt);
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
                    Event::ctl(
                        api.self_id,
                        Ctl::Reply(CtrlReply::FlowStats { xid, entries }),
                    ),
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
            CtrlRequest::SetVifRate {
                tenant,
                vm_ip,
                dir,
                bps,
            } => {
                if let Some(idx) = self.vm_by_ip(tenant, vm_ip) {
                    self.vswitch.set_vif_rate(idx, dir, bps);
                }
            }
            CtrlRequest::SetHwRate { .. }
            | CtrlRequest::InstallTorRules { .. }
            | CtrlRequest::RemoveTorRules { .. }
            | CtrlRequest::DumpTorRules { .. }
            | CtrlRequest::Probe { .. } => {
                // Not a server operation: the hardware path's rules and rate
                // limits live in the ToR. Ignore (a real switch agent would
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
                        Pending::GuestTxDone { vm, conn, pkt } => {
                            self.on_guest_tx_done(api, vm, conn, pkt)
                        }
                        Pending::VifTxDone { vm, pkt, verdict } => {
                            self.on_vif_tx_done(api, vm, pkt, verdict)
                        }
                        Pending::VifRxDone { vm, slot, pkt } => {
                            self.deliver_to_guest(api, vm, slot, pkt, true)
                        }
                        Pending::GuestRxDone { vm, pkt } => self.on_guest_rx_done(api, vm, pkt),
                    }
                }
                tags::TCP => {
                    let vm_idx = a as usize;
                    let vm = &mut self.vms[vm_idx];
                    let armed = vm.tcp_timer.take();
                    debug_assert!(
                        armed.is_some_and(|(at, _)| at <= api.now),
                        "vm {vm_idx}: a TCP timer fired that was not the armed one"
                    );
                    vm.stack.on_timer(api.now);
                    self.drain_stack_events(api, vm_idx);
                    self.pump_vm(api, vm_idx);
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
            Event::Ctl(msg) => match msg.body {
                Ctl::Req(req) => self.on_ctrl(api, msg.from, req),
                // Controllers talk to each other and to the ToR through
                // these; a server only answers requests.
                Ctl::Reply(_)
                | Ctl::Report(_)
                | Ctl::Decision(_)
                | Ctl::Migration(_)
                | Ctl::HwPath(_) => {}
            },
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
    use crate::vm::VmSpec;
    use fastrak_net::flow::Proto;
    use fastrak_net::headers::tcp_flags;
    use fastrak_sim::kernel::Kernel;
    use fastrak_transport::stack::SockEvent;

    const TENANT: TenantId = TenantId(7);

    #[derive(Clone)]
    struct NullApp;

    impl crate::app::GuestApp for NullApp {
        fn on_start(&mut self, _api: &mut GuestApi<'_>) {}
        fn on_event(&mut self, _ev: SockEvent, _api: &mut GuestApi<'_>) {}
        fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}
    }

    /// A testbed server without VMs, tunneling off.
    fn bare_server() -> Server {
        let cfg = ServerConfig::testbed("s0", Ip::new(192, 168, 0, 1));
        Server::new(cfg, VswitchConfig::default())
    }

    fn server() -> Server {
        let mut srv = bare_server();
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

    fn parked(id: u64) -> Pending {
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
        let toks: Vec<u64> = (0..3).map(|i| srv.stash(parked(i))).collect();
        assert_eq!(toks, [0, 1, 2]);
        assert_eq!(srv.stages_in_flight(), 3);
        assert_eq!(srv.unstash(1).map(packet_id), Some(1));
        assert_eq!(srv.stages_in_flight(), 2);
        // The freed slot is the next token; the table did not grow.
        assert_eq!(srv.stash(parked(3)), 1);
        assert_eq!(srv.pending.len(), 3);
        assert_eq!(srv.unstash(1).map(packet_id), Some(3));
        assert_eq!(srv.unstash(0).map(packet_id), Some(0));
        assert_eq!(srv.unstash(2).map(packet_id), Some(2));
        assert_eq!(srv.stages_in_flight(), 0);
    }

    #[test]
    fn vacant_or_out_of_range_token_frees_nothing() {
        let mut srv = server();
        let a = srv.stash(parked(0));
        let b = srv.stash(parked(1));
        assert!(srv.unstash(a).is_some());
        // A second fire of the same token, a token past the table and the
        // largest token there is: all ignored.
        assert!(srv.unstash(a).is_none());
        assert!(srv.unstash(99).is_none());
        assert!(srv.unstash(u64::MAX).is_none());
        assert_eq!(srv.free_slots, [a as usize], "slot freed exactly once");
        assert_eq!(srv.stages_in_flight(), 1);
        // A double free would hand slot `a` out twice and overwrite a stage.
        let c = srv.stash(parked(2));
        let d = srv.stash(parked(3));
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

    // ------------------------------------------------- guest turn tests --

    const VM_IP: Ip = Ip::new(10, 0, 0, 2);

    /// A TCP segment from the remote peer `10.0.0.1:src_port` to the VM's
    /// port 7000.
    fn segment(id: u64, src_port: u16, seq: u64, flags: u8, payload: u32) -> Packet {
        let flow = FlowKey {
            tenant: TENANT,
            src_ip: Ip::new(10, 0, 0, 1),
            dst_ip: VM_IP,
            proto: Proto::Tcp,
            src_port,
            dst_port: 7000,
        };
        let l4 = L4Meta::Tcp { seq, ack: 1, flags };
        Packet::new(id, flow, l4, payload, SimTime::ZERO)
    }

    fn syn(src_port: u16) -> Packet {
        segment(0, src_port, 0, tcp_flags::SYN, 0)
    }

    fn timer(tag: u64) -> Event {
        Event::Timer { tag, a: 0, b: 0 }
    }

    /// Records the socket events it is handed. Its app timer queues two
    /// accepts at once; the first event it sees queues a third from inside
    /// the handler.
    #[derive(Clone, Default)]
    struct Nesting {
        seen: Vec<SockEvent>,
    }

    impl crate::app::GuestApp for Nesting {
        fn on_start(&mut self, api: &mut GuestApi<'_>) {
            api.listen(7000);
        }
        fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
            if self.seen.is_empty() {
                api.stack.on_packet(api.now, &syn(40_002));
            }
            self.seen.push(ev);
        }
        fn on_timer(&mut self, _tag: u64, api: &mut GuestApi<'_>) {
            api.stack.on_packet(api.now, &syn(40_000));
            api.stack.on_packet(api.now, &syn(40_001));
        }
    }

    #[test]
    fn events_a_handler_raises_are_delivered_before_the_rest_of_its_batch() {
        let mut k: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), 1);
        let mut srv = bare_server();
        let spec = VmSpec::medium("vm0", TENANT, VM_IP);
        srv.add_vm(Vm::new(spec, Box::<Nesting>::default()), None);
        let sid = k.add_node(srv);
        k.post(sid, SimTime::from_micros(1), timer(tags::START));
        k.post(sid, SimTime::from_micros(2), timer(tags::APP));
        // (Not to completion: the unanswered SYN|ACKs retransmit for good.)
        k.run_until(SimTime::from_micros(100));
        let accepted = |conn| SockEvent::Accepted {
            conn: ConnId(conn),
            port: 7000,
        };
        // e1, what e1's handler raised, e2 — not e1, e2, nested.
        let seen = &k.node::<Server>(sid).vm(0).app_as::<Nesting>().seen;
        assert_eq!(seen[..], [accepted(0), accepted(2), accepted(1)]);
    }

    /// Frames in arrival order: (TCP seq, payload).
    #[derive(Default)]
    struct Sink {
        frames: Vec<(u64, u32)>,
    }

    impl Node<Event, NetCtx> for Sink {
        fn on_event(&mut self, ev: Event, _api: &mut Api<'_, Event, NetCtx>) {
            if let Event::Frame { pkt, .. } = ev {
                let L4Meta::Tcp { seq, .. } = pkt.l4 else {
                    panic!("TCP only")
                };
                self.frames.push((seq, pkt.payload));
            }
        }
        fn name(&self) -> &str {
            "sink"
        }
    }

    /// Answers every accept with a large write and a small one.
    #[derive(Clone)]
    struct TwoWrites;

    impl crate::app::GuestApp for TwoWrites {
        fn on_start(&mut self, api: &mut GuestApi<'_>) {
            api.listen(7000);
        }
        fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
            if let SockEvent::Accepted { conn, .. } = ev {
                assert!(api.send(conn, 14_000) && api.send(conn, 100));
            }
        }
        fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}
    }

    /// One 4-vCPU VM on the SR-IOV path wired to a sink: of two segments
    /// submitted at one instant the smaller finishes its guest stage first
    /// (the guest pays per byte), on another vCPU.
    fn clamp_world() -> (Kernel<Event, NetCtx>, NodeId, NodeId) {
        let mut k: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), 1);
        k.ctx.trace.set_enabled(true);
        let sink = k.add_node(Sink::default());
        let mut srv = bare_server();
        let spec = VmSpec::large("vm0", TENANT, VM_IP);
        let vm = srv.add_vm(Vm::new(spec, Box::new(TwoWrites)), Some(VlanId::new(100)));
        let placer = &mut srv.vm_mut(vm).placer;
        placer.install_rule(fastrak_net::flow::FlowSpec::ANY, 1, PathTag::SrIov);
        srv.attach_uplink(PORT_HW, sink, 0);
        let sid = k.add_node(srv);
        k.post(sid, SimTime::from_micros(1), timer(tags::START));
        (k, sid, sink)
    }

    /// Post `pkt` as a VLAN-tagged frame on the SR-IOV port.
    fn post_hw(k: &mut Kernel<Event, NetCtx>, sid: NodeId, at_us: u64, mut pkt: Packet) {
        pkt.encap(Encap::Vlan(100));
        let port = PORT_HW;
        k.post(sid, SimTime::from_micros(at_us), Event::Frame { port, pkt });
    }

    #[test]
    fn one_flows_segments_leave_the_guest_tx_stage_in_order() {
        let (mut k, sid, sink) = clamp_world();
        // Handshake; the ACK releases both writes into one pump.
        post_hw(&mut k, sid, 10, syn(40_000));
        post_hw(&mut k, sid, 200, segment(1, 40_000, 1, tcp_flags::ACK, 0));
        k.run_until(SimTime::from_micros(400));
        let frames = &k.node::<Sink>(sink).frames;
        assert_eq!(frames[..], [(0, 0), (1, 14_000), (14_001, 100)]);
        // The 100-byte segment's vCPU was done 0.42 us before the other's;
        // it left with it, at the flow's clock.
        let clock = k.node::<Server>(sid).vm(0).tx_clock.clone();
        assert_eq!(clock.len(), 1);
        let sent: Vec<SimTime> = (k.ctx.trace.drain().iter())
            .filter(|r| r.kind == "tx-hw")
            .map(|r| r.at)
            .collect();
        assert_eq!(sent[1..], [clock[0][TX_GUEST]; 2]);

        // The peer resets; a fresh SYN on the flow key reuses connection 0,
        // and with it the clamp slot and the clock in it.
        post_hw(&mut k, sid, 400, segment(2, 40_000, 1, tcp_flags::RST, 0));
        post_hw(&mut k, sid, 500, syn(40_000));
        k.run_until(SimTime::from_micros(700));
        let srv = k.node::<Server>(sid);
        assert_eq!(srv.vm(0).stack.len(), 1);
        assert_eq!(srv.vm(0).tx_clock.len(), 1);
        assert!(srv.vm(0).tx_clock[0][TX_GUEST] > clock[0][TX_GUEST]);
        assert_eq!(k.node::<Sink>(sink).frames.last(), Some(&(0, 0)));
    }

    #[test]
    fn one_flows_segments_leave_the_guest_rx_stage_in_order() {
        let (mut k, sid, _sink) = clamp_world();
        post_hw(&mut k, sid, 10, syn(40_000));
        // Rounds of a 30 000-byte super-segment and a 64-byte one in the
        // same instant, and another flow's 64-byte segment: each small one's
        // guest work is done 0.9 us sooner, and every segment draws its own
        // wakeup jitter (mean 2.5 us).
        const ROUNDS: u64 = 8;
        const OTHER: u64 = 100;
        let mut seq = 1;
        for round in 0..ROUNDS {
            let at = 200 + 100 * round;
            let big = segment(1 + 2 * round, 40_000, seq, tcp_flags::ACK, 30_000);
            let small = segment(2 + 2 * round, 40_000, seq + 30_000, tcp_flags::ACK, 64);
            let other = segment(OTHER + round, 40_001, 1, tcp_flags::ACK, 64);
            for pkt in [big, small, other] {
                post_hw(&mut k, sid, at, pkt);
            }
            seq += 30_064;
        }
        k.run_until(SimTime::from_micros(1_100));
        let rx: Vec<(SimTime, u64)> = (k.ctx.trace.drain().iter())
            .filter(|r| r.kind == "rx")
            .map(|r| (r.at, r.vals[0]))
            .collect();
        // The flow's segments reach the guest in sequence order...
        let ids: Vec<u64> = rx.iter().map(|r| r.1).filter(|&id| id < OTHER).collect();
        assert_eq!(ids, (0..=2 * ROUNDS).collect::<Vec<_>>());
        // ... while the other flow's overtake them: it has a clock of its own.
        let when = |id| rx.iter().find(|r| r.1 == id).unwrap().0;
        let overtook = (0..ROUNDS).filter(|&r| when(OTHER + r) < when(1 + 2 * r));
        assert!(overtook.count() > 0);
        let srv = k.node::<Server>(sid);
        assert_eq!(srv.rx_clock.len(), 2, "one slot per received flow");
        assert_eq!(srv.vm(0).stack.conn(ConnId(0)).stats.ooo_segs_rx, 0);
    }
    #[test]
    fn rate_requests_reach_the_named_tenants_vm_when_two_tenants_share_an_ip() {
        let mut k: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), 1);
        let mut srv = bare_server();
        let tenants = [TenantId(1), TenantId(2)];
        for (i, tenant) in tenants.into_iter().enumerate() {
            let spec = VmSpec::medium(format!("vm{i}"), tenant, VM_IP);
            srv.add_vm(Vm::new(spec, Box::new(NullApp)), None);
        }
        let sid = k.add_node(srv);
        // (egress, ingress) VIF limit of each VM.
        let rates = |k: &mut Kernel<Event, NetCtx>| {
            let vs = k.node::<Server>(sid).vswitch();
            [0, 1].map(|vm| (vs.vif_rate(vm, Dir::Egress), vs.vif_rate(vm, Dir::Ingress)))
        };
        let mut at = 0;
        let mut request = |k: &mut Kernel<Event, NetCtx>, tenant, dir, bps| {
            at += 1;
            let req = CtrlRequest::SetVifRate {
                tenant,
                vm_ip: VM_IP,
                dir,
                bps,
            };
            k.post(
                sid,
                SimTime::from_micros(at),
                Event::ctl(sid, Ctl::Req(req)),
            );
            k.run_until(SimTime::from_micros(at));
        };
        // The second tenant's limit lands on the second VM, not on the
        // first VM that happens to have the address.
        let second = (Some(2_000_000_000), None);
        request(&mut k, tenants[1], Dir::Egress, 2_000_000_000);
        assert_eq!(rates(&mut k), [(None, None), second]);
        // ... and the first tenant's on the first.
        let first = (None, Some(1_000_000_000));
        request(&mut k, tenants[0], Dir::Ingress, 1_000_000_000);
        assert_eq!(rates(&mut k), [first, second]);
        // A tenant with no VM at that address changes nothing.
        request(&mut k, TenantId(3), Dir::Ingress, 1_000_000_000);
        assert_eq!(rates(&mut k), [first, second]);
    }

    /// Replies, controller-to-controller messages and requests for the
    /// ToR reach a server only by mistake: it sends nothing back, and its
    /// placers and VIF limits stay as they were.
    #[test]
    fn control_messages_a_server_does_not_handle_change_nothing() {
        use fastrak_net::ctrl::{
            DemandReport, FlowStatEntry, HwPathReport, MigrationPrepare, OffloadDecision,
        };
        use fastrak_net::flow::FlowSpec;

        let mut k: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), 1);
        let sid = k.add_node(server());
        let vm_ip = Ip::new(10, 0, 0, 2);
        let server_ip = Ip::new(192, 168, 0, 1);
        let agg = fastrak_net::flow::FlowAggregate::SrcApp {
            tenant: TENANT,
            ip: vm_ip,
            port: 1000,
        };
        let decision = OffloadDecision {
            interval: 1,
            offload: vec![agg],
            demote: Vec::new(),
            hw_agg_bps: vec![(agg, 1e9)],
        };
        let spec = FlowSpec::ANY;
        let (tenant, dir, bps) = (TENANT, Dir::Egress, 1);
        let stray = [
            Ctl::Req(CtrlRequest::InstallTorRules {
                rules: Vec::new(),
                xid: 1,
            }),
            Ctl::Req(CtrlRequest::RemoveTorRules {
                rules: vec![(tenant, spec)],
            }),
            Ctl::Req(CtrlRequest::DumpTorRules { xid: 2 }),
            Ctl::Req(CtrlRequest::Probe { xid: 3 }),
            Ctl::Req(CtrlRequest::SetHwRate {
                tenant,
                vm_ip,
                dir,
                bps,
            }),
            Ctl::Reply(CtrlReply::FlowStats {
                xid: 4,
                entries: Vec::<FlowStatEntry>::new(),
            }),
            Ctl::Report(DemandReport {
                interval: 1,
                server_ip,
                entries: Vec::new(),
            }),
            Ctl::Decision(decision),
            Ctl::Migration(MigrationPrepare { tenant, vm_ip }),
            Ctl::HwPath(HwPathReport {
                server_ip,
                up: false,
                vms: vec![(tenant, vm_ip)],
            }),
        ];
        let n = stray.len() as u64;
        for body in stray {
            k.post(sid, SimTime::ZERO, Event::ctl(sid, body));
        }
        k.run_to_completion();
        assert_eq!(k.events_processed(), n, "the server sent something");
        let srv = k.node::<Server>(sid);
        assert_eq!(srv.vms[0].placer.n_rules(), 0);
        for dir in [Dir::Egress, Dir::Ingress] {
            assert_eq!(srv.vswitch().vif_rate(0, dir), None);
        }
    }
}
