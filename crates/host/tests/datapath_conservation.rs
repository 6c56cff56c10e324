//! Component-level driver for the server receive path: seeded same-instant
//! frame waves arrive on both ports of one `Server` — deliverable, mis-tagged,
//! mis-routed, denied by the tenant's security policy, over the rx backlog,
//! and into a dark SR-IOV path — and every
//! received frame must end at a guest stack or in exactly one drop counter,
//! with no pipeline stage left parked once the kernel has drained. The second
//! test dials 1 024 connections at one server in the same instant.

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_host::server::{tags, Server, ServerConfig, ServerStats, PORT_HW, PORT_SW};
use fastrak_host::vm::{Vm, VmSpec};
use fastrak_host::vswitch::VswitchConfig;
use fastrak_net::addr::{Ip, TenantId, VlanId};
use fastrak_net::event::{ctl_fault_layer, Event, NetCtx};
use fastrak_net::flow::{FlowKey, FlowSpec, Proto};
use fastrak_net::headers::tcp_flags;
use fastrak_net::packet::{Encap, L4Meta, Packet};
use fastrak_net::rules::{Action, SecurityRule};
use fastrak_sim::chaos::ChaosConfig;
use fastrak_sim::fault::FaultConfig;
use fastrak_sim::kernel::{Api, Kernel, Node, NodeId};
use fastrak_sim::rng::Rng;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_sim::FxHashSet;
use fastrak_transport::stack::{SockEvent, TcpStack};
use fastrak_transport::tcp::{TcpConfig, TSO_LIMIT};

const TENANT: TenantId = TenantId(7);
const HERE: Ip = Ip::new(192, 168, 0, 1);

/// The vswitch denies this destination port.
const DENIED_PORT: u16 = 22;

fn key(dst: u8) -> FlowKey {
    FlowKey {
        tenant: TENANT,
        src_ip: Ip::new(10, 0, 0, 1),
        dst_ip: Ip::new(10, 0, 0, dst),
        proto: Proto::Tcp,
        src_port: 40_000,
        dst_port: 1000,
    }
}

#[derive(Clone)]
struct NullApp;

impl GuestApp for NullApp {
    fn on_start(&mut self, _api: &mut GuestApi<'_>) {}
    fn on_event(&mut self, _ev: SockEvent, _api: &mut GuestApi<'_>) {}
    fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}
}

fn test_server() -> Server {
    let mut cfg = ServerConfig::testbed("s0", HERE);
    // Short enough that the larger software-port waves overflow it.
    cfg.max_rx_backlog = SimDuration::from_micros(20);
    let mut srv = Server::new(cfg, VswitchConfig::default());
    for (i, ip) in [Ip::new(10, 0, 0, 2), Ip::new(10, 0, 0, 4)]
        .iter()
        .enumerate()
    {
        let spec = VmSpec {
            name: format!("vm{i}"),
            tenant: TENANT,
            ip: *ip,
            vcpus: 2,
            tx_width: 2,
        };
        srv.add_vm(
            Vm::new(spec, Box::new(NullApp)),
            Some(VlanId::new(100 + i as u16)),
        );
    }
    srv.vswitch_mut().rules_mut().add_security(SecurityRule {
        spec: FlowSpec {
            tenant: Some(TENANT),
            dst_port: Some(DENIED_PORT),
            ..FlowSpec::ANY
        },
        priority: 5,
        action: Action::Deny,
    });
    srv
}

const CLASSES: u64 = 9;

/// What the frames of one receive class look like.
struct Class {
    flow: FlowKey,
    encap: Option<Encap>,
    port: usize,
    /// Does a healthy, unloaded server hand such a frame to a guest?
    deliverable: bool,
}

fn class(c: u64) -> Class {
    let vxlan = |dst| {
        Some(Encap::Vxlan {
            vni: TENANT.vni(),
            src: Ip::new(192, 168, 0, 9),
            dst,
        })
    };
    let (flow, encap, port, deliverable) = match c {
        // VXLAN-tunneled to a local VM on the software port.
        0 => (key(2), vxlan(HERE), PORT_SW, true),
        // Untunneled to a local VM on the software port.
        1 => (key(4), None, PORT_SW, true),
        // VLAN-tagged on the SR-IOV port, one VF each.
        2 => (key(2), Some(Encap::Vlan(100)), PORT_HW, true),
        3 => (key(4), Some(Encap::Vlan(101)), PORT_HW, true),
        // Mis-tagged: no VF carries this VLAN.
        4 => (key(2), Some(Encap::Vlan(999)), PORT_HW, false),
        // Untagged on the SR-IOV port.
        5 => (key(2), None, PORT_HW, false),
        // VXLAN addressed to another server.
        6 => (key(2), vxlan(Ip::new(192, 168, 0, 7)), PORT_SW, false),
        // VXLAN to this server for a VM that does not live here.
        7 => (key(9), vxlan(HERE), PORT_SW, false),
        // To a local VM, on a port the tenant's policy denies.
        _ => {
            let dst_port = DENIED_PORT;
            (FlowKey { dst_port, ..key(4) }, None, PORT_SW, false)
        }
    };
    Class {
        flow,
        encap,
        port,
        deliverable,
    }
}

struct Outcome {
    stats: ServerStats,
    /// Receive class of every injected frame, indexed by packet id.
    classes: Vec<u64>,
    /// Packet ids handed to a guest stack, in delivery order.
    delivered: Vec<u64>,
    vf_rx: u64,
    stages_in_flight: usize,
}

fn run_server_rx(seed: u64) -> Outcome {
    let mut kernel: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), seed);
    // Guest deliveries are observed through the trace ring's "rx" records.
    kernel.ctx.trace.set_enabled(true);
    let sid = kernel.add_node(test_server());
    // The SR-IOV path is dark for waves 10..15.
    kernel.set_fault_layer(ctl_fault_layer(FaultConfig {
        chaos: ChaosConfig {
            vf_outages: vec![(sid, SimTime::from_micros(525), SimTime::from_micros(775))],
            ..ChaosConfig::default()
        },
        ..FaultConfig::default()
    }));
    let mut rng = Rng::new(seed);
    let mut classes = Vec::new();
    for wave in 0..40u64 {
        let at = SimTime::from_micros(50 * (wave + 1));
        let mut c = rng.below(CLASSES);
        for _ in 0..(2 + rng.below(30)) {
            // Mostly repeat the previous class so one CPU pool backs up.
            if rng.chance(0.35) {
                c = rng.below(CLASSES);
            }
            let Class {
                flow, encap, port, ..
            } = class(c);
            let l4 = L4Meta::Tcp {
                seq: 1,
                ack: 1,
                flags: 0x10,
            };
            let id = classes.len() as u64;
            let mut pkt = Packet::new(id, flow, l4, rng.range(64, 1400) as u32, at);
            if let Some(e) = encap {
                pkt.encap(e);
            }
            classes.push(c);
            kernel.post(sid, at, Event::Frame { port, pkt });
        }
    }
    kernel.run_to_completion();
    let delivered = kernel
        .ctx
        .trace
        .drain()
        .iter()
        .filter(|r| r.kind == "rx")
        .map(|r| r.vals[0])
        .collect();
    let srv: &Server = kernel.node(sid);
    Outcome {
        stats: srv.stats,
        classes,
        delivered,
        vf_rx: srv.nic().vfs().iter().map(|vf| vf.rx_packets).sum(),
        stages_in_flight: srv.stages_in_flight(),
    }
}

#[test]
fn server_rx_conserves_frames_on_both_ports() {
    for seed in [1u64, 0xFA57] {
        let out = run_server_rx(seed);
        let s = out.stats;
        let delivered = out.delivered.len() as u64;
        let class_of = |id: &u64| class(out.classes[*id as usize]);

        // Every term moved: deliveries from both ports, both drop counters.
        for port in [PORT_SW, PORT_HW] {
            assert!(
                out.delivered.iter().any(|id| class_of(id).port == port),
                "no delivery from port {port} (seed {seed})"
            );
        }
        assert!(s.rx_drops > 0, "rx_drops never moved (seed {seed})");
        assert!(s.policy_drops > 0, "policy_drops never moved (seed {seed})");
        assert!(
            s.hw_path_drops > 0,
            "hw_path_drops never moved (seed {seed})"
        );

        // Each delivery is one distinct frame of a deliverable class, and the
        // VFs counted exactly the SR-IOV ones.
        let mut ids = out.delivered.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, delivered, "a frame was delivered twice");
        assert!(out.delivered.iter().all(|id| class_of(id).deliverable));
        let via_vf = out
            .delivered
            .iter()
            .filter(|id| class_of(id).port == PORT_HW)
            .count() as u64;
        assert_eq!(out.vf_rx, via_vf, "VF rx counters != SR-IOV deliveries");

        // Conservation: a received frame reaches a guest or is one drop.
        assert_eq!(s.rx_frames, out.classes.len() as u64, "frames not seen");
        assert_eq!(
            s.rx_frames,
            delivered + s.rx_drops + s.policy_drops + s.hw_path_drops,
            "frames lost or double-counted (seed {seed}): {s:?}"
        );
        assert_eq!(out.stages_in_flight, 0, "a stage stayed parked");

        // The software port dropped deliverable frames too: the backlog bound
        // was hit, not only the mis-routed classes.
        let deliverable_sw = out
            .classes
            .iter()
            .filter(|&&c| class(c).deliverable && class(c).port == PORT_SW)
            .count() as u64;
        assert!(
            delivered - via_vf < deliverable_sw,
            "rx backlog never overflowed (seed {seed})"
        );
    }
}

// ---------------------------------------------------------------------------
// The connect storm: 1 024 SYNs reach one server in the same instant under
// the default `max_rx_backlog`.
// ---------------------------------------------------------------------------

const STORM_CONNS: u16 = 1024;
const STORM_PORT: u16 = 7000;
const STORM_VM: Ip = Ip::new(10, 0, 0, 2);
/// Packet ids of the dialling peer; the server's come from `NetCtx`.
const STORM_IDS: u64 = 1 << 40;
/// One-way delay of the peer's frames: the same for every SYN, so the
/// whole burst lands in one instant.
const STORM_LATENCY: SimDuration = SimDuration::from_micros(20);
/// Timer tags of the peer: dial everything, or a stack timer is due.
const DIAL: u64 = 1;
const STACK: u64 = 0;

/// Counts the connections its listener accepted.
#[derive(Clone, Default)]
struct Listener {
    accepted: u64,
}

impl GuestApp for Listener {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        api.listen(STORM_PORT);
    }
    fn on_event(&mut self, ev: SockEvent, _api: &mut GuestApi<'_>) {
        if let SockEvent::Accepted { .. } = ev {
            self.accepted += 1;
        }
    }
    fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}
}

/// The remote end: dials every connection from one stack in one instant,
/// then answers whatever the server sends, untunneled on the software port.
struct Storm {
    server: NodeId,
    stack: TcpStack,
    /// Frames sent, and the ids of those that were SYNs.
    sent: u64,
    syns: FxHashSet<u64>,
    connected: u64,
    /// When the last connection was established.
    last_connected: SimTime,
    armed: Option<SimTime>,
}

impl Storm {
    fn turn(&mut self, api: &mut Api<'_, Event, NetCtx>) {
        while let Some(ev) = self.stack.pop_event() {
            if let SockEvent::Connected(_) = ev {
                self.connected += 1;
                self.last_connected = api.now;
            }
        }
        while let Some((conn, plan)) = self.stack.poll_transmit(api.now, TSO_LIMIT) {
            let flow = self.stack.conn(conn).flow;
            let l4 = L4Meta::Tcp {
                seq: plan.seq,
                ack: plan.ack,
                flags: plan.flags,
            };
            let id = STORM_IDS + self.sent;
            self.sent += 1;
            if plan.flags & tcp_flags::SYN != 0 {
                self.syns.insert(id);
            }
            let pkt = Packet::new(id, flow, l4, plan.len, api.now);
            let frame = Event::Frame { port: PORT_SW, pkt };
            api.send(self.server, STORM_LATENCY, frame);
        }
        if let Some(at) = self.stack.next_timer() {
            if self.armed.is_none_or(|armed| at < armed) {
                self.armed = Some(at);
                let wake = Event::Timer {
                    tag: STACK,
                    a: 0,
                    b: 0,
                };
                api.send_at(api.self_id, at, wake);
            }
        }
    }
}

impl Node<Event, NetCtx> for Storm {
    fn on_event(&mut self, ev: Event, api: &mut Api<'_, Event, NetCtx>) {
        match ev {
            Event::Frame { mut pkt, .. } => {
                while pkt.decap().is_some() {}
                self.stack.on_packet(api.now, &pkt);
            }
            Event::Timer { tag: DIAL, .. } => {
                for i in 0..STORM_CONNS {
                    self.stack.connect(FlowKey {
                        tenant: TENANT,
                        src_ip: Ip::new(10, 0, 0, 9),
                        dst_ip: STORM_VM,
                        proto: Proto::Tcp,
                        src_port: 20_000 + i,
                        dst_port: STORM_PORT,
                    });
                }
            }
            Event::Timer { .. } => {
                self.armed = None;
                self.stack.on_timer(api.now);
            }
            Event::Ctl(_) => {}
        }
        self.turn(api);
    }

    fn name(&self) -> &str {
        "storm"
    }
}

/// Refused SYNs are counted drops, not a panic or a parked stage, and SYN
/// retransmission gets every connection through. `max_rx_backlog`'s
/// documentation states this behaviour.
#[test]
fn a_same_instant_syn_storm_is_counted_and_retransmission_connects_every_conn() {
    /// Every connection must be established, on both ends, by then: five
    /// times the 200 ms initial RTO a refused SYN waits out.
    const HORIZON: SimTime = SimTime::from_secs(1);
    let mut kernel: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), 0x5EED);
    kernel.ctx.trace.set_enabled(true);
    let storm = kernel.add_node(Storm {
        server: 0,
        stack: TcpStack::new(TcpConfig::default()),
        sent: 0,
        syns: FxHashSet::default(),
        connected: 0,
        last_connected: SimTime::ZERO,
        armed: None,
    });
    let cfg = ServerConfig::testbed("s0", HERE);
    assert_eq!(
        cfg.max_rx_backlog,
        SimDuration::from_millis(5),
        "the default"
    );
    let mut srv = Server::new(cfg, VswitchConfig::default());
    let spec = VmSpec {
        name: "listener".into(),
        tenant: TENANT,
        ip: STORM_VM,
        vcpus: 2,
        tx_width: 2,
    };
    srv.add_vm(Vm::new(spec, Box::new(Listener::default())), None);
    srv.attach_uplink(PORT_SW, storm, PORT_SW);
    let sid = kernel.add_node(srv);
    kernel.node_mut::<Storm>(storm).server = sid;
    let start = Event::Timer {
        tag: tags::START,
        a: 0,
        b: 0,
    };
    kernel.post(sid, SimTime::ZERO, start);
    let dial = Event::Timer {
        tag: DIAL,
        a: 0,
        b: 0,
    };
    kernel.post(storm, SimTime::from_millis(1), dial);

    // The burst alone, long before any SYN could time out. The handshake
    // ACKs of the accepted SYNs queue behind the burst too, so the backlog
    // refuses some of those as well: every refused frame, SYN or ACK, is
    // exactly one rx_drops.
    kernel.run_until(SimTime::from_millis(100));
    assert_eq!(kernel.ctx.trace.dropped(), 0, "trace ring overflowed");
    let delivered: FxHashSet<u64> = kernel
        .ctx
        .trace
        .drain()
        .iter()
        .filter(|r| r.kind == "rx")
        .map(|r| r.vals[0])
        .collect();
    let p = kernel.node::<Storm>(storm);
    let s = kernel.node::<Server>(sid).stats;
    let first_syns = p.syns.len() as u64;
    assert_eq!(first_syns, u64::from(STORM_CONNS), "one SYN per connection");
    let refused_syns = p.syns.iter().filter(|id| !delivered.contains(id)).count() as u64;
    assert!(refused_syns > 0, "the burst fit the backlog: no storm");
    assert!(refused_syns < first_syns, "the backlog refused every SYN");
    let refused = (0..p.sent)
        .filter(|n| !delivered.contains(&(STORM_IDS + n)))
        .count() as u64;
    assert_eq!(s.rx_frames, p.sent, "every frame the peer sent arrived");
    assert_eq!(s.rx_drops, refused, "one rx_drops per refused frame: {s:?}");

    // Retransmission does the rest, and the run drains.
    kernel.run_until(HORIZON);
    let p = kernel.node::<Storm>(storm);
    let srv = kernel.node::<Server>(sid);
    let accepted = srv.vm(0).app_as::<Listener>().accepted;
    assert_eq!(p.connected, u64::from(STORM_CONNS), "client side");
    assert_eq!(accepted, u64::from(STORM_CONNS), "server side");
    let s = srv.stats;
    assert_eq!(s.rx_frames, p.sent, "every frame the peer sent arrived");
    assert_eq!(
        s.policy_drops + s.hw_path_drops + s.no_route_drops,
        0,
        "{s:?}"
    );
    assert_eq!(srv.stages_in_flight(), 0, "a stage stayed parked");
    eprintln!(
        "syn storm: the burst refused {refused_syns} of {first_syns} SYNs ({refused} frames); \
         {} rx_drops and {} SYNs sent in all; last connection at {}",
        s.rx_drops,
        p.syns.len(),
        p.last_connected
    );
}
