//! Component-level driver for both directions of the server datapath: one
//! `Server` with three talking VMs (two of them a co-resident pair) wired to
//! a peer node that records every frame leaving either uplink and answers as
//! the remote end of each connection. Every cell — tunneling, VIF rate
//! limits, CPU pinning, SR-IOV with a dark-VF window, an ECN threshold that
//! marks — must conserve the segments its guest stacks emitted, and folds
//! everything observable about the run into a digest pinned below.
//!
//! Three guests cannot queue 12 ms of 10 Gb/s, so the NIC ring overflows
//! only where a shaped VM's frames book the link ahead of the others' (one
//! of the rate-limited cells); `fastrak_net::port`'s unit tests and the
//! ToR's `datapath_conservation` hold the drop bound itself.

use std::hash::Hasher;

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_host::server::{tags, Server, ServerConfig, ServerStats, PORT_HW, PORT_SW};
use fastrak_host::vm::{Vm, VmSpec};
use fastrak_host::vswitch::VswitchConfig;
use fastrak_net::addr::{Ip, TenantId, VlanId};
use fastrak_net::ctrl::{Ctl, CtrlRequest, Dir};
use fastrak_net::event::{ctl_fault_layer, Event, NetCtx};
use fastrak_net::flow::{FlowKey, FlowSpec};
use fastrak_net::packet::{Encap, L4Meta, Packet, PathTag};
use fastrak_net::rules::{Action, SecurityRule};
use fastrak_net::tunnel::TunnelMapping;
use fastrak_sim::chaos::ChaosConfig;
use fastrak_sim::fault::FaultConfig;
use fastrak_sim::kernel::{Api, Kernel, Node, NodeId};
use fastrak_sim::rng::Rng;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_sim::{FxHashMap, FxHasher};
use fastrak_transport::cc::CcAlgo;
use fastrak_transport::stack::{ConnId, SockEvent, TcpStack};
use fastrak_transport::tcp::{TcpConfig, TSO_LIMIT};

const TENANT: TenantId = TenantId(7);
const VLAN: u16 = 100;
/// Provider addresses of the server and of the peer's rack.
const HERE: Ip = Ip::new(192, 168, 0, 1);
const THERE: Ip = Ip::new(192, 168, 0, 9);
/// The three local VMs; the first two talk to each other.
const VMS: [Ip; 3] = [
    Ip::new(10, 0, 0, 2),
    Ip::new(10, 0, 0, 3),
    Ip::new(10, 0, 0, 4),
];
/// A remote VM with a tunnel mapping, and one without.
const REMOTE: Ip = Ip::new(10, 0, 0, 9);
const UNMAPPED: Ip = Ip::new(10, 0, 0, 77);
/// The vswitch denies this destination port.
const DENIED_PORT: u16 = 22;
/// The peer numbers its packets from here; the server's come from `NetCtx`.
const PEER_IDS: u64 = 1 << 40;
const ROUND: SimDuration = SimDuration::from_micros(100);
const ROUNDS: u32 = 500;

/// Dials its peers at start, writes a seeded amount on every open
/// connection each round, then closes what opened and aborts what did not.
#[derive(Clone)]
struct Talker {
    dials: Vec<(Ip, u16)>,
    conns: Vec<ConnId>,
    /// Draws the write sizes; the app's own stream, seeded per VM.
    rng: Rng,
    rounds_left: u32,
    /// Also burn vCPU every round (guest work that is not a segment).
    burn: bool,
}

impl GuestApp for Talker {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        api.listen(7000);
        for (i, &(ip, port)) in self.dials.iter().enumerate() {
            self.conns.push(api.connect(ip, port, 40_000 + i as u16));
        }
        api.set_timer(ROUND, 0);
    }

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        match ev {
            SockEvent::Connected(conn) => assert!(api.send(conn, 20_000)),
            SockEvent::Accepted { conn, .. } => assert!(api.send(conn, 3_000)),
            SockEvent::PeerClosed(conn) => api.close(conn),
            _ => {}
        }
    }

    fn on_timer(&mut self, _tag: u64, api: &mut GuestApi<'_>) {
        if self.rounds_left == 0 {
            for &conn in &self.conns {
                if api.conn(conn).is_established() {
                    api.close(conn);
                } else {
                    api.abort(conn);
                }
            }
            return;
        }
        self.rounds_left -= 1;
        for &conn in &self.conns {
            if api.conn(conn).is_established() {
                let bytes = self.rng.range(100, 150_000);
                api.send(conn, bytes);
            }
        }
        if self.burn {
            api.burn_cpu(SimDuration::from_micros(20));
        }
        api.set_timer(ROUND, 0);
    }
}

/// Both uplinks end here: records each frame, then plays the remote end of
/// every connection from one stack, replying the way the flow's last frame
/// came in (port and outer encapsulation mirrored).
struct Peer {
    server: NodeId,
    stack: TcpStack,
    via: FxHashMap<FlowKey, (usize, Option<Encap>)>,
    digest: FxHasher,
    frames_in: u64,
    sent: u64,
    armed: Option<SimTime>,
}

/// One-way delay of the peer's replies.
const PEER_LATENCY: SimDuration = SimDuration::from_micros(20);

fn fold(h: &mut FxHasher, words: &[u64]) {
    words.iter().for_each(|&w| h.write_u64(w));
}

fn encap_words(e: Option<Encap>) -> [u64; 4] {
    match e {
        None => [0; 4],
        Some(Encap::Vlan(v)) => [1, v as u64, 0, 0],
        Some(Encap::Vxlan { vni, src, dst }) => [2, vni as u64, src.0 as u64, dst.0 as u64],
        Some(Encap::Gre { key, src, dst }) => [3, key as u64, src.0 as u64, dst.0 as u64],
    }
}

impl Peer {
    fn turn(&mut self, api: &mut Api<'_, Event, NetCtx>) {
        while let Some(ev) = self.stack.pop_event() {
            match ev {
                SockEvent::Accepted { conn, .. } => assert!(self.stack.app_send(conn, 8_000)),
                // Keep data flowing toward the guests as long as they talk.
                SockEvent::Delivered { conn, .. } => {
                    self.stack.app_send(conn, 2_000);
                }
                SockEvent::PeerClosed(conn) => self.stack.close(conn),
                _ => {}
            }
        }
        while let Some((conn, plan)) = self.stack.poll_transmit(api.now, TSO_LIMIT) {
            let flow = self.stack.conn(conn).flow;
            let l4 = L4Meta::Tcp {
                seq: plan.seq,
                ack: plan.ack,
                flags: plan.flags,
            };
            let mut pkt = Packet::new(PEER_IDS + self.sent, flow, l4, plan.len, api.now);
            self.sent += 1;
            pkt.ecn = plan.ecn;
            pkt.sack = plan.sack;
            let (port, outer) = self.via[&flow];
            match outer {
                Some(Encap::Vxlan { vni, src, dst }) => pkt.encap(Encap::Vxlan {
                    vni,
                    src: dst,
                    dst: src,
                }),
                Some(e) => pkt.encap(e),
                None => {}
            }
            api.send(self.server, PEER_LATENCY, Event::Frame { port, pkt });
        }
        if let Some(at) = self.stack.next_timer() {
            if self.armed.is_none_or(|armed| at < armed) {
                self.armed = Some(at);
                let wake = Event::Timer { tag: 0, a: 0, b: 0 };
                api.send_at(api.self_id, at, wake);
            }
        }
    }
}

impl Node<Event, NetCtx> for Peer {
    fn on_event(&mut self, ev: Event, api: &mut Api<'_, Event, NetCtx>) {
        match ev {
            Event::Frame { port, mut pkt } => {
                let L4Meta::Tcp { seq, .. } = pkt.l4 else {
                    panic!("TCP only")
                };
                let outer = pkt.outer().copied();
                let now = api.now.as_nanos();
                let (len, ecn) = (pkt.payload as u64, pkt.ecn as u64);
                fold(&mut self.digest, &[now, port as u64, pkt.id, seq, len, ecn]);
                fold(&mut self.digest, &encap_words(outer));
                self.frames_in += 1;
                while pkt.decap().is_some() {}
                self.via.insert(pkt.flow.reverse(), (port, outer));
                self.stack.on_packet(api.now, &pkt);
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
        "peer"
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    tunneling: bool,
    /// VIF egress limit on VM 0, ingress limit on VM 1.
    limited: bool,
    pinned: bool,
    /// VM 2 and VM 0's port-7001 flows leave through their VFs, and the
    /// hardware path is dark for 6 ms of the run.
    sriov: bool,
    /// DCTCP + ECN on every stack and a marking threshold on the NIC rings.
    ecn: bool,
}

struct Outcome {
    digest: u64,
    stats: ServerStats,
    /// ECT frames the NIC rings CE-marked.
    ecn_marked: u64,
    /// Segments the three guest stacks emitted.
    emitted: u64,
    /// Frames the peer recorded, and frames it sent.
    frames_out: u64,
    frames_in: u64,
    /// Guest deliveries of local segments and of the peer's.
    local_rx: u64,
    remote_rx: u64,
    stages_in_flight: usize,
}

fn run(cell: Cell) -> Outcome {
    let mut kernel: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), 0xFA57);
    kernel.ctx.trace.set_enabled(true);
    let tcp = TcpConfig {
        min_rto: SimDuration::from_millis(2),
        msl: SimDuration::from_millis(1),
        cc: if cell.ecn {
            CcAlgo::Dctcp
        } else {
            CcAlgo::Cubic
        },
        ecn: cell.ecn,
        sack: true,
        ..TcpConfig::default()
    };
    let mut peer_stack = TcpStack::new(tcp);
    peer_stack.listen(7000);
    peer_stack.listen(7001);
    let peer = kernel.add_node(Peer {
        server: 0,
        stack: peer_stack,
        via: FxHashMap::default(),
        digest: FxHasher::default(),
        frames_in: 0,
        sent: 0,
        armed: None,
    });

    let mut cfg = ServerConfig::testbed("s0", HERE);
    cfg.pinned_cpus = cell.pinned.then_some(4);
    let tunneling = cell.tunneling;
    let mut srv = Server::new(cfg, VswitchConfig { tunneling });
    let dials = [
        vec![
            (VMS[1], 7000),
            (REMOTE, 7000),
            (REMOTE, 7001),
            (UNMAPPED, 7000),
        ],
        vec![(REMOTE, 7000), (VMS[0], 7000), (REMOTE, DENIED_PORT)],
        vec![(REMOTE, 7000), (REMOTE, 7001)],
    ];
    for (i, dials) in dials.into_iter().enumerate() {
        let spec = VmSpec {
            name: format!("vm{i}"),
            tenant: TENANT,
            ip: VMS[i],
            vcpus: 2,
            tx_width: 2,
        };
        let app = Talker {
            dials,
            conns: Vec::new(),
            rng: Rng::new(i as u64),
            rounds_left: ROUNDS,
            burn: i == 1,
        };
        let vm = Vm::with_tcp_config(spec, Box::new(app), tcp);
        srv.add_vm(vm, Some(VlanId::new(VLAN)));
    }
    let mapping = TunnelMapping {
        server_ip: THERE,
        tor_ip: Ip::provider_tor(1),
    };
    srv.add_tunnel_route(TENANT, REMOTE, mapping);
    srv.vswitch_mut().rules_mut().add_security(SecurityRule {
        spec: FlowSpec {
            tenant: Some(TENANT),
            dst_port: Some(DENIED_PORT),
            ..FlowSpec::ANY
        },
        priority: 5,
        action: Action::Deny,
    });
    if cell.sriov {
        let to_7001 = FlowSpec {
            dst_port: Some(7001),
            ..FlowSpec::ANY
        };
        srv.vm_mut(0)
            .placer
            .install_rule(to_7001, 1, PathTag::SrIov);
        srv.vm_mut(2)
            .placer
            .install_rule(FlowSpec::ANY, 1, PathTag::SrIov);
    }
    srv.attach_uplink(PORT_SW, peer, PORT_SW);
    srv.attach_uplink(PORT_HW, peer, PORT_HW);
    let sid = kernel.add_node(srv);
    kernel.node_mut::<Peer>(peer).server = sid;
    if cell.ecn {
        // On the built node, as `incast_matrix` and the benchmark set it.
        let k = SimDuration::from_micros(2);
        kernel.node_mut::<Server>(sid).cfg.ecn_mark_threshold = Some(k);
    }
    if cell.sriov {
        let dark = (
            sid,
            SimTime::from_micros(10_000),
            SimTime::from_micros(16_000),
        );
        kernel.set_fault_layer(ctl_fault_layer(FaultConfig {
            chaos: ChaosConfig {
                vf_outages: vec![dark],
                ..ChaosConfig::default()
            },
            ..FaultConfig::default()
        }));
    }
    if cell.limited {
        for (vm, dir, bps) in [
            (0, Dir::Egress, 400_000_000),
            (1, Dir::Ingress, 500_000_000),
        ] {
            let req = CtrlRequest::SetVifRate {
                tenant: TENANT,
                vm_ip: VMS[vm],
                dir,
                bps,
            };
            kernel.post(sid, SimTime::ZERO, Event::ctl(sid, Ctl::Req(req)));
        }
    }
    let start = Event::Timer {
        tag: tags::START,
        a: 0,
        b: 0,
    };
    kernel.post(sid, SimTime::from_micros(1), start);
    kernel.run_until(SimTime::from_millis(400));

    let now = kernel.now();
    let emitted = kernel.ctx.alloc_packet_id();
    let p = kernel.node::<Peer>(peer);
    let mut h = p.digest;
    let (frames_out, frames_in) = (p.frames_in, p.sent);
    let (mut local_rx, mut remote_rx) = (0, 0);
    for r in kernel.ctx.trace.drain() {
        h.write(r.kind.as_bytes());
        fold(&mut h, &[r.at.as_nanos()]);
        fold(&mut h, &r.vals);
        if r.kind == "rx" {
            if r.vals[0] < PEER_IDS {
                local_rx += 1;
            } else {
                remote_rx += 1;
            }
        }
    }
    let srv = kernel.node::<Server>(sid);
    let s = srv.stats;
    let ecn_marked = srv.ecn_marked();
    fold(
        &mut h,
        &[
            s.tx_ring_drops,
            s.rx_drops,
            s.policy_drops,
            s.hw_path_drops,
            s.no_route_drops,
            s.tx_sw_frames,
            s.tx_hw_frames,
            s.rx_frames,
            ecn_marked,
        ],
    );
    for vf in srv.nic().vfs() {
        fold(&mut h, &[vf.tx_packets, vf.rx_packets]);
    }
    let vs = srv.vswitch();
    fold(&mut h, &[vs.fast_path_hits(), vs.slow_path_hits()]);
    fold(&mut h, &[srv.cpus_used(now).to_bits(), emitted]);
    fold(&mut h, &[kernel.events_processed()]);
    Outcome {
        digest: h.finish(),
        stats: s,
        ecn_marked,
        emitted,
        frames_out,
        frames_in,
        local_rx,
        remote_rx,
        stages_in_flight: srv.stages_in_flight(),
    }
}

/// The digests of the cells, in order, against the values recorded when the
/// receiver began ACKing a segment that fills a reassembly hole at once
/// instead of arming the delayed ACK (RFC 5681 §4.2). That moved the two
/// tunneled, rate-limited cells; in the other twelve no receiver fills a
/// hole, and they kept theirs. A mismatch prints the whole list;
/// re-record only with a change that is meant to move a simulated outcome
/// or the kernel's event count, and say which.
fn assert_pinned(got: &[u64], pinned: &[u64]) {
    assert!(got == pinned, "digests moved, now {got:#018x?}");
}

#[test]
fn server_conserves_emitted_segments_and_replays_the_pinned_run() {
    let mut cells = Vec::new();
    for tunneling in [false, true] {
        for limited in [false, true] {
            for pinned in [false, true] {
                cells.push(Cell {
                    tunneling,
                    limited,
                    pinned,
                    ..Cell::default()
                });
            }
        }
    }
    for (sriov, ecn) in [(true, false), (false, true), (true, true)] {
        for pinned in [false, true] {
            cells.push(Cell {
                sriov,
                ecn,
                pinned,
                ..Cell::default()
            });
        }
    }
    let mut digests = Vec::new();
    let mut ring_drops = 0;
    for cell in cells {
        let out = run(cell);
        let s = out.stats;

        // The cell did what it is there for.
        assert!(out.local_rx > 100, "co-resident traffic: {cell:?}");
        assert!(out.remote_rx > 100, "peer traffic: {cell:?}");
        assert!(s.tx_sw_frames > 100, "software uplink: {cell:?}");
        assert!(s.policy_drops > 0, "the deny rule: {cell:?}");
        assert_eq!(s.no_route_drops > 0, cell.tunneling, "{cell:?}");
        assert_eq!(s.tx_hw_frames > 100, cell.sriov, "{cell:?}");
        assert_eq!(s.hw_path_drops > 0, cell.sriov, "{cell:?}");
        assert_eq!(out.ecn_marked > 0, cell.ecn, "{cell:?}");

        // Nothing is lost on the wire of this world, either way.
        assert_eq!(out.frames_out, s.tx_sw_frames + s.tx_hw_frames);
        assert_eq!(out.frames_in, s.rx_frames);
        // Conservation: a segment a guest stack emitted left on an uplink,
        // reached a co-resident guest, or is one drop with a cause; a frame
        // from the peer reached a guest or is one drop. The dark hardware
        // path is the one cause the two directions share a counter for.
        let tx_drops = s.policy_drops + s.no_route_drops + s.tx_ring_drops;
        let tx_ends = out.frames_out + out.local_rx + tx_drops;
        let rx_ends = out.remote_rx + s.rx_drops;
        assert_eq!(
            out.emitted + s.rx_frames,
            tx_ends + rx_ends + s.hw_path_drops,
            "segments lost or double-counted: {cell:?} {s:?}"
        );
        assert!(tx_ends <= out.emitted && rx_ends <= s.rx_frames, "{cell:?}");
        if cell.sriov {
            assert!(tx_ends < out.emitted, "no transmit into the dark VF");
            assert!(rx_ends < s.rx_frames, "no receive from the dark VF");
        }
        assert_eq!(out.stages_in_flight, 0, "a stage stayed parked: {cell:?}");
        ring_drops += s.tx_ring_drops;
        digests.push(out.digest);
    }
    assert!(ring_drops > 0, "no cell overflowed a NIC ring");
    assert_pinned(
        &digests,
        &[
            0x5c4b7c0fed9086af,
            0x0904c05c689fceae,
            0xb72a425d296c7598,
            0xb0615b487aa4e8f6,
            0xe1a30802f193b418,
            0x6828e1441aeddfbb,
            0x0fcdd8480d6c22f7,
            0x21b1dc5816d8f5f4,
            0xc09af84f4d24eda3,
            0xbde1711f18df8897,
            0x96cb2e383102ed37,
            0x20f68ecd2db6618a,
            0x4f69c86ed8922872,
            0x837e25f2699ca176,
        ],
    );
}
