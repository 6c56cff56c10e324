//! Component-level driver for the ToR's frame paths: seeded same-instant
//! frame waves covering every forwarding class go into a ToR whose server
//! links and uplink all end at one sink, and every injected frame must be
//! accounted for — recorded at the sink or counted as exactly one drop —
//! with CE marks only ever on delivered frames, and the whole run a pure
//! function of the seed.

use std::hash::{Hash, Hasher};

use fastrak_net::addr::{Ip, TenantId, VlanId};
use fastrak_net::ctrl::{Dir, TorRule};
use fastrak_net::event::{Event, NetCtx};
use fastrak_net::flow::{FlowKey, FlowSpec, Proto};
use fastrak_net::headers::ecn;
use fastrak_net::packet::{Encap, L4Meta, Packet};
use fastrak_net::rules::Action;
use fastrak_net::tunnel::TunnelMapping;
use fastrak_sim::kernel::{Api, Kernel, Node};
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_sim::{FxHasher, Rng};
use fastrak_switch::{HwDest, Tor, TorConfig, TorStats};

const TENANT: TenantId = TenantId(1);
const VLAN: u16 = 100;
const LOCAL_VM: u16 = 2;
const REMOTE_VM: u16 = 9;
/// ToR ports: software-side server link, SR-IOV server link, uplink toward
/// the other ToR.
const PORT_SW: usize = 0;
const PORT_HW: usize = 1;
const PORT_UP: usize = 2;

/// Records every frame it receives, with arrival time and port.
#[derive(Default)]
struct Sink {
    got: Vec<(u64, usize, Packet)>,
}

impl Node<Event, NetCtx> for Sink {
    fn on_event(&mut self, ev: Event, api: &mut Api<'_, Event, NetCtx>) {
        if let Event::Frame { port, pkt } = ev {
            self.got.push((api.now.as_nanos(), port, pkt));
        }
    }
}

fn key(tenant: TenantId, dst_vm: u16, dst_port: u16) -> FlowKey {
    FlowKey {
        tenant,
        src_ip: Ip::tenant_vm(1),
        dst_ip: Ip::tenant_vm(dst_vm),
        proto: Proto::Udp,
        src_port: 40_000,
        dst_port,
    }
}

/// One frame of forwarding class `class` (see the match arms).
fn frame(class: u64, id: u64, payload: u32, at: SimTime) -> Packet {
    let here = Ip::provider_tor(0);
    let there = Ip::provider_tor(1);
    let gre = |dst| Encap::Gre {
        key: TENANT.0,
        src: there,
        dst,
    };
    let (flow, encap) = match class {
        // SR-IOV side, allowed, destination VM attached to this ToR.
        0 => (key(TENANT, LOCAL_VM, 5001), Some(Encap::Vlan(VLAN))),
        // SR-IOV side, allowed, destination behind another ToR: GRE + uplink.
        1 => (key(TENANT, REMOTE_VM, 5001), Some(Encap::Vlan(VLAN))),
        // SR-IOV side, no matching rule: default deny.
        2 => (key(TENANT, LOCAL_VM, 6000), Some(Encap::Vlan(VLAN))),
        // SR-IOV side, unmapped VLAN.
        3 => (key(TENANT, LOCAL_VM, 5001), Some(Encap::Vlan(999))),
        // SR-IOV side, VLAN of tenant 1 carrying a tenant-2 flow: spoofed.
        4 => (key(TenantId(2), LOCAL_VM, 5001), Some(Encap::Vlan(VLAN))),
        // GRE terminated here, allowed: delivered on the hardware port.
        5 => (key(TENANT, LOCAL_VM, 5001), Some(gre(here))),
        // GRE terminated here, denied.
        6 => (key(TENANT, LOCAL_VM, 6000), Some(gre(here))),
        // Transit GRE toward the other ToR.
        7 => (key(TENANT, REMOTE_VM, 5001), Some(gre(there))),
        // VXLAN to a server of this rack.
        8 => (
            key(TENANT, LOCAL_VM, 5001),
            Some(Encap::Vxlan {
                vni: TENANT.vni(),
                src: Ip::provider_server(0, 3),
                dst: Ip::provider_server(0, 1),
            }),
        ),
        // Untunneled, L2-routed.
        9 => (key(TENANT, LOCAL_VM, 5001), None),
        // Untunneled, no L2 route.
        _ => (key(TENANT, 77, 5001), None),
    };
    let mut pkt = Packet::new(id, flow, L4Meta::Udp, payload, at);
    pkt.ecn = ecn::ECT0;
    if let Some(e) = encap {
        pkt.encap(e);
    }
    pkt
}

const CLASSES: u64 = 11;

/// The sink port a frame of `class` must leave on when no port overflows;
/// `None` for the classes that must be dropped.
fn exit_of(class: u64) -> Option<usize> {
    match class {
        0 | 5 => Some(PORT_HW),
        1 | 7 => Some(PORT_UP),
        8 | 9 => Some(PORT_SW),
        _ => None,
    }
}

/// Everything observable about one run, as comparable values.
#[derive(Debug, PartialEq)]
struct Outcome {
    end_ns: u64,
    events: u64,
    /// Expected exit ([`exit_of`]) of every frame the wave generator posted,
    /// indexed by packet id.
    exits: Vec<Option<usize>>,
    frames: Vec<(u64, usize, Packet)>,
    /// ECT frames the ToR's ports CE-marked.
    ecn_marked: u64,
    tor_stats: String,
    rule_stats: String,
}

impl Outcome {
    /// Every arrival `(time, port, id, length, ECN, encapsulation left on)`
    /// in order, the end of the run, and the counters, folded.
    fn digest(&self, tor: &TorStats) -> u64 {
        let mut h = FxHasher::default();
        for (at, port, pkt) in &self.frames {
            (at, port, pkt.id, pkt.payload, pkt.ecn).hash(&mut h);
            format!("{:?}", pkt.outer()).hash(&mut h);
        }
        (self.end_ns, self.events, self.ecn_marked).hash(&mut h);
        (tor.acl_drops, tor.fwd_drops, tor.hw_frames, tor.sw_frames).hash(&mut h);
        (tor.gre_encaps, tor.gre_decaps).hash(&mut h);
        self.rule_stats.hash(&mut h);
        h.finish()
    }
}

fn run(seed: u64) -> (Outcome, TorStats) {
    let mut kernel: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), seed);
    let mut cfg = TorConfig::testbed("tor0", 0);
    // Low enough that the larger waves back a port up past it.
    cfg.ecn_mark_threshold = Some(SimDuration::from_micros(3));
    let tor = kernel.add_node(Tor::new(cfg));
    let sink = kernel.add_node(Sink::default());
    {
        let t = kernel.node_mut::<Tor>(tor);
        t.wire_port(PORT_SW, sink, PORT_SW);
        t.wire_port(PORT_HW, sink, PORT_HW);
        t.wire_port(PORT_UP, sink, PORT_UP);
        t.add_ip_route(Ip::provider_tor(1), PORT_UP);
        t.map_vlan(VlanId::new(VLAN), TENANT);
        t.add_hw_dest(
            TENANT,
            Ip::tenant_vm(LOCAL_VM),
            HwDest {
                port: PORT_HW,
                vlan: VlanId::new(VLAN),
            },
        );
        t.add_l2_route(TENANT, Ip::tenant_vm(LOCAL_VM), PORT_SW);
        t.add_ip_route(Ip::provider_server(0, 1), PORT_SW);
        for (dst_vm, tunnel) in [
            (LOCAL_VM, None),
            (
                REMOTE_VM,
                Some(TunnelMapping {
                    server_ip: Ip::provider_server(1, 1),
                    tor_ip: Ip::provider_tor(1),
                }),
            ),
        ] {
            t.install_rule(&TorRule {
                tenant: TENANT,
                spec: FlowSpec {
                    tenant: Some(TENANT),
                    dst_ip: Some(Ip::tenant_vm(dst_vm)),
                    dst_port: Some(5001),
                    ..FlowSpec::ANY
                },
                priority: 10,
                action: Action::Allow,
                tunnel,
                qos: None,
            })
            .expect("fast path has room");
        }
        // A binding hardware limit: shaped frames leave late, not never.
        t.set_hw_rate(TENANT, Ip::tenant_vm(LOCAL_VM), Dir::Ingress, 2_000_000_000);
    }

    let mut rng = Rng::new(seed);
    let mut exits = Vec::new();
    for wave in 0..60u64 {
        let at = SimTime::from_micros(40 * (wave + 1));
        let mut class = rng.below(CLASSES);
        for _ in 0..(2 + rng.below(30)) {
            // Mostly repeat the previous class so one port backs up.
            if rng.chance(0.35) {
                class = rng.below(CLASSES);
            }
            let id = exits.len() as u64;
            let pkt = frame(class, id, rng.range(64, 1400) as u32, at);
            exits.push(exit_of(class));
            kernel.post(tor, at, Event::Frame { port: 0, pkt });
        }
    }
    // A port drops only past 12 ms of backlog: a last wave of TSO
    // super-segments (~54 us each at 10 Gb/s) on one unshaped exit.
    let class = [1, 7, 8, 9][rng.below(4) as usize];
    let at = SimTime::from_micros(40 * 61);
    for _ in 0..260 {
        let pkt = frame(class, exits.len() as u64, 64_000, at);
        exits.push(exit_of(class));
        kernel.post(tor, at, Event::Frame { port: 0, pkt });
    }
    kernel.run_to_completion();

    let t = kernel.node::<Tor>(tor);
    let outcome = Outcome {
        end_ns: kernel.now().as_nanos(),
        events: kernel.events_processed(),
        exits,
        frames: kernel.node::<Sink>(sink).got.clone(),
        ecn_marked: t.ecn_marked(),
        tor_stats: format!("{:?}", t.stats),
        rule_stats: format!("{:?}", t.dump_rule_stats()),
    };
    (outcome, t.stats)
}

#[test]
fn tor_conserves_frames_and_replays_per_seed() {
    // The arrival log of each seed. Re-record only with a change that is
    // meant to move a simulated outcome, and say which.
    for (seed, pinned) in [(1u64, 0x47dbd4561069f213u64), (0xFA57, 0x7db102d3b3bb98b9)] {
        let (out, tor) = run(seed);

        // Every forwarding class was taken: frames left on all three exits
        // and each drop/encap/mark counter moved.
        for port in [PORT_SW, PORT_HW, PORT_UP] {
            assert!(
                out.frames.iter().any(|&(_, p, _)| p == port),
                "nothing reached sink port {port}"
            );
        }
        for (counter, n) in [
            ("acl_drops", tor.acl_drops),
            ("fwd_drops", tor.fwd_drops),
            ("gre_encaps", tor.gre_encaps),
            ("gre_decaps", tor.gre_decaps),
            ("ecn_marked", out.ecn_marked),
        ] {
            assert!(n > 0, "{counter} never moved (seed {seed})");
        }

        // Each arrival is one distinct frame on the exit its class routes to
        // (so a denied frame never reaches a sink), and some forwardable
        // frames did not arrive: a port overflowed its backlog bound.
        let delivered = out.frames.len() as u64;
        let mut ids: Vec<u64> = out.frames.iter().map(|(_, _, p)| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, delivered, "a frame arrived twice");
        for (_, port, pkt) in &out.frames {
            assert_eq!(
                out.exits[pkt.id as usize],
                Some(*port),
                "misrouted: {pkt:?}"
            );
        }
        let forwardable = out.exits.iter().flatten().count() as u64;
        assert!(delivered < forwardable, "no port overflowed (seed {seed})");

        // Conservation: a frame ends at a sink or in exactly one drop counter.
        assert_eq!(
            out.exits.len() as u64,
            delivered + tor.acl_drops + tor.fwd_drops,
            "frames lost or double-counted (seed {seed}): {tor:?}"
        );

        // Every frame went in ECT(0), so CE at a sink is a ToR mark — and a
        // marked frame is a delivered one.
        let ce = out
            .frames
            .iter()
            .filter(|(_, _, p)| p.ecn == ecn::CE)
            .count() as u64;
        assert_eq!(
            out.ecn_marked, ce,
            "a marked frame was dropped (seed {seed})"
        );

        let (again, ..) = run(seed);
        assert_eq!(out, again, "same seed, different run (seed {seed})");
        let digest = out.digest(&tor);
        assert!(
            digest == pinned,
            "seed {seed}: digest moved, now {digest:#018x}"
        );
    }
}
