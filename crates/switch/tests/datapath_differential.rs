//! Differential test for the ToR and fabric burst pipelines: a ToR feeding
//! a fabric core must produce the identical frame stream, counters and
//! per-rule statistics with kernel burst delivery on (run-amortized
//! `on_burst`) and off (scalar `on_event`), on seeded same-instant frame
//! waves that cover every forwarding class and contain multi-packet runs.

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
use fastrak_sim::Rng;
use fastrak_switch::{Fabric, HwDest, Tor, TorConfig, TorStats};

const TENANT: TenantId = TenantId(1);
const VLAN: u16 = 100;
const LOCAL_VM: u16 = 2;
const REMOTE_VM: u16 = 9;
/// ToR ports: software-side server link, SR-IOV server link, fabric uplink.
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
        // SR-IOV side, allowed, destination behind another ToR: GRE + fabric.
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

/// Everything observable about one run, as comparable values.
#[derive(Debug, PartialEq)]
struct Outcome {
    end_ns: u64,
    events: u64,
    frames: Vec<(u64, usize, Packet)>,
    tor_stats: String,
    rule_stats: String,
    fabric_stats: String,
}

fn run(burst_delivery: bool, seed: u64) -> (Outcome, TorStats, u64) {
    let mut kernel: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), seed);
    kernel.set_burst_delivery(burst_delivery);
    let mut cfg = TorConfig::testbed("tor0", 0);
    // Low enough that the larger waves back a port up past it.
    cfg.ecn_mark_threshold = Some(SimDuration::from_micros(5));
    let tor = kernel.add_node(Tor::new(cfg));
    let fabric = kernel.add_node(Fabric::new("core", SimDuration::from_micros(2)));
    let sink = kernel.add_node(Sink::default());
    {
        let t = kernel.node_mut::<Tor>(tor);
        t.wire_port(PORT_SW, sink, PORT_SW);
        t.wire_port(PORT_HW, sink, PORT_HW);
        t.wire_port(PORT_UP, fabric, 0);
        t.set_fabric_port(PORT_UP);
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
        // A binding hardware limit: shaping is per-packet state the runs
        // must thread in arrival order.
        t.set_hw_rate(TENANT, Ip::tenant_vm(LOCAL_VM), Dir::Ingress, 2_000_000_000);
    }
    kernel
        .node_mut::<Fabric>(fabric)
        .add_route(Ip::provider_tor(1), sink, 7);

    let mut rng = Rng::new(seed);
    let mut id = 0u64;
    for wave in 0..60u64 {
        let at = SimTime::from_micros(40 * (wave + 1));
        let mut class = rng.below(CLASSES);
        for _ in 0..(2 + rng.below(30)) {
            // Mostly repeat the previous class so same-key runs form.
            if rng.chance(0.35) {
                class = rng.below(CLASSES);
            }
            let pkt = frame(class, id, rng.range(64, 1400) as u32, at);
            id += 1;
            kernel.post(tor, at, Event::Frame { port: 0, pkt });
        }
        // The ToR's uplink serializes, so the core only sees same-instant
        // frames when they are injected directly: routed transit GRE,
        // unrouted VXLAN, and untunneled frames.
        for _ in 0..rng.below(6) {
            let pkt = frame(7 + rng.below(3), id, 200, at);
            id += 1;
            kernel.post(fabric, at, Event::Frame { port: 0, pkt });
        }
    }
    kernel.run_to_completion();

    let t = kernel.node::<Tor>(tor);
    let outcome = Outcome {
        end_ns: kernel.now().as_nanos(),
        events: kernel.events_processed(),
        frames: kernel.node::<Sink>(sink).got.clone(),
        tor_stats: format!("{:?}", t.stats),
        rule_stats: format!("{:?}", t.dump_rule_stats()),
        fabric_stats: format!("{:?}", kernel.node::<Fabric>(fabric).stats),
    };
    (outcome, t.stats, kernel.bursts_formed())
}

#[test]
fn tor_and_fabric_burst_delivery_is_bit_identical_to_scalar() {
    for seed in [1u64, 0xFA57] {
        let (on, stats, bursts_on) = run(true, seed);
        let (off, _, bursts_off) = run(false, seed);
        assert!(bursts_on > 0, "no bursts formed — test is vacuous");
        assert_eq!(bursts_off, 0, "scalar run must not form bursts");
        assert_eq!(on, off, "burst delivery changed the run (seed {seed})");

        // Every forwarding class was taken: frames left on all three exits
        // and each drop/encap/mark counter moved.
        for port in [PORT_SW, PORT_HW, 7] {
            assert!(
                on.frames.iter().any(|&(_, p, _)| p == port),
                "nothing reached sink port {port}"
            );
        }
        for (counter, n) in [
            ("acl_drops", stats.acl_drops),
            ("fwd_drops", stats.fwd_drops),
            ("gre_encaps", stats.gre_encaps),
            ("gre_decaps", stats.gre_decaps),
            ("ecn_marked", stats.ecn_marked),
        ] {
            assert!(n > 0, "{counter} never moved (seed {seed})");
        }
    }
}
