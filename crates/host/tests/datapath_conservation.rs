//! Component-level driver for the server receive path: seeded same-instant
//! frame waves arrive on both ports of one `Server` — deliverable, mis-tagged,
//! mis-routed, denied by the tenant's security policy, over the rx backlog,
//! and into a dark SR-IOV path — and every
//! received frame must end at a guest stack or in exactly one drop counter,
//! with no pipeline stage left parked once the kernel has drained.

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_host::server::{Server, ServerConfig, ServerStats, PORT_HW, PORT_SW};
use fastrak_host::vm::{Vm, VmSpec};
use fastrak_host::vswitch::VswitchConfig;
use fastrak_net::addr::{Ip, TenantId, VlanId};
use fastrak_net::event::{ctl_fault_layer, Event, NetCtx};
use fastrak_net::flow::{FlowKey, FlowSpec, Proto};
use fastrak_net::packet::{Encap, L4Meta, Packet};
use fastrak_net::rules::{Action, SecurityRule};
use fastrak_sim::chaos::ChaosConfig;
use fastrak_sim::fault::FaultConfig;
use fastrak_sim::kernel::Kernel;
use fastrak_sim::rng::Rng;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_transport::stack::SockEvent;

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
