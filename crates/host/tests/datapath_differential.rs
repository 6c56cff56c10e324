//! Differential tests for the vector datapath: every batched entry point
//! must be bit-identical to the scalar per-packet loop it amortizes, on
//! seeded traffic exercising all verdict classes.

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_host::server::{Server, ServerConfig, PORT_HW, PORT_SW};
use fastrak_host::vm::{Vm, VmSpec};
use fastrak_host::vswitch::{Vswitch, VswitchConfig};
use fastrak_net::addr::{Ip, TenantId, VlanId};
use fastrak_net::event::{Event, NetCtx};
use fastrak_net::flow::{FlowKey, FlowSpec, Proto};
use fastrak_net::packet::{Encap, L4Meta, Packet};
use fastrak_net::rules::{Action, SecurityRule};
use fastrak_net::tunnel::{TunnelKey, TunnelMapping};
use fastrak_sim::kernel::Kernel;
use fastrak_sim::rng::Rng;
use fastrak_sim::time::SimTime;
use fastrak_transport::stack::SockEvent;

const TENANT: TenantId = TenantId(7);

fn key(src: u8, dst: u8, dst_port: u16) -> FlowKey {
    FlowKey {
        tenant: TENANT,
        src_ip: Ip::new(10, 0, 0, src),
        dst_ip: Ip::new(10, 0, 0, dst),
        proto: Proto::Udp,
        src_port: 40_000,
        dst_port,
    }
}

/// A vswitch with one local VM, a tunnel route, and a deny rule — so seeded
/// traffic hits Local, UplinkTunneled, Denied, and NoRoute verdicts.
fn seeded_vswitch() -> Vswitch {
    let mut vs = Vswitch::new(VswitchConfig { tunneling: true });
    vs.attach_vif(TENANT, Ip::new(10, 0, 0, 2));
    vs.tunnels_mut().insert(
        TunnelKey {
            tenant: TENANT,
            vm_ip: Ip::new(10, 0, 0, 3),
        },
        TunnelMapping {
            server_ip: Ip::new(192, 168, 0, 3),
            tor_ip: Ip::new(192, 168, 255, 1),
        },
    );
    vs.rules_mut().add_security(SecurityRule {
        spec: FlowSpec {
            tenant: Some(TENANT),
            dst_port: Some(6666),
            ..FlowSpec::ANY
        },
        priority: 10,
        action: Action::Deny,
    });
    vs
}

/// Seeded bursts: runs of repeated keys drawn from a pool covering every
/// verdict class, with varying per-packet sizes.
fn seeded_bursts(seed: u64) -> Vec<Vec<(FlowKey, u64)>> {
    let pool = [
        key(1, 2, 1000), // local
        key(1, 3, 1000), // tunneled
        key(1, 2, 6666), // denied
        key(1, 9, 1000), // no route (unknown dst, tunneling on)
    ];
    let mut rng = Rng::new(seed);
    let mut bursts = Vec::new();
    for _ in 0..200 {
        let len = 1 + rng.below(64) as usize;
        let mut burst = Vec::with_capacity(len);
        while burst.len() < len {
            let k = pool[rng.below(pool.len() as u64) as usize];
            // Runs: repeat the chosen key 1..=8 times.
            for _ in 0..=rng.below(8) {
                if burst.len() == len {
                    break;
                }
                burst.push((k, rng.range(64, 1500)));
            }
        }
        bursts.push(burst);
    }
    bursts
}

fn flow_stats_sorted(vs: &Vswitch) -> Vec<(FlowKey, u64, u64)> {
    let mut v: Vec<_> = vs
        .dump_flow_stats()
        .into_iter()
        .map(|e| (e.key, e.packets, e.bytes))
        .collect();
    v.sort();
    v
}

#[test]
fn vswitch_tx_burst_matches_scalar_oracle() {
    let mut batched = seeded_vswitch();
    let mut scalar = seeded_vswitch();
    for burst in seeded_bursts(0xD1FF_0001) {
        let mut got = Vec::new();
        batched.process_tx_burst(&burst, &mut got);
        let want: Vec<_> = burst
            .iter()
            .map(|(k, b)| scalar.process_tx(k, *b))
            .collect();
        assert_eq!(got, want);
    }
    assert_eq!(batched.fast_path_hits(), scalar.fast_path_hits());
    assert_eq!(batched.slow_path_hits(), scalar.slow_path_hits());
    assert_eq!(batched.datapath_len(), scalar.datapath_len());
    assert_eq!(flow_stats_sorted(&batched), flow_stats_sorted(&scalar));
}

#[test]
fn vswitch_rx_burst_matches_scalar_oracle() {
    let mut batched = seeded_vswitch();
    let mut scalar = seeded_vswitch();
    for burst in seeded_bursts(0xD1FF_0002) {
        let mut got = Vec::new();
        batched.process_rx_burst(&burst, &mut got);
        let want: Vec<_> = burst
            .iter()
            .map(|(k, b)| scalar.process_rx(k, *b))
            .collect();
        assert_eq!(got, want);
    }
    assert_eq!(batched.fast_path_hits(), scalar.fast_path_hits());
    assert_eq!(batched.slow_path_hits(), scalar.slow_path_hits());
    assert_eq!(flow_stats_sorted(&batched), flow_stats_sorted(&scalar));
}

#[test]
fn sriov_demux_run_matches_scalar_loop() {
    let mut batched = fastrak_host::sriov::SriovNic::new(4);
    let mut scalar = fastrak_host::sriov::SriovNic::new(4);
    for nic in [&mut batched, &mut scalar] {
        nic.alloc_vf(0, TENANT, Ip::new(10, 0, 0, 2), VlanId::new(100))
            .unwrap();
    }
    let got = batched.demux_vlan_run(100, Ip::new(10, 0, 0, 2), 5);
    let mut want = None;
    for _ in 0..5 {
        want = scalar.demux_vlan(100, Ip::new(10, 0, 0, 2));
    }
    assert_eq!(got, want);
    assert_eq!(batched.vfs()[0].rx_packets, scalar.vfs()[0].rx_packets);
    // A miss accounts nothing in either form.
    assert_eq!(batched.demux_vlan_run(999, Ip::new(10, 0, 0, 2), 3), None);
    assert_eq!(batched.vfs()[0].rx_packets, 5);
}

// ------------------------------------------------------------------------
// Full-node differential: a Server receiving same-instant frame bursts must
// produce identical results with kernel burst delivery on and off.
// ------------------------------------------------------------------------

struct NullApp;

impl GuestApp for NullApp {
    fn on_start(&mut self, _api: &mut GuestApi<'_>) {}
    fn on_event(&mut self, _ev: SockEvent, _api: &mut GuestApi<'_>) {}
    fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}
}

fn test_server() -> Server {
    let mut srv = Server::new(ServerConfig::testbed("s0", Ip::new(192, 168, 0, 1)));
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
    srv
}

/// Drive one seeded run of same-instant rx bursts into a server and return
/// (final time, events processed, stats fields, per-VF rx counts, vswitch
/// hit counters, bursts formed).
#[allow(clippy::type_complexity)]
fn run_server_rx(
    burst_delivery: bool,
    seed: u64,
) -> (u64, u64, [u64; 7], Vec<u64>, (u64, u64), u64) {
    let mut kernel: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), seed);
    kernel.set_burst_delivery(burst_delivery);
    let sid = kernel.add_node(test_server());
    let mut rng = Rng::new(seed);
    let mut pkt_id = 0u64;
    for wave in 0..40u64 {
        let at = SimTime::from_micros(50 * (wave + 1));
        for _ in 0..(2 + rng.below(30)) {
            let (flow, encap, port) = match rng.below(4) {
                // VXLAN-tunneled to a local VM on the software port.
                0 => (
                    key(1, 2, 1000),
                    Encap::Vxlan {
                        vni: TENANT.vni(),
                        src: Ip::new(192, 168, 0, 9),
                        dst: Ip::new(192, 168, 0, 1),
                    },
                    PORT_SW,
                ),
                // Same flow, VLAN-tagged on the SR-IOV port.
                1 => (key(1, 2, 1000), Encap::Vlan(100), PORT_HW),
                // Second VM's VF.
                2 => (key(1, 4, 1000), Encap::Vlan(101), PORT_HW),
                // Mis-tagged: dropped at demux.
                _ => (key(1, 2, 1000), Encap::Vlan(999), PORT_HW),
            };
            let mut pkt = Packet::new(pkt_id, flow, L4Meta::Udp, rng.range(64, 1400) as u32, at);
            pkt_id += 1;
            pkt.encap(encap);
            kernel.post(sid, at, Event::Frame { port, pkt });
        }
    }
    kernel.run_to_completion();
    let srv: &Server = kernel.node(sid);
    let s = srv.stats;
    (
        kernel.now().as_nanos(),
        kernel.events_processed(),
        [
            s.tx_ring_drops,
            s.rx_drops,
            s.policy_drops,
            s.no_route_drops,
            s.tx_sw_frames,
            s.tx_hw_frames,
            s.rx_frames,
        ],
        srv.nic().vfs().iter().map(|vf| vf.rx_packets).collect(),
        (
            srv.vswitch().fast_path_hits(),
            srv.vswitch().slow_path_hits(),
        ),
        kernel.bursts_formed(),
    )
}

#[test]
fn server_burst_delivery_is_bit_identical_to_scalar() {
    for seed in [1u64, 0xFA57] {
        let on = run_server_rx(true, seed);
        let off = run_server_rx(false, seed);
        assert_eq!(on.0, off.0, "final sim time diverged (seed {seed})");
        assert_eq!(on.1, off.1, "events processed diverged (seed {seed})");
        assert_eq!(on.2, off.2, "server stats diverged (seed {seed})");
        assert_eq!(on.3, off.3, "VF rx counts diverged (seed {seed})");
        assert_eq!(on.4, off.4, "vswitch hits diverged (seed {seed})");
        assert!(on.5 > 0, "no bursts formed — test is vacuous (seed {seed})");
        assert_eq!(off.5, 0, "scalar run must not form bursts");
    }
}
