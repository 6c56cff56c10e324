//! Benchmarks for the simulated data plane itself: wire-header codecs, the
//! vswitch decision path, the DES kernel's event throughput, and a full
//! end-to-end simulated second of RR traffic (the cost of running the
//! reproduction, not of the modelled system).
//!
//! Run with `cargo bench -p fastrak-bench --bench datapath` (add
//! `-- --quick` for a fast smoke pass). Set `FASTRAK_BENCH_JSON=<path>` to
//! collect machine-readable results.

use fastrak_bench::harness::{black_box, Suite};
use fastrak_net::addr::{Ip, Mac, TenantId};
use fastrak_net::event::{Event, NetCtx};
use fastrak_net::flow::{FlowKey, Proto};
use fastrak_net::packet::{Encap, L4Meta, Packet};
use fastrak_sim::chaos::ChaosConfig;
use fastrak_sim::fault::{FaultConfig, FaultLayer};
use fastrak_sim::kernel::{Api, Kernel, Node};
use fastrak_sim::time::{SimDuration, SimTime};

fn flow() -> FlowKey {
    FlowKey {
        tenant: TenantId(3),
        src_ip: Ip::new(10, 0, 0, 1),
        dst_ip: Ip::new(10, 0, 0, 2),
        proto: Proto::Tcp,
        src_port: 40_000,
        dst_port: 11_211,
    }
}

struct Ping {
    peer: usize,
    left: u64,
}
impl Node<u64, ()> for Ping {
    fn on_event(&mut self, ev: u64, api: &mut Api<'_, u64, ()>) {
        if self.left > 0 {
            self.left -= 1;
            api.send(self.peer, SimDuration::from_micros(1), ev + 1);
        }
    }
}

/// The same ping-pong, forwarding a real simulation event unchanged.
struct FramePing {
    peer: usize,
    left: u64,
}
impl Node<Event, NetCtx> for FramePing {
    fn on_event(&mut self, ev: Event, api: &mut Api<'_, Event, NetCtx>) {
        if self.left > 0 {
            self.left -= 1;
            api.send(self.peer, SimDuration::from_micros(1), ev);
        }
    }
}

/// The same ping-pong over a context carrying the telemetry plane, with the
/// hot path guarded the way instrumented components guard theirs: check
/// `enabled()` and bail. With an unconfigured registry the branch is never
/// taken, so the bench measures the cost of carrying the plane, not using it.
struct TelemetryPing {
    peer: usize,
    left: u64,
}
impl Node<u64, fastrak_telemetry::Telemetry> for TelemetryPing {
    fn on_event(&mut self, ev: u64, api: &mut Api<'_, u64, fastrak_telemetry::Telemetry>) {
        if api.ctx.spans.enabled() {
            let comp = api.ctx.spans.comp("ping");
            api.ctx
                .spans
                .track_flow_path(api.now.as_nanos(), comp, ev, "ev");
        }
        if self.left > 0 {
            self.left -= 1;
            api.send(self.peer, SimDuration::from_micros(1), ev + 1);
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut s = Suite::new("datapath");
    if quick {
        s = s.quick();
    }

    let mut p = Packet::new(
        1,
        flow(),
        L4Meta::Tcp {
            seq: 1,
            ack: 2,
            flags: 0x18,
        },
        1448,
        SimTime::ZERO,
    );
    p.encap(Encap::Vxlan {
        vni: 3,
        src: Ip::provider_server(0, 1),
        dst: Ip::provider_server(0, 2),
    });
    s.bench("encode_wire_vxlan_1448B", || {
        black_box(p.encode_wire(Mac::local(1), Mac::local(2)));
    });
    let bytes = {
        let mut q = p.clone();
        q.decap();
        q.encode_wire(Mac::local(1), Mac::local(2))
    };
    s.bench("decode_wire_plain_1448B", || {
        black_box(Packet::decode_wire(TenantId(3), &bytes).unwrap());
    });

    {
        use fastrak_host::vswitch::{Vswitch, VswitchConfig};
        let mut vs = Vswitch::new(VswitchConfig::default());
        vs.attach_vif(TenantId(3), Ip::new(10, 0, 0, 1));
        let k = flow();
        vs.process_tx(&k, 1500); // warm the datapath cache
        s.bench("vswitch_fast_path_tx", || {
            black_box(vs.process_tx(&k, 1500));
        });
    }

    s.bench("des_kernel_100k_events", || {
        let mut k = Kernel::new((), 1);
        let a = k.add_node(Ping {
            peer: 1,
            left: 50_000,
        });
        let _b = k.add_node(Ping {
            peer: a,
            left: 50_000,
        });
        k.post(a, SimTime::ZERO, 0);
        k.run_to_completion();
        black_box(k.events_processed());
    });

    // Same ping-pong bouncing what the simulator actually schedules: an
    // `Event::Frame` carrying a VXLAN-encapped data packet. The kernel moves
    // the event by value at every hop (post, calendar arena, pop, dispatch), so
    // this prices `size_of::<Event>()`, which the `u64` bench above cannot
    // see. The perf gate pins it with a ceiling between this and what the
    // same loop cost with a 168-byte event.
    s.bench("des_kernel_100k_frame_events", || {
        let mut k = Kernel::new(NetCtx::new(), 1);
        let a = k.add_node(FramePing {
            peer: 1,
            left: 50_000,
        });
        let _b = k.add_node(FramePing {
            peer: a,
            left: 50_000,
        });
        let frame = Event::Frame {
            port: 0,
            pkt: p.clone(),
        };
        k.post(a, SimTime::ZERO, frame);
        k.run_to_completion();
        black_box(k.events_processed());
    });

    // Same workload with a zero-probability fault plane attached: the
    // fault-injection hook on the send path must stay free when every
    // probability is zero (the plane is consulted but never draws). The
    // perf gate holds this within ratio of the hook-free bench above.
    s.bench("des_kernel_100k_events_zero_fault", || {
        let mut k = Kernel::new((), 1);
        k.set_fault_layer(FaultLayer::new(FaultConfig::default(), |_| true, |_| None));
        let a = k.add_node(Ping {
            peer: 1,
            left: 50_000,
        });
        let _b = k.add_node(Ping {
            peer: a,
            left: 50_000,
        });
        k.post(a, SimTime::ZERO, 0);
        k.run_to_completion();
        black_box(k.events_processed());
    });

    // Same workload with a fault plane carrying a scripted (but never-
    // firing) chaos config: the per-send window scan and the lazy epoch
    // checks must stay near-free when no window covers the run. The perf
    // gate holds this within ratio of the hook-free bench above.
    s.bench("des_kernel_100k_events_idle_chaos", || {
        let mut k = Kernel::new((), 1);
        let far = SimTime::from_secs(3_600);
        let later = SimTime::from_secs(7_200);
        k.set_fault_layer(
            FaultLayer::new(
                FaultConfig {
                    chaos: ChaosConfig {
                        tor_outages: vec![(0, far, later)],
                        vf_outages: vec![(0, far, later)],
                        link_flaps: vec![(0, 1, far, later)],
                        controller_restarts: vec![(0, far)],
                    },
                    ..FaultConfig::default()
                },
                |_| true,
                |_| None,
            )
            // Every event counts as a data-plane frame, so each send walks
            // the chaos plane's window scan — the cost under measurement.
            .with_frame_classifier(|_| true),
        );
        let a = k.add_node(Ping {
            peer: 1,
            left: 50_000,
        });
        let _b = k.add_node(Ping {
            peer: a,
            left: 50_000,
        });
        k.post(a, SimTime::ZERO, 0);
        k.run_to_completion();
        black_box(k.events_processed());
    });

    // Same workload again with the telemetry plane in the context and the
    // span guard on the hot path, but nothing registered or enabled: the
    // observability plane must cost nothing until someone turns it on. The
    // perf gate holds this within ratio of the plane-free bench above.
    s.bench("telemetry_disabled_kernel_100k", || {
        let mut k = Kernel::new(fastrak_telemetry::Telemetry::default(), 1);
        let a = k.add_node(TelemetryPing {
            peer: 1,
            left: 50_000,
        });
        let _b = k.add_node(TelemetryPing {
            peer: a,
            left: 50_000,
        });
        k.post(a, SimTime::ZERO, 0);
        k.run_to_completion();
        black_box(k.events_processed());
    });

    {
        use fastrak_host::vm::VmSpec;
        use fastrak_workload::{
            RrClient, RrClientConfig, RrServer, RrServerConfig, Testbed, TestbedConfig,
        };
        s.bench("simulate_1s_closed_loop_rr", || {
            let mut bed = Testbed::build(TestbedConfig {
                n_servers: 2,
                ..TestbedConfig::default()
            });
            bed.add_vm(
                0,
                VmSpec::large("srv", TenantId(1), Ip::tenant_vm(1)),
                Box::new(RrServer::new(RrServerConfig {
                    port: 7000,
                    req_size: 64,
                    resp_size: 64,
                    service_cpu: SimDuration::ZERO,
                })),
            );
            let cli = bed.add_vm(
                1,
                VmSpec::large("cli", TenantId(1), Ip::tenant_vm(2)),
                Box::new(RrClient::new(RrClientConfig::closed_loop(
                    Ip::tenant_vm(1),
                    7000,
                    64,
                ))),
            );
            bed.start();
            bed.run_until(SimTime::from_secs(1));
            black_box(bed.app::<RrClient>(cli).completed());
        });
    }

    // What `chaos_matrix` pays per cell instead of re-simulating the 2.5 s
    // every cell shares: one copy of the converged rack (and dropping it).
    // The perf gate ceilings it, so a world that grows expensive to copy
    // fails CI instead of quietly eating the saving.
    let rack = fastrak_bench::experiments::chaos_matrix::rack_at_fork();
    s.bench("testbed_fork_chaos_rack", || {
        black_box(rack.clone());
    });

    s.finish();
}
