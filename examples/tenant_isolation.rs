//! Tenant isolation on the express lane (§1 objective 2 and §4.1.3-4.1.4):
//!
//! * overlapping tenant IP spaces stay isolated (the GRE key / VLAN tag
//!   carries the tenant ID end to end);
//! * a malicious VM that bypasses its flow placer and pushes disallowed
//!   traffic through its SR-IOV VF hits the ToR's default-deny rule;
//! * per-VM aggregate rate limits hold even when flows are split across
//!   both paths (FPS).
//!
//! ```text
//! cargo run --release --example tenant_isolation
//! ```

use fastrak::{attach, DeConfig, FasTrakConfig, FastPathPolicy, Timing, VmLimit};
use fastrak_host::vm::VmSpec;
use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::flow::FlowSpec;
use fastrak_net::packet::PathTag;
use fastrak_sim::time::SimTime;
use fastrak_workload::{
    memcached_server, MemslapClient, MemslapConfig, StreamConfig, StreamSender, StreamSink,
    Testbed, TestbedConfig,
};

fn main() {
    let t1 = TenantId(1);
    let t2 = TenantId(2);
    // Both tenants use the SAME RFC1918 addresses — requirement C1.
    let shared_a = Ip::tenant_vm(1);
    let shared_b = Ip::tenant_vm(2);

    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 2,
        ..TestbedConfig::default()
    });
    // Tenant 1: memcached pair with a 1 Gbps egress limit on the server.
    let mc = bed.add_vm(
        0,
        VmSpec::large("t1-mc", t1, shared_a),
        Box::new(memcached_server()),
    );
    let cli = bed.add_vm(
        1,
        VmSpec::large("t1-slap", t1, shared_b),
        Box::new(MemslapClient::new(MemslapConfig::paper(
            vec![shared_a],
            None,
        ))),
    );
    // Tenant 2: same IPs, a bulk stream in the other direction.
    let sink2 = bed.add_vm(
        0,
        VmSpec::large("t2-sink", t2, shared_a),
        Box::new(StreamSink::new(5001)),
    );
    bed.add_vm(
        1,
        VmSpec::large("t2-src", t2, shared_b),
        Box::new(StreamSender::new(StreamConfig::netperf(
            shared_a, 5001, 32_000,
        ))),
    );

    let ft = attach(
        &mut bed,
        FasTrakConfig {
            timing: Timing::fine(),
            // Tenant 2 gets no fast-path entries: its bulk traffic stays
            // in software, so its VF is not authorized at the ToR — the
            // bypass test below depends on it.
            de: DeConfig {
                policy: FastPathPolicy::StaticQuota {
                    default_cap: usize::MAX,
                    caps: [(t2, 0)].into_iter().collect(),
                },
                ..DeConfig::paper()
            },
            limits: vec![
                VmLimit {
                    tenant: t1,
                    vm_ip: shared_a,
                    egress_bps: Some(1_000_000_000),
                    ingress_bps: None,
                },
                // I3: no single tenant may monopolize the network — cap the
                // bulk tenant so it cannot starve tenant 1's transactions.
                VmLimit {
                    tenant: t2,
                    vm_ip: shared_b,
                    egress_bps: Some(4_000_000_000),
                    ingress_bps: None,
                },
            ],
            ..Default::default()
        },
    );
    ft.start(&mut bed);
    bed.start();
    bed.run_until(SimTime::from_secs(4));

    // 1. Overlapping IPs, disjoint delivery.
    let t1_done = bed.app::<MemslapClient>(cli).completed();
    let now = bed.now();
    let t2_bps = bed.app::<StreamSink>(sink2).goodput_bps(now);
    println!("tenant1 memcached transactions: {t1_done}");
    println!("tenant2 bulk goodput:           {:.2} Gbps", t2_bps / 1e9);
    assert!(
        t1_done > 2_000 && t2_bps > 1e8,
        "both tenants make progress"
    );

    // 2. Malicious bypass: force tenant 2's stream onto the SR-IOV path
    //    WITHOUT any ToR authorization for tenant 2. Default-deny drops it.
    let acl_drops_before = bed.tor().stats.acl_drops;
    {
        let v = bed.vms()[3]; // t2-src
        let srv = bed.server_mut(v.server);
        srv.vm_mut(v.vm)
            .placer
            .install_rule(FlowSpec::ANY, 99, PathTag::SrIov);
    }
    bed.run_until(bed.now() + fastrak_sim::time::SimDuration::from_secs(1));
    let acl_drops = bed.tor().stats.acl_drops - acl_drops_before;
    println!("\nmalicious VF bypass: {acl_drops} frames dropped by the ToR's default-deny ACL");
    assert!(acl_drops > 0, "the ToR must drop unauthorized VF traffic");

    // 3. The tenant-1 rate limit held across both paths (FPS split).
    let lc = bed
        .kernel
        .node::<fastrak::LocalController>(ft.locals[mc.server]);
    if let Some((sw, hw)) = lc.split_of(t1, shared_a, fastrak_net::ctrl::Dir::Egress) {
        println!(
            "\nFPS split of the 1 Gbps limit: software {:.0} Mbps + hardware {:.0} Mbps (≤ L+2O)",
            sw as f64 / 1e6,
            hw as f64 / 1e6
        );
        assert!(sw + hw <= 1_120_000_000);
    }
    println!("\ntenant isolation holds.");
}
