//! Table 2 — memcached finish times as servers shift to SR-IOV (§6.1.2).
//!
//! Four memcached VMs on the test server (two EC2-large-, two EC2-medium-
//! equivalents); five client servers each issue a fixed number of requests
//! to **all four** servers. Between runs, {0,1,2,3,4} of the memcached
//! servers are moved onto the SR-IOV VF, i.e. the percentage of traffic
//! through the VIF drops 100% → 0%.
//!
//! Paper rows (2 M requests/client): 100% VIF 86.6 s / 23,089 tps / 331 µs
//! / 3.5 CPUs · 75% 82.2 / 24,333 / 306 / 3.2 · 50% 82.3 / 24,335 / 297 /
//! 3.2 · 25% 82.1 / 23,976 / 275 / 2.9 · 0% 54.9 / 37,456 / 190 / 2.2. The
//! headline: finish time only improves once **all** servers are fast —
//! partition-aggregate completion is dominated by the slowest member.

use fastrak_host::vm::VmSpec;
use fastrak_net::addr::Ip;
use fastrak_net::flow::FlowSpec;
use fastrak_net::packet::PathTag;
use fastrak_workload::{memcached_server, MemslapClient, MemslapConfig, Testbed, VmRef};

use crate::cells;
use crate::experiments::Cx;
use crate::report::{Artifact, Row};
use crate::scenarios::{rack, run_memslap, TENANT};

/// The row `--telemetry` exports: half the memcached servers on SR-IOV, so
/// both paths carry memcached traffic.
const EXPORT_N_FAST: usize = 2;

/// The four memcached server IPs.
pub fn mc_ips() -> [Ip; 4] {
    [1, 2, 3, 4].map(Ip::tenant_vm)
}

/// Build the Table-2 rack. Returns (bed, memcached vms, client vms).
fn build(requests_per_client: u64, seed: u64) -> (Testbed, Vec<VmRef>, Vec<VmRef>) {
    let mut bed = rack(seed);
    let mut servers = Vec::new();
    for (i, ip) in mc_ips().into_iter().enumerate() {
        let spec = if i < 2 {
            VmSpec::large(format!("mc{i}"), TENANT, ip)
        } else {
            VmSpec::medium(format!("mc{i}"), TENANT, ip)
        };
        servers.push(bed.add_vm(0, spec, Box::new(memcached_server())));
    }
    let mut clients = Vec::new();
    for c in 0..5u16 {
        let ip = Ip::tenant_vm(10 + c);
        let mut cfg = MemslapConfig::paper(mc_ips().to_vec(), Some(requests_per_client));
        cfg.src_port_base = 43_000 + c * 64;
        clients.push(bed.add_vm(
            (c % 5) as usize + 1,
            VmSpec::large(format!("slap{c}"), TENANT, ip),
            Box::new(MemslapClient::new(cfg)),
        ));
    }
    (bed, servers, clients)
}

/// Shift the first `n_fast` memcached servers onto the SR-IOV path:
/// their egress via their placer, and requests *to* them via a dst-ip rule
/// on every client VM.
pub fn offload_servers(bed: &mut Testbed, servers: &[VmRef], clients: &[VmRef], n_fast: usize) {
    if n_fast == 0 {
        return;
    }
    bed.authorize_hw_tenant(TENANT);
    for &s in &servers[..n_fast] {
        // Server egress (responses).
        let spec = FlowSpec {
            tenant: Some(TENANT),
            src_ip: Some(s.ip),
            ..FlowSpec::ANY
        };
        let srv = bed.server_mut(s.server);
        srv.vm_mut(s.vm)
            .placer
            .install_rule(spec, 10, PathTag::SrIov);
        // Client egress toward this server (requests + acks).
        let spec = FlowSpec {
            tenant: Some(TENANT),
            dst_ip: Some(s.ip),
            ..FlowSpec::ANY
        };
        for &c in clients {
            let srv = bed.server_mut(c.server);
            srv.vm_mut(c.vm)
                .placer
                .install_rule(spec, 10, PathTag::SrIov);
        }
    }
}

/// Regenerate Table 2.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let full = cx.full;
    let requests = if full { 2_000_000 } else { 150_000 };
    let horizon = if full { 300 } else { 60 };
    let scale = requests as f64 / 2_000_000.0;
    let mut t = Artifact::new(
        "table2",
        "Memcached finish times as servers shift to SR-IOV",
        "finish time barely moves at 75/50/25% VIF (slowest member dominates) and drops ~37% at 0% VIF; latency falls monotonically; TPS jumps ~1.6× at 0%",
    );
    let paper = [
        (100, 86.6, 23_089.0, 331.0, 3.5),
        (75, 82.2, 24_333.0, 306.0, 3.2),
        (50, 82.3, 24_335.0, 297.0, 3.2),
        (25, 82.1, 23_976.0, 275.0, 2.9),
        (0, 54.9, 37_456.0, 190.0, 2.2),
    ];
    // Row i has the first i memcached servers on SR-IOV: one world each.
    let n_fast: Vec<usize> = (0..paper.len()).collect();
    let measured = cells::map(&n_fast, |&n| {
        let (mut bed, servers, clients) = build(requests, 37);
        offload_servers(&mut bed, &servers, &clients, n);
        let measured = run_memslap(&mut bed, &clients, horizon);
        if n == EXPORT_N_FAST {
            cx.publish(&mut bed, None);
        }
        measured
    });
    for ((pct_vif, p_fin, p_tps, p_lat, p_cpu), (fin, tps, lat, cpus)) in
        paper.into_iter().zip(measured)
    {
        let cfg = format!("{pct_vif}% via VIF");
        t.push(Row::new(
            "mean finish",
            &cfg,
            Some(p_fin * scale),
            fin,
            "s (paper scaled)",
        ));
        t.push(Row::new("mean TPS/client", &cfg, Some(p_tps), tps, "tps"));
        t.push(Row::new("mean latency", &cfg, Some(p_lat), lat, "us"));
        t.push(Row::new("# CPUs", &cfg, Some(p_cpu), cpus, "logical CPUs"));
    }
    if !full {
        t.note(format!(
            "quick mode: {requests} requests/client instead of 2M; finish-time paper values scaled by {scale:.3} (rates are stationary, ratios preserved)"
        ));
    }
    vec![t]
}
