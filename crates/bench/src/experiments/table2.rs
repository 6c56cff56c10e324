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

use crate::experiments::{Cx, Decl, World};
use crate::report::{Artifact, ArtifactSpec, RowSpec};
use crate::scenarios::{rack, run_memslap, TENANT};

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

/// A memslap run's (mean finish s, mean TPS per client, mean latency µs,
/// CPUs), as [`run_memslap`] reads it.
pub(crate) type Memslap = (f64, f64, f64, f64);

/// The four rows Tables 2-4 report for the cell `label` (also their
/// config) beside the paper's (finish, TPS, latency, CPUs); the finish time
/// is scaled by `scale`. `memslap` reads the cell's outcome.
pub(crate) fn memslap_rows<O: 'static>(
    art: &mut ArtifactSpec<O>,
    label: &str,
    (p_fin, p_tps, p_lat, p_cpu): Memslap,
    scale: f64,
    memslap: fn(&O) -> Memslap,
) {
    let row = |metric, paper, unit, read: fn(Memslap) -> f64| {
        RowSpec::new(metric, label, Some(paper), unit, [label], move |c| {
            read(memslap(c[0]))
        })
    };
    art.push(row("mean finish", p_fin * scale, "s (paper scaled)", |m| {
        m.0
    }));
    art.push(row("mean TPS/client", p_tps, "tps", |m| m.1));
    art.push(row("mean latency", p_lat, "us", |m| m.2));
    art.push(row("# CPUs", p_cpu, "logical CPUs", |m| m.3));
}

/// (requests per client, horizon s) of a quick or full run.
fn load(full: bool) -> (u64, u64) {
    if full {
        (2_000_000, 300)
    } else {
        (150_000, 60)
    }
}

/// One world per row: row i has the first i memcached servers on SR-IOV.
/// `--telemetry` exports half the servers on SR-IOV, so both paths carry
/// memcached traffic.
pub(crate) fn declare(full: bool) -> Decl<usize, Memslap> {
    let requests = load(full).0;
    let scale = requests as f64 / 2_000_000.0;
    let mut t = ArtifactSpec::new(
        "table2",
        "Memcached finish times as servers shift to SR-IOV",
        "finish time barely moves at 75/50/25% VIF (slowest member dominates) and drops ~37% at 0% VIF; latency falls monotonically; TPS jumps ~1.6× at 0%",
    );
    let paper = [
        (100, (86.6, 23_089.0, 331.0, 3.5)),
        (75, (82.2, 24_333.0, 306.0, 3.2)),
        (50, (82.3, 24_335.0, 297.0, 3.2)),
        (25, (82.1, 23_976.0, 275.0, 2.9)),
        (0, (54.9, 37_456.0, 190.0, 2.2)),
    ];
    let mut worlds = Vec::new();
    for (n_fast, (pct_vif, paper)) in paper.into_iter().enumerate() {
        let label = format!("{pct_vif}% via VIF");
        memslap_rows(&mut t, &label, paper, scale, |m| *m);
        worlds.push(World::one(label, n_fast));
    }
    if !full {
        t.note(format!(
            "quick mode: {requests} requests/client instead of 2M; finish-time paper values scaled by {scale:.3} (rates are stationary, ratios preserved)"
        ));
    }
    Decl::new(worlds, "50% via VIF", vec![t])
}

/// Regenerate Table 2.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let (requests, horizon) = load(cx.full);
    declare(cx.full).run(cx, |&n_fast, cells| {
        let (mut bed, servers, clients) = build(requests, 37);
        offload_servers(&mut bed, &servers, &clients, n_fast);
        let measured = run_memslap(&mut bed, &clients, horizon);
        if let Some(cx) = cells[0].export {
            cx.publish(&mut bed, None);
        }
        vec![measured]
    })
}
