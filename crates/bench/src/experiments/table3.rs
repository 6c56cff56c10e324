//! Table 3 — memcached finish times with background file transfers
//! (§6.1.2).
//!
//! The Table-2 rack, but each memcached VM additionally runs a disk-bound
//! 4 GB file transfer **over the VIF**. Memcached traffic goes entirely via
//! the VIF or entirely via the SR-IOV VF.
//!
//! Paper: VIF 118.4 s / 16,896 tps / 456 µs / 7.6 CPUs vs SR-IOV 69 s /
//! 29,335 tps / 249 µs / 6.3 CPUs — "finish times almost double when the
//! memcached traffic uses the VIF, and latency reduces by half [with
//! SR-IOV]".

use fastrak_host::vm::VmSpec;
use fastrak_net::addr::Ip;
use fastrak_workload::{
    memcached_server, Composite, FileTransfer, MemslapClient, MemslapConfig, StreamSink, Testbed,
    VmRef,
};

use crate::experiments::table2::{mc_ips, memslap_rows, offload_servers, Memslap};
use crate::experiments::{Cx, Decl, World};
use crate::report::{Artifact, ArtifactSpec};
use crate::scenarios::{rack, run_memslap, TENANT};

/// Build the Table-3 rack: memcached VMs also run a file transfer to sinks
/// on the client servers.
pub(crate) fn build(
    requests_per_client: u64,
    transfer_bytes: u64,
    seed: u64,
) -> (Testbed, Vec<VmRef>, Vec<VmRef>) {
    let mut bed = rack(seed);
    let mut servers = Vec::new();
    for (i, ip) in mc_ips().into_iter().enumerate() {
        let sink_ip = Ip::tenant_vm(40 + i as u16);
        let mut ft = FileTransfer::paper_default(sink_ip, 22, 50_000 + i as u16);
        ft.total_bytes = transfer_bytes;
        let spec = if i < 2 {
            VmSpec::large(format!("mc{i}"), TENANT, ip)
        } else {
            VmSpec::medium(format!("mc{i}"), TENANT, ip)
        };
        servers.push(bed.add_vm(
            0,
            spec,
            Box::new(Composite::new(vec![
                Box::new(memcached_server()),
                Box::new(ft),
            ])),
        ));
        // The transfer sink lives on client server i+1.
        bed.add_vm(
            (i % 5) + 1,
            VmSpec::medium(format!("ftsink{i}"), TENANT, sink_ip),
            Box::new(StreamSink::new(22)),
        );
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

/// (requests per client, transfer bytes, horizon s) of a quick or full
/// run; Table 4 runs the same.
pub(crate) fn load(full: bool) -> (u64, u64, u64) {
    if full {
        (2_000_000, 4 << 30, 400)
    } else {
        (150_000, 400 << 20, 90)
    }
}

/// Two worlds, memcached all on the VIF or all on SR-IOV (the servers
/// moved). `--telemetry` exports the VIF world: memcached and the
/// transfers share the VIF.
pub(crate) fn declare(full: bool) -> Decl<usize, Memslap> {
    let (requests, transfer, _) = load(full);
    let scale = requests as f64 / 2_000_000.0;
    let mut t = ArtifactSpec::new(
        "table3",
        "Memcached finish times with disk-bound background transfers",
        "with the background transfers on the VIF, moving memcached to SR-IOV roughly halves finish time and latency",
    );
    let mut worlds = Vec::new();
    for (label, paper, n_fast) in [
        ("VIF", (118.4, 16_896.2, 455.6, 7.6), 0),
        ("SR-IOV VF", (69.0, 29_334.6, 249.0, 6.3), 4),
    ] {
        memslap_rows(&mut t, label, paper, scale, |m| *m);
        worlds.push(World::one(label, n_fast));
    }
    if !full {
        t.note(format!(
            "quick mode: {requests} requests/client, {} MB transfers; paper finish times scaled by {scale:.3}",
            transfer >> 20
        ));
    }
    Decl::new(worlds, "VIF", vec![t])
}

/// Regenerate Table 3.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let (requests, transfer, horizon) = load(cx.full);
    declare(cx.full).run(cx, |&n_fast, cells| {
        let (mut bed, servers, clients) = build(requests, transfer, 41);
        offload_servers(&mut bed, &servers, &clients, n_fast);
        let measured = run_memslap(&mut bed, &clients, horizon);
        if let Some(cx) = cells[0].export {
            cx.publish(&mut bed, None);
        }
        vec![measured]
    })
}
