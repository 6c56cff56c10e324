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
use fastrak_sim::time::SimTime;
use fastrak_workload::{
    memcached_server, Composite, FileTransfer, MemslapClient, MemslapConfig, StreamSink, Testbed,
    VmRef,
};

use crate::cells;
use crate::experiments::table2::{mc_ips, offload_servers};
use crate::report::{Artifact, Row};
use crate::scenarios::{rack, TENANT};

/// Build the Table-3 rack: memcached VMs also run a file transfer to sinks
/// on the client servers.
pub fn build(
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

/// Run one configuration to completion; returns (finish s, TPS, latency µs,
/// CPUs).
pub fn measure_with(bed: &mut Testbed, clients: &[VmRef], horizon_s: u64) -> (f64, f64, f64, f64) {
    bed.begin_cpu_windows();
    if bed.now() == SimTime::ZERO {
        bed.start();
    }
    let horizon = SimTime::from_secs(horizon_s);
    let step = fastrak_sim::time::SimDuration::from_millis(500);
    loop {
        let now = bed.now();
        if now >= horizon {
            break;
        }
        bed.run_until(now + step);
        let all_done = clients
            .iter()
            .all(|&c| bed.app::<MemslapClient>(c).finished_at.is_some());
        if all_done {
            break;
        }
    }
    let now = bed.now();
    let mut finish = 0.0;
    let mut tps = 0.0;
    let mut lat = 0.0;
    for &c in clients {
        let app = bed.app::<MemslapClient>(c);
        let ft = app
            .finish_time()
            .unwrap_or_else(|| now.since(app.started_at().unwrap_or(SimTime::ZERO)));
        finish += ft.as_secs_f64();
        tps += app.completed() as f64 / ft.as_secs_f64().max(1e-9);
        lat += app.latency.mean() / 1e3;
    }
    let n = clients.len() as f64;
    let cpus = bed.server(0).cpus_used(now);
    (finish / n, tps / n, lat / n, cpus)
}

/// Regenerate Table 3.
pub fn run(full: bool) -> Vec<Artifact> {
    let requests = if full { 2_000_000 } else { 150_000 };
    let transfer = if full { 4u64 << 30 } else { 400 << 20 };
    let horizon = if full { 400 } else { 90 };
    let scale = requests as f64 / 2_000_000.0;
    let mut t = Artifact::new(
        "table3",
        "Memcached finish times with disk-bound background transfers",
        "with the background transfers on the VIF, moving memcached to SR-IOV roughly halves finish time and latency",
    );
    let paper = [
        ("VIF", 118.4, 16_896.2, 455.6, 7.6, 0usize),
        ("SR-IOV VF", 69.0, 29_334.6, 249.0, 6.3, 4usize),
    ];
    let measured = cells::map(&paper, |&(.., n_fast)| {
        let (mut bed, servers, clients) = build(requests, transfer, 41);
        offload_servers(&mut bed, &servers, &clients, n_fast);
        measure_with(&mut bed, &clients, horizon)
    });
    for ((cfg, p_fin, p_tps, p_lat, p_cpu, _), (fin, tps, lat, cpus)) in
        paper.into_iter().zip(measured)
    {
        t.push(Row::new(
            "mean finish",
            cfg,
            Some(p_fin * scale),
            fin,
            "s (paper scaled)",
        ));
        t.push(Row::new("mean TPS/client", cfg, Some(p_tps), tps, "tps"));
        t.push(Row::new("mean latency", cfg, Some(p_lat), lat, "us"));
        t.push(Row::new("# CPUs", cfg, Some(p_cpu), cpus, "logical CPUs"));
    }
    if !full {
        t.note(format!(
            "quick mode: {requests} requests/client, {} MB transfers; paper finish times scaled by {scale:.3}",
            transfer >> 20
        ));
    }
    vec![t]
}
