//! Table 4 — flow migration with FasTrak (§6.2.1).
//!
//! The Table-3 workload, but instead of statically pinning paths, the
//! FasTrak controllers monitor traffic and decide. Everything starts on the
//! VIF; within one control interval the local controllers report the
//! memcached aggregates at thousands of pps vs the file transfers at ~100
//! pps, the TOR controller offloads memcached (the experiment restricts
//! FasTrak to one application, as the paper does), and finish times roughly
//! halve.
//!
//! Paper: VIF only 110.9 s / 18,044 tps / 440 µs / 7.6 CPUs vs
//! VIF(10 s)+SR-IOV(rest) 57.34 s / 35,340 tps / 226 µs / 6.0 CPUs.

use fastrak::{attach, DeConfig, FasTrakConfig, Timing};

use crate::cells;
use crate::experiments::table3::build;
use crate::experiments::Cx;
use crate::report::{Artifact, Row};
use crate::scenarios::run_memslap;

/// Regenerate Table 4. `--telemetry` exports the managed world.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let full = cx.full;
    let requests = if full { 2_000_000 } else { 150_000 };
    let transfer = if full { 4u64 << 30 } else { 400 << 20 };
    let horizon = if full { 400 } else { 90 };
    let scale = requests as f64 / 2_000_000.0;
    let mut t = Artifact::new(
        "table4",
        "Memcached finish times under FasTrak's automatic flow migration",
        "FasTrak detects memcached's high pps within one control interval and offloads it (never the ~100 pps scp flows); finish time and latency improve ≈2×, CPU drops ≈21%",
    );

    // Two worlds on the same rack: VIF only (no controller, nothing
    // offloaded), and FasTrak managing it. The paper modifies FasTrak to
    // offload only one application; memcached has 4 server VMs × 2
    // directions = 8 aggregates.
    let mut rows = cells::map(&[false, true], |&managed| {
        let (mut bed, _servers, clients) = build(requests, transfer, 43);
        if !managed {
            return (run_memslap(&mut bed, &clients, horizon), 0, false);
        }
        let ft = attach(
            &mut bed,
            FasTrakConfig {
                timing: if full {
                    Timing::coarse()
                } else {
                    Timing::fine()
                },
                de: DeConfig {
                    max_offloaded: Some(8),
                    ..DeConfig::paper()
                },
                ..Default::default()
            },
        );
        ft.start(&mut bed);
        let r = run_memslap(&mut bed, &clients, horizon);
        // Sanity: what got offloaded must be the memcached aggregates.
        let ports: Vec<u16> = ft
            .offloaded(&bed)
            .iter()
            .map(|a| match a {
                fastrak_net::flow::FlowAggregate::SrcApp { port, .. }
                | fastrak_net::flow::FlowAggregate::DstApp { port, .. } => *port,
            })
            .collect();
        let all_memcached =
            !ports.is_empty() && ports.iter().all(|&p| p == fastrak_workload::MEMCACHED_PORT);
        cx.publish(&mut bed, Some(&ft));
        (r, ports.len(), all_memcached)
    })
    .into_iter();

    let ((fin, tps, lat, cpus), ..) = rows.next().expect("the VIF-only world");
    t.push(Row::new(
        "mean finish",
        "VIF only",
        Some(110.9 * scale),
        fin,
        "s (paper scaled)",
    ));
    t.push(Row::new(
        "mean TPS/client",
        "VIF only",
        Some(18_044.2),
        tps,
        "tps",
    ));
    t.push(Row::new("mean latency", "VIF only", Some(440.2), lat, "us"));
    t.push(Row::new(
        "# CPUs",
        "VIF only",
        Some(7.6),
        cpus,
        "logical CPUs",
    ));

    let ((fin, tps, lat, cpus), n_offloaded, all_mc) = rows.next().expect("the managed world");
    let label = "VIF(start)+SR-IOV(rest)";
    t.push(Row::new(
        "mean finish",
        label,
        Some(57.34 * scale),
        fin,
        "s (paper scaled)",
    ));
    t.push(Row::new(
        "mean TPS/client",
        label,
        Some(35_339.8),
        tps,
        "tps",
    ));
    t.push(Row::new("mean latency", label, Some(225.6), lat, "us"));
    t.push(Row::new("# CPUs", label, Some(6.0), cpus, "logical CPUs"));
    t.push(Row::new(
        "offloaded aggregates",
        "(all memcached?)",
        None,
        n_offloaded as f64,
        if all_mc {
            "aggregates (all :11211)"
        } else {
            "aggregates (UNEXPECTED non-memcached!)"
        },
    ));
    if !full {
        t.note(format!(
            "quick mode: {requests} requests/client; fine timing (T=0.5s) so the offload happens at the same fraction of the run as the paper's 10 s with T=5 s"
        ));
    }
    vec![t]
}
