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
use fastrak_net::flow::FlowAggregate;

use crate::experiments::table2::{memslap_rows, Memslap};
use crate::experiments::table3::{build, load};
use crate::experiments::{Cx, Decl, World};
use crate::report::{Artifact, ArtifactSpec, RowSpec};
use crate::scenarios::run_memslap;

/// One world's memslap run, and in the managed world what got offloaded:
/// how many aggregates, and whether all are memcached's.
pub(crate) struct Outcome {
    memslap: Memslap,
    offloaded: usize,
    all_memcached: bool,
}

/// Two worlds on the same rack: VIF only (no controller, nothing
/// offloaded), and FasTrak managing it. `--telemetry` exports the managed
/// world.
pub(crate) fn declare(full: bool) -> Decl<bool, Outcome> {
    let requests = load(full).0;
    let scale = requests as f64 / 2_000_000.0;
    let mut t = ArtifactSpec::new(
        "table4",
        "Memcached finish times under FasTrak's automatic flow migration",
        "FasTrak detects memcached's high pps within one control interval and offloads it (never the ~100 pps scp flows); finish time and latency improve ≈2×, CPU drops ≈21%",
    );
    let managed = "VIF(start)+SR-IOV(rest)";
    for (label, paper) in [
        ("VIF only", (110.9, 18_044.2, 440.2, 7.6)),
        (managed, (57.34, 35_339.8, 225.6, 6.0)),
    ] {
        memslap_rows(&mut t, label, paper, scale, |o: &Outcome| o.memslap);
    }
    // Sanity: what got offloaded must be the memcached aggregates.
    let sanity = RowSpec::new(
        "offloaded aggregates",
        "(all memcached?)",
        None,
        "",
        [managed],
        |o: &[&Outcome]| o[0].offloaded as f64,
    );
    t.push(sanity.unit_of(|o| {
        if o[0].all_memcached {
            "aggregates (all :11211)"
        } else {
            "aggregates (UNEXPECTED non-memcached!)"
        }
    }));
    if !full {
        t.note(format!(
            "quick mode: {requests} requests/client; fine timing (T=0.5s) so the offload happens at the same fraction of the run as the paper's 10 s with T=5 s"
        ));
    }
    Decl::new(
        vec![World::one("VIF only", false), World::one(managed, true)],
        managed,
        vec![t],
    )
}

/// Regenerate Table 4.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let full = cx.full;
    let (requests, transfer, horizon) = load(full);
    declare(full).run(cx, |&managed, cells| {
        let (mut bed, _servers, clients) = build(requests, transfer, 43);
        if !managed {
            let memslap = run_memslap(&mut bed, &clients, horizon);
            return vec![Outcome {
                memslap,
                offloaded: 0,
                all_memcached: false,
            }];
        }
        // The paper modifies FasTrak to offload only one application;
        // memcached has 4 server VMs × 2 directions = 8 aggregates.
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
        let memslap = run_memslap(&mut bed, &clients, horizon);
        let ports: Vec<u16> = (ft.offloaded(&bed).iter())
            .map(|a| match a {
                FlowAggregate::SrcApp { port, .. } | FlowAggregate::DstApp { port, .. } => *port,
            })
            .collect();
        let all_memcached =
            !ports.is_empty() && ports.iter().all(|&p| p == fastrak_workload::MEMCACHED_PORT);
        if let Some(cx) = cells[0].export {
            cx.publish(&mut bed, Some(&ft));
        }
        vec![Outcome {
            memslap,
            offloaded: ports.len(),
            all_memcached,
        }]
    })
}
