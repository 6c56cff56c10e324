//! Figure 5 — Combined network performance (§3.2.3).
//!
//! The full software stack (OVS + VXLAN tunneling + 1 Gbps rate limit)
//! against SR-IOV with the same 1 Gbps limit enforced in hardware, across
//! the four application data sizes. The paper reports pipelined latency at
//! 1.8-2.1× SR-IOV, consistently better SR-IOV throughput, and combined
//! performance close to OVS+Tunneling alone.

use crate::experiments::fig3::{label, measure_cell, Outcome, COLUMNS, SIZES};
use crate::experiments::{Cx, Decl, World};
use crate::report::{Artifact, ArtifactSpec};
use crate::scenarios::PathSetup;

/// Fig. 5's grid, size-major (software, then SR-IOV), and its artifacts.
/// `--telemetry` exports the SR-IOV throughput world at 1448 B, its 1 Gbps
/// limit enforced at the ToR.
pub(crate) fn declare(full: bool) -> Decl<(PathSetup, u64), Outcome> {
    let mut arts = [
        ArtifactSpec::new("fig5a", "Combined throughput @1G limit",
            "SR-IOV delivers consistently better throughput; software combination stays below the limit at small sizes (CPU-bound)"),
        ArtifactSpec::new("fig5b", "Combined closed-loop average latency",
            "software combination tracks OVS+Tunneling; SR-IOV clearly lower"),
        ArtifactSpec::new("fig5c", "Combined closed-loop 99th-percentile latency",
            "software tail markedly heavier than SR-IOV"),
        ArtifactSpec::new("fig5d", "Combined burst TPS",
            "SR-IOV sustains roughly twice the transactions of the combined software path"),
        ArtifactSpec::new("fig5e", "Combined burst latency",
            "combined software pipelined latency is 1.8-2.1× SR-IOV"),
    ];
    let limit = 1_000_000_000u64;
    let mut worlds = Vec::new();
    for size in SIZES {
        let pair = [
            PathSetup::OvsTunnelRateLimit(limit),
            PathSetup::SriovHwLimit(limit),
        ];
        let [sw, hw] = pair.map(|setup| label(setup, size));
        for (label, setup) in [&sw, &hw].into_iter().zip(pair) {
            for (art, col) in arts.iter_mut().zip(&COLUMNS) {
                art.push(col.at(label));
            }
            worlds.push(World::one(label.as_str(), (setup, size)));
        }
        arts[4].row(
            "sw/hw burst latency ratio",
            format!("@{size}B"),
            None,
            "x (paper: 1.8-2.1)",
            [sw, hw],
            |c| c[0].burst_mean_us / c[1].burst_mean_us.max(1e-9),
        );
    }
    let note = "paper runs this comparison below 1.44 Gbps due to the tunneling implementation; both sides limited to 1 Gbps as in §3.2.3";
    for art in &mut arts {
        art.note(note);
        if !full {
            art.note("quick mode: shortened windows");
        }
    }
    Decl::new(worlds, label(PathSetup::SriovHwLimit(limit), 1448), arts)
}

/// Regenerate Fig. 5(a-e).
pub fn run(cx: &Cx) -> Vec<Artifact> {
    declare(cx.full).run(cx, |&(setup, size), cells| {
        vec![measure_cell(setup, size, !cx.full, cells[0].export)]
    })
}
