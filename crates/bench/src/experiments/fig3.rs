//! Figure 3 — Baseline network performance (§3.2).
//!
//! Four path configurations {Baseline OVS, OVS+Tunneling, OVS+Rate
//! limiting(10G), SR-IOV} × four application data sizes {64, 600, 1448,
//! 32000} bytes:
//!
//! * (a) `TCP_STREAM` throughput, 3 threads, `TCP_NODELAY`;
//! * (b,c) closed-loop `TCP_RR` average and 99th-percentile latency;
//! * (d,e) pipelined `TCP_RR` (3 threads × burst 32) transactions/sec and
//!   average latency.

use fastrak_sim::time::SimDuration;
use fastrak_workload::{
    RrClient, RrClientConfig, RrServer, RrServerConfig, StreamConfig, StreamSender, StreamSink,
};

use crate::experiments::{Cx, Decl, World};
use crate::report::{Artifact, ArtifactSpec, Col};
use crate::scenarios::{measure_window, micro_bed, PathSetup, SERVER_IP};

/// The paper's application data sizes (§3.1).
pub(crate) const SIZES: [u64; 4] = [64, 600, 1448, 32_000];

/// The Fig. 3 configurations.
fn configs() -> [PathSetup; 4] {
    [
        PathSetup::BaselineOvs,
        PathSetup::OvsTunnel,
        PathSetup::OvsRateLimit(10_000_000_000),
        PathSetup::Sriov,
    ]
}

/// Measured metrics for one (config, size) cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Outcome {
    /// Stream throughput, bits/sec.
    pub throughput_bps: f64,
    /// Closed-loop mean RTT, µs.
    pub rr_mean_us: f64,
    /// Closed-loop 99th-percentile RTT, µs.
    pub rr_p99_us: f64,
    /// Pipelined transactions/sec.
    pub burst_tps: f64,
    /// Pipelined mean latency, µs.
    pub burst_mean_us: f64,
}

/// Run the three §3.1.1 tests for one cell. The cell `export` is given
/// publishes its throughput world into it.
pub(crate) fn measure_cell(
    setup: PathSetup,
    size: u64,
    quick: bool,
    export: Option<&Cx>,
) -> Outcome {
    let (warm, window) = if quick { (200, 400) } else { (300, 900) };
    let rr_server = |port| {
        Box::new(RrServer::new(RrServerConfig {
            port,
            req_size: size,
            resp_size: size,
            service_cpu: SimDuration::ZERO,
        }))
    };

    // --- throughput ---
    let sender = StreamSender::new(StreamConfig::netperf(SERVER_IP, 5001, size));
    let sink = Box::new(StreamSink::new(5001));
    let mut mb = micro_bed(setup, Box::new(sender), sink, 11);
    let sink = mb.server;
    let end = measure_window(&mut mb.bed, warm, window, |bed, now| {
        bed.app_mut::<StreamSink>(sink).meter.begin_window(now);
    });
    let throughput_bps = mb.bed.app::<StreamSink>(sink).goodput_bps(end);
    if let Some(cx) = export {
        cx.publish(&mut mb.bed, None);
    }

    // --- closed-loop latency --- (each test's world replaces the last)
    let client = RrClient::new(RrClientConfig::closed_loop(SERVER_IP, 5002, size));
    mb = micro_bed(setup, Box::new(client), rr_server(5002), 13);
    let cli = mb.client;
    measure_window(&mut mb.bed, warm, 2 * window, |bed, now| {
        bed.app_mut::<RrClient>(cli).begin_window(now);
    });
    let app = mb.bed.app::<RrClient>(cli);
    let rr_mean_us = app.latency.mean() / 1e3;
    let rr_p99_us = app.latency.quantile(0.99) as f64 / 1e3;

    // --- pipelined (burst) ---
    let client = RrClient::new(RrClientConfig::pipelined(SERVER_IP, 5003, size));
    mb = micro_bed(setup, Box::new(client), rr_server(5003), 17);
    let cli = mb.client;
    let end = measure_window(&mut mb.bed, warm, window, |bed, now| {
        bed.app_mut::<RrClient>(cli).begin_window(now);
    });
    let app = mb.bed.app::<RrClient>(cli);

    Outcome {
        throughput_bps,
        rr_mean_us,
        rr_p99_us,
        burst_tps: app.tps(end),
        burst_mean_us: app.latency.mean() / 1e3,
    }
}

/// The five artifacts Figs. 3 and 5 write from an [`Outcome`], one column
/// each: (a) throughput, (b, c) closed-loop latency, (d, e) pipelined.
pub(crate) const COLUMNS: [Col<Outcome>; 5] = [
    Col::new("throughput", "bps", |c| c.throughput_bps),
    Col::new("rr avg", "us", |c| c.rr_mean_us),
    Col::new("rr p99", "us", |c| c.rr_p99_us),
    Col::new("burst tps", "tps", |c| c.burst_tps),
    Col::new("burst avg", "us", |c| c.burst_mean_us),
];

/// A cell's label: its setup and size.
pub(crate) fn label(setup: PathSetup, size: u64) -> String {
    format!("{} @{}B", setup.label(), size)
}

/// Fig. 3's grid, setup-major, and its artifacts. `--telemetry` exports the
/// Baseline OVS throughput world at 1448 B (one MSS per write).
pub(crate) fn declare(full: bool) -> Decl<(PathSetup, u64), Outcome> {
    let mut arts = [
        ArtifactSpec::new("fig3a", "Throughput (TCP_STREAM, 3 threads)",
            "SR-IOV ≥ every OVS config at every size; OVS+Tunneling capped ≈2 Gbps; small sizes are CPU-bound, large sizes near line rate"),
        ArtifactSpec::new("fig3b", "Closed-loop TCP_RR average latency",
            "SR-IOV delivers significantly lower average latency than every software path"),
        ArtifactSpec::new("fig3c", "Closed-loop TCP_RR 99th-percentile latency",
            "software paths have a heavier tail than SR-IOV"),
        ArtifactSpec::new("fig3d", "Pipelined (burst) transactions per second",
            "avg TPS over 64-1448B: SR-IOV ≈60k, baseline ≈34k, +tunneling ≈25k, +rate limiting ≈30k (SR-IOV up to 2× baseline; RL at 85-88% of baseline)"),
        ArtifactSpec::new("fig3e", "Pipelined (burst) average latency",
            "latency improvement of SR-IOV over baseline grows as data size shrinks: 30% @32000B → 49% @64B (32%→56% vs rate limiting)"),
    ];
    let mut worlds = Vec::new();
    for setup in configs() {
        for size in SIZES {
            let label = label(setup, size);
            for (art, col) in arts.iter_mut().zip(&COLUMNS) {
                art.push(col.at(&label));
            }
            worlds.push(World::one(label, (setup, size)));
        }
    }

    anchors(&mut arts);
    for art in &mut arts {
        if !full {
            art.note("quick mode: shortened measurement windows (pass --full for longer ones)");
        }
        art.note("figure data points are not printed in the paper; the paper column holds only values the text states");
    }
    Decl::new(worlds, label(PathSetup::BaselineOvs, 1448), arts)
}

/// The quantitative anchors the paper's text states (§3.2.4): Fig. 3(d)'s
/// average burst TPS and Fig. 3(e)'s latency improvements.
fn anchors(arts: &mut [ArtifactSpec<Outcome>; 5]) {
    // Average burst TPS over the 64-1448B sizes.
    let rate_limit = configs()[2];
    for (setup, paper) in [
        (PathSetup::Sriov, 60_000.0),
        (PathSetup::BaselineOvs, 34_000.0),
        (PathSetup::OvsTunnel, 25_000.0),
        (rate_limit, 30_000.0),
    ] {
        let small = SIZES[..3].iter().map(|&size| label(setup, size));
        arts[3].row(
            "burst tps avg(64-1448)",
            setup.label(),
            Some(paper),
            "tps",
            small,
            |c| c.iter().map(|c| c.burst_tps).sum::<f64>() / c.len() as f64,
        );
    }
    // Pipelined latency improvement of SR-IOV over baseline, small vs large.
    for (vs, base, papers) in [
        ("baseline", PathSetup::BaselineOvs, [49.0, 30.0]),
        ("OVS+RL", rate_limit, [56.0, 32.0]),
    ] {
        for (size, paper) in [64, 32_000].into_iter().zip(papers) {
            let reads = [label(base, size), label(PathSetup::Sriov, size)];
            arts[4].row(
                format!("improvement vs {vs}"),
                format!("@{size}B"),
                Some(paper),
                "%",
                reads,
                |c| 100.0 * (c[0].burst_mean_us - c[1].burst_mean_us) / c[0].burst_mean_us,
            );
        }
    }
}

/// Regenerate Fig. 3(a-e).
pub fn run(cx: &Cx) -> Vec<Artifact> {
    declare(cx.full).run(cx, |&(setup, size), cells| {
        vec![measure_cell(setup, size, !cx.full, cells[0].export)]
    })
}
