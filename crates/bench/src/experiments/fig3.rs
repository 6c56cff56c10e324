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

use std::mem::discriminant;

use fastrak_sim::time::SimDuration;
use fastrak_workload::{
    RrClient, RrClientConfig, RrServer, RrServerConfig, StreamConfig, StreamSender, StreamSink,
};

use crate::cells;
use crate::experiments::Cx;
use crate::report::{Artifact, Row};
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
pub(crate) struct Cell {
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
pub(crate) fn measure_cell(setup: PathSetup, size: u64, quick: bool, export: Option<&Cx>) -> Cell {
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

    Cell {
        throughput_bps,
        rr_mean_us,
        rr_p99_us,
        burst_tps: app.tps(end),
        burst_mean_us: app.latency.mean() / 1e3,
    }
}

/// Regenerate Fig. 3(a-e). `--telemetry` exports the Baseline OVS
/// throughput world at 1448 B (one MSS per write).
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let full = cx.full;
    let mut a = Artifact::new("fig3a", "Throughput (TCP_STREAM, 3 threads)",
        "SR-IOV ≥ every OVS config at every size; OVS+Tunneling capped ≈2 Gbps; small sizes are CPU-bound, large sizes near line rate");
    let mut b = Artifact::new(
        "fig3b",
        "Closed-loop TCP_RR average latency",
        "SR-IOV delivers significantly lower average latency than every software path",
    );
    let mut c = Artifact::new(
        "fig3c",
        "Closed-loop TCP_RR 99th-percentile latency",
        "software paths have a heavier tail than SR-IOV",
    );
    let mut d = Artifact::new("fig3d", "Pipelined (burst) transactions per second",
        "avg TPS over 64-1448B: SR-IOV ≈60k, baseline ≈34k, +tunneling ≈25k, +rate limiting ≈30k (SR-IOV up to 2× baseline; RL at 85-88% of baseline)");
    let mut e = Artifact::new("fig3e", "Pipelined (burst) average latency",
        "latency improvement of SR-IOV over baseline grows as data size shrinks: 30% @32000B → 49% @64B (32%→56% vs rate limiting)");

    let grid: Vec<(PathSetup, u64)> = configs()
        .into_iter()
        .flat_map(|setup| SIZES.map(|size| (setup, size)))
        .collect();
    let cells: Vec<(PathSetup, u64, Cell)> = cells::map(&grid, |&(setup, size)| {
        let export = (setup == PathSetup::BaselineOvs && size == 1448).then_some(cx);
        (setup, size, measure_cell(setup, size, !full, export))
    });
    for &(setup, size, cell) in &cells {
        let cfg = format!("{} @{}B", setup.label(), size);
        a.push(Row::new(
            "throughput",
            &cfg,
            None,
            cell.throughput_bps,
            "bps",
        ));
        b.push(Row::new("rr avg", &cfg, None, cell.rr_mean_us, "us"));
        c.push(Row::new("rr p99", &cfg, None, cell.rr_p99_us, "us"));
        d.push(Row::new("burst tps", &cfg, None, cell.burst_tps, "tps"));
        e.push(Row::new("burst avg", &cfg, None, cell.burst_mean_us, "us"));
    }

    // The quantitative anchors the paper's text states (§3.2.4, Fig. 3(d)):
    // average burst TPS over the 64-1448B sizes.
    let avg_small = |setup: PathSetup| -> f64 {
        let v: Vec<f64> = cells
            .iter()
            .filter(|(s, size, _)| discriminant(s) == discriminant(&setup) && *size <= 1448)
            .map(|(_, _, c)| c.burst_tps)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    d.push(Row::new(
        "burst tps avg(64-1448)",
        "SR-IOV",
        Some(60_000.0),
        avg_small(PathSetup::Sriov),
        "tps",
    ));
    d.push(Row::new(
        "burst tps avg(64-1448)",
        "Baseline OVS",
        Some(34_000.0),
        avg_small(PathSetup::BaselineOvs),
        "tps",
    ));
    d.push(Row::new(
        "burst tps avg(64-1448)",
        "OVS+Tunneling",
        Some(25_000.0),
        avg_small(PathSetup::OvsTunnel),
        "tps",
    ));
    d.push(Row::new(
        "burst tps avg(64-1448)",
        "OVS+Rate limiting",
        Some(30_000.0),
        avg_small(PathSetup::OvsRateLimit(0)),
        "tps",
    ));

    // Pipelined latency improvement of SR-IOV over baseline, small vs large.
    let lat = |setup: PathSetup, size: u64| -> f64 {
        cells
            .iter()
            .find(|(s, sz, _)| discriminant(s) == discriminant(&setup) && *sz == size)
            .map(|(_, _, c)| c.burst_mean_us)
            .unwrap()
    };
    let improvement = |base: PathSetup, size: u64| -> f64 {
        100.0 * (lat(base, size) - lat(PathSetup::Sriov, size)) / lat(base, size)
    };
    e.push(Row::new(
        "improvement vs baseline",
        "@64B",
        Some(49.0),
        improvement(PathSetup::BaselineOvs, 64),
        "%",
    ));
    e.push(Row::new(
        "improvement vs baseline",
        "@32000B",
        Some(30.0),
        improvement(PathSetup::BaselineOvs, 32_000),
        "%",
    ));
    e.push(Row::new(
        "improvement vs OVS+RL",
        "@64B",
        Some(56.0),
        improvement(PathSetup::OvsRateLimit(0), 64),
        "%",
    ));
    e.push(Row::new(
        "improvement vs OVS+RL",
        "@32000B",
        Some(32.0),
        improvement(PathSetup::OvsRateLimit(0), 32_000),
        "%",
    ));

    for art in [&mut a, &mut b, &mut c, &mut d, &mut e] {
        if !full {
            art.note("quick mode: shortened measurement windows (pass --full for longer ones)");
        }
        art.note("figure data points are not printed in the paper; the paper column holds only values the text states");
    }
    vec![a, b, c, d, e]
}
