//! Figure 4 — CPU overheads (§3.1.2, §3.2).
//!
//! (a) Baseline CPU test: four VMs on one server, each running a
//! single-threaded `TCP_STREAM` with `TCP_NODELAY` to a sink VM on the
//! other server; the metric is the number of logical CPUs busy on the
//! sending server. Configurations: Baseline OVS, OVS+Tunneling,
//! OVS+Rate limiting (5 Gbps per VM — oversubscribing the 10 G port 1.5×
//! with three limited VMs in the paper; we limit all four), SR-IOV.
//!
//! (b) Combined CPU test: OVS+Tunneling+Rate limiting (1 Gbps) vs SR-IOV
//! with the 1 Gbps limit enforced in hardware; the paper reports the
//! software path at 1.6-3× the SR-IOV CPU.

use fastrak_host::vm::VmSpec;
use fastrak_net::addr::Ip;
use fastrak_workload::{StreamConfig, StreamSender, StreamSink, Testbed, TestbedConfig};

use crate::cells;
use crate::experiments::Cx;
use crate::report::{Artifact, Row};
use crate::scenarios::{apply_setup, measure_window, PathSetup, TENANT};

/// CPUs used on the sending server for 4 concurrent 1-thread streams, and
/// their aggregate goodput. The cell `export` is given publishes into it.
fn measure_cpu(setup: PathSetup, size: u64, quick: bool, export: Option<&Cx>) -> (f64, f64) {
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 2,
        tunneling: setup.tunneling(),
        seed: 23,
        ..TestbedConfig::default()
    });
    let mut vms = Vec::new();
    let mut sinks = Vec::new();
    for i in 0..4u16 {
        let src_ip = Ip::tenant_vm(10 + i);
        let dst_ip = Ip::tenant_vm(20 + i);
        let mut cfg = StreamConfig::netperf(dst_ip, 5001, size);
        cfg.threads = 1;
        cfg.src_port_base = 42_000 + i * 16;
        let v = bed.add_vm(
            0,
            VmSpec::large(format!("src{i}"), TENANT, src_ip),
            Box::new(StreamSender::new(cfg)),
        );
        let s = bed.add_vm(
            1,
            VmSpec::large(format!("dst{i}"), TENANT, dst_ip),
            Box::new(StreamSink::new(5001)),
        );
        vms.extend([v, s]);
        sinks.push(s);
    }
    apply_setup(&mut bed, setup, &vms);
    let (warm, window) = if quick { (200, 400) } else { (300, 1000) };
    // The sinks' goodput windows open with the CPU windows.
    let end = measure_window(&mut bed, warm, window, |bed, now| {
        for &s in &sinks {
            bed.app_mut::<StreamSink>(s).meter.begin_window(now);
        }
    });
    let cpus = bed.server(0).cpus_used(end);
    let goodput: f64 = sinks
        .iter()
        .map(|&s| bed.app::<StreamSink>(s).goodput_bps(end))
        .sum();
    if let Some(cx) = export {
        cx.publish(&mut bed, None);
    }
    (cpus, goodput)
}

/// Regenerate Fig. 4(a) and 4(b). `--telemetry` exports the combined
/// software world (tunnel and VIF limit) at 1448 B.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let full = cx.full;
    let mut a = Artifact::new(
        "fig4a",
        "Baseline CPU overhead (4 VMs × 1-thread TCP_STREAM)",
        "CPU to sustain a given throughput grows as app data size shrinks; SR-IOV uses 0.4-0.7× the CPU of baseline OVS; rate limiting cannot reach line rate yet burns as much CPU as baseline",
    );
    let sizes = [64u64, 600, 1448, 32_000];
    let setups_a = [
        PathSetup::BaselineOvs,
        PathSetup::OvsTunnel,
        PathSetup::OvsRateLimit(5_000_000_000),
        PathSetup::Sriov,
    ];
    let setups_b = [
        PathSetup::OvsTunnelRateLimit(1_000_000_000),
        PathSetup::SriovHwLimit(1_000_000_000),
    ];
    // Every world of both panels in one list: (a) setup-major, then (b)
    // size-major.
    let grid: Vec<(PathSetup, u64)> = setups_a
        .into_iter()
        .flat_map(|setup| sizes.map(|size| (setup, size)))
        .chain(
            sizes
                .into_iter()
                .flat_map(|size| setups_b.map(|setup| (setup, size))),
        )
        .collect();
    let measured = cells::map(&grid, |&(setup, size)| {
        let export = (setup == setups_b[0] && size == 1448).then_some(cx);
        measure_cpu(setup, size, !full, export)
    });
    let (measured_a, measured_b) = measured.split_at(setups_a.len() * sizes.len());

    let mut base_cpu = std::collections::HashMap::new();
    for (&(setup, size), &(cpus, goodput)) in grid.iter().zip(measured_a) {
        let cfg = format!("{} @{}B", setup.label(), size);
        a.push(Row::new("cpus", &cfg, None, cpus, "logical CPUs"));
        a.push(Row::new("goodput", &cfg, None, goodput, "bps"));
        if matches!(setup, PathSetup::BaselineOvs) {
            base_cpu.insert(size, cpus);
        }
        if matches!(setup, PathSetup::Sriov) {
            let ratio = cpus / base_cpu[&size];
            a.push(Row::new(
                "sriov/baseline cpu ratio",
                format!("@{size}B"),
                None,
                ratio,
                "x (paper: 0.4-0.7)",
            ));
        }
    }

    let mut b = Artifact::new(
        "fig4b",
        "Combined CPU overhead (tunnel+rate limit @1G vs SR-IOV hw-limited)",
        "the combined software path consumes 1.6-3× the CPU of SR-IOV",
    );
    for (&size, pair) in sizes.iter().zip(measured_b.chunks_exact(2)) {
        let ((sw_cpu, sw_good), (hw_cpu, hw_good)) = (pair[0], pair[1]);
        b.push(Row::new(
            "cpus",
            format!("OVS+Tun+RL @{size}B"),
            None,
            sw_cpu,
            "logical CPUs",
        ));
        b.push(Row::new(
            "cpus",
            format!("SR-IOV(hw RL) @{size}B"),
            None,
            hw_cpu,
            "logical CPUs",
        ));
        b.push(Row::new(
            "goodput sw/hw",
            format!("@{size}B"),
            None,
            sw_good / hw_good.max(1.0),
            "x",
        ));
        b.push(Row::new(
            "sw/hw cpu ratio",
            format!("@{size}B"),
            None,
            sw_cpu / hw_cpu.max(1e-9),
            "x (paper: 1.6-3)",
        ));
    }
    if !full {
        a.note("quick mode: shortened windows");
        b.note("quick mode: shortened windows");
    }
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick Fig. 4a OVS+Tunneling cell at 600 B loses whole flights.
    /// When a timeout resent one segment and then waited for the next, its
    /// streams stalled and the cell recorded 0.14 Mb/s; going back through
    /// the flight after each timeout keeps them moving. Release-only
    /// (`--ignored`, run by CI).
    #[test]
    #[ignore = "slow: run with cargo test --release -p fastrak-bench -- --ignored"]
    fn a_lost_flight_does_not_stall_the_tunneled_600b_streams() {
        let (_, goodput) = measure_cpu(PathSetup::OvsTunnel, 600, true, None);
        assert!(goodput > 100e6, "goodput {goodput} bps");
    }
}
