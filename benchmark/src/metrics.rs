//! The metric catalogue — every name `BENCHMARK.json` lists, with its unit
//! and direction — and the derivation of the per-repetition simulated
//! statistics from a world's raw counters.
//!
//! `exact` metrics are simulated quantities: they must repeat bit for bit
//! for a given seed, go into the repetition digest, and are compared for
//! equality by `compare`. Everything else is host time and is noisy.

use std::collections::BTreeMap;
use std::hash::Hasher;

use fastrak_sim::FxHasher;

use crate::worlds::{drops, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the baseline's median by which it
/// may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
    }
}

use Better::{Higher as Hi, Lower as Lo};

/// Per-layer metrics, grouped by layer (= crate). The README's catalogue
/// says what each one is and which end-to-end metric it should move.
pub const PER_LAYER: &[PerLayer] = &[
    // sim
    m("sim.events", "count", Lo, true),
    m("sim.sim_s", "s", Lo, true),
    m("sim.events_per_wall_s", "1/s", Hi, false),
    m("sim.ns_per_event", "ns", Lo, false),
    m("sim.sim_s_per_wall_s", "ratio", Hi, false),
    m("sim.bursts_formed", "count", Hi, true),
    m("sim.burst_fill", "ratio", Hi, true),
    m("sim.cancels", "count", Lo, true),
    m("sim.cancelled_backlog_end", "count", Lo, true),
    m("sim.pending_end", "count", Lo, true),
    m("sim.slice_ns_per_event_p50", "ns", Lo, false),
    m("sim.slice_ns_per_event_max", "ns", Lo, false),
    m("sim.probe.kernel_frame_ns_per_event", "ns", Lo, false),
    m("sim.probe.event_bytes", "bytes", Lo, false),
    m("sim.probe.packet_bytes", "bytes", Lo, false),
    m("sim.est_share", "ratio", Lo, false),
    // net
    m("net.probe.exact_hit_ns", "ns", Lo, false),
    m("net.probe.wildcard_scan_ns", "ns", Lo, false),
    m("net.probe.wire_codec_ns_per_pkt", "ns", Lo, false),
    // host
    m("host.tx_frames_sw", "count", Lo, true),
    m("host.tx_frames_hw", "count", Lo, true),
    m("host.rx_frames", "count", Lo, true),
    m("host.vswitch_fast_hits", "count", Lo, true),
    m("host.vswitch_slow_hits", "count", Lo, true),
    m("host.vswitch_slow_share", "ratio", Lo, true),
    m("host.dp_batch_share", "ratio", Hi, true),
    m("host.drops", "count", Lo, true),
    m("host.datapath_entries_end", "count", Lo, true),
    m("host.sim_cpu_cores", "cores", Lo, true),
    m("host.probe.vswitch_tx_ns_per_pkt", "ns", Lo, false),
    m("host.est_share", "ratio", Lo, false),
    // switch
    m("switch.hw_frames", "count", Lo, true),
    m("switch.sw_frames", "count", Lo, true),
    m("switch.gre_encaps", "count", Lo, true),
    m("switch.acl_drops", "count", Lo, true),
    m("switch.fwd_drops", "count", Lo, true),
    m("switch.ecn_marked", "count", Lo, true),
    m("switch.rules_installed", "count", Lo, true),
    m("switch.rules_removed", "count", Lo, true),
    m("switch.install_batches_rejected", "count", Lo, true),
    m("switch.fastpath_used_end", "count", Lo, true),
    m("switch.probe.tor_fwd_ns_per_pkt", "ns", Lo, false),
    m("switch.est_share", "ratio", Lo, false),
    // transport
    m("transport.segs_tx", "count", Lo, true),
    m("transport.acks_tx", "count", Lo, true),
    m("transport.rtx_segs", "count", Lo, true),
    m("transport.rtx_share", "ratio", Lo, true),
    m("transport.fast_retransmits", "count", Lo, true),
    m("transport.timeouts", "count", Lo, true),
    m("transport.dup_acks_rx", "count", Lo, true),
    m("transport.ooo_segs_rx", "count", Lo, true),
    m("transport.ecn_ce_rx", "count", Lo, true),
    m("transport.bytes_delivered", "bytes", Hi, true),
    m("transport.conns_end", "count", Hi, true),
    m("transport.conns_per_vm_max", "count", Hi, true),
    m("transport.probe.ack_clock_ns_per_seg", "ns", Lo, false),
    m(
        "transport.probe.ack_clock_1conn_ns_per_seg",
        "ns",
        Lo,
        false,
    ),
    m("transport.est_share", "ratio", Lo, false),
    // core
    m("core.de_epochs", "count", Hi, true),
    m("core.de_deltas_ingested", "count", Lo, true),
    m("core.de_epoch_wall_ms", "ms", Lo, false),
    m("core.offloads", "count", Lo, true),
    m("core.demotes", "count", Lo, true),
    m("core.offloaded_end", "count", Hi, true),
    m("core.install_retries", "count", Lo, true),
    m("core.install_timeouts", "count", Lo, true),
    m("core.installs_abandoned", "count", Lo, true),
    m("core.reconcile_sweeps", "count", Lo, true),
    m("core.reconcile_repairs", "count", Lo, true),
    m("core.hw_suspensions", "count", Lo, true),
    m("core.offload_convergence_ms", "ms", Lo, true),
    m("core.ctrl_tor_drift", "count", Lo, true),
    m("core.probe.me_epoch_ms", "ms", Lo, false),
    m("core.probe.de_decide_ms", "ms", Lo, false),
    m("core.est_share", "ratio", Lo, false),
    // workload
    m("workload.ops_attempted", "count", Hi, true),
    m("workload.ops_completed", "count", Hi, true),
    m("workload.sim_tps", "1/s", Hi, true),
    m("workload.sim_lat_p50_us", "us", Lo, true),
    m("workload.sim_lat_p99_us", "us", Lo, true),
    m("workload.sim_lat_p999_us", "us", Lo, true),
    m("workload.sim_lat_samples", "count", Hi, true),
    m("workload.sim_finish_s", "s", Lo, true),
    m("workload.sim_goodput_gbps", "Gb/s", Hi, true),
    m("workload.incast_fct_p50_us", "us", Lo, true),
    m("workload.incast_fct_p99_us", "us", Lo, true),
    m("workload.vms", "count", Hi, true),
    m("workload.build_ms", "ms", Lo, false),
    // telemetry
    m("telemetry.publish_ms", "ms", Lo, false),
    m("telemetry.export_ms", "ms", Lo, false),
    m("telemetry.series", "count", Hi, true),
    // Not exact: the registry holds one host-time counter (`ctrl.de.epoch_ns`)
    // whose digits the export carries.
    m("telemetry.export_bytes", "bytes", Lo, false),
    // bench: the harness crate ...
    m("bench.exp.table4.wall_s", "s", Lo, false),
    m("bench.exp.fig12.wall_s", "s", Lo, false),
    m("bench.exp.chaos_matrix.wall_s", "s", Lo, false),
    m("bench.exp.incast_matrix.wall_s", "s", Lo, false),
    m("bench.rows", "count", Hi, true),
    m("bench.rows_with_paper", "count", Hi, true),
    m("bench.render_ms", "ms", Lo, false),
    m("bench.shape_err_pct", "%", Lo, true),
    // ... and the benchmark process itself
    m("bench.reps", "count", Hi, false),
    m("bench.wall_raw_s", "s", Lo, false),
    m("bench.ref_loop_ms", "ms", Lo, false),
    m("bench.ref_slowdown", "ratio", Lo, false),
    m("bench.wall_min_s", "s", Lo, false),
    m("bench.wall_iqr_pct", "%", Lo, false),
    m("bench.cpu_s", "s", Lo, false),
    m("bench.cpu_wall_ratio", "ratio", Hi, false),
    m("bench.peak_rss_mb", "MiB", Lo, false),
    m("bench.rss_kb_per_conn", "KiB", Lo, false),
    m("bench.trace_overhead_pct", "%", Lo, false),
    m("bench.unattributed_share", "ratio", Lo, false),
    m("bench.digest_mismatches", "count", Lo, false),
];

/// Metric values by catalogue name; absent means "not applicable" and is
/// reported as 0.
pub type Ledger = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every simulated statistic of one scenario repetition.
pub fn simulated(out: &Outcome) -> Ledger {
    let g = |k: &str| out.get(k);
    let sim_s = g("sim_s");
    let fast = g("host.vswitch.fast_path_hits");
    let slow = g("host.vswitch.slow_path_hits");
    let batch = g("host.dp.batch_pkts");
    let q = |h: &fastrak_sim::stats::Histogram, q: f64| {
        if h.count() == 0 {
            0.0
        } else {
            h.quantile(q) as f64 / 1e3
        }
    };
    let mut l = Ledger::new();
    l.extend([
        ("sim.events", g("sim.kernel.events_processed")),
        ("sim.sim_s", sim_s),
        ("sim.bursts_formed", g("sim.kernel.bursts_formed")),
        (
            "sim.burst_fill",
            ratio(g("sim.kernel.burst_events"), g("sim.kernel.bursts_formed")),
        ),
        ("sim.cancels", g("sim.kernel.cancels_requested")),
        (
            "sim.cancelled_backlog_end",
            g("sim.kernel.cancelled_backlog"),
        ),
        ("sim.pending_end", g("sim.kernel.pending_events")),
        ("host.tx_frames_sw", g("host.tx_frames.sw")),
        ("host.tx_frames_hw", g("host.tx_frames.hw")),
        ("host.rx_frames", g("host.rx_frames")),
        ("host.vswitch_fast_hits", fast),
        ("host.vswitch_slow_hits", slow),
        ("host.vswitch_slow_share", ratio(slow, fast + slow)),
        (
            "host.dp_batch_share",
            ratio(batch, batch + g("host.dp.scalar_pkts")),
        ),
        ("host.drops", drops(out)),
        (
            "host.datapath_entries_end",
            g("host.vswitch.datapath_entries"),
        ),
        ("host.sim_cpu_cores", g("sim_cpu_cores")),
        ("switch.hw_frames", g("tor.hw_frames")),
        ("switch.sw_frames", g("tor.sw_frames")),
        ("switch.gre_encaps", g("tor.gre_encaps")),
        ("switch.acl_drops", g("tor.acl_drops")),
        ("switch.fwd_drops", g("tor.fwd_drops")),
        ("switch.ecn_marked", g("tor.ecn_marked")),
        ("switch.rules_installed", g("tor.rules_installed")),
        ("switch.rules_removed", g("tor.rules_removed")),
        (
            "switch.install_batches_rejected",
            g("tor.install_batches_rejected"),
        ),
        ("switch.fastpath_used_end", g("tor.fastpath.used")),
        ("transport.segs_tx", g("tcp.segs_tx")),
        ("transport.acks_tx", g("tcp.acks_tx")),
        ("transport.rtx_segs", g("tcp.rtx_segs")),
        (
            "transport.rtx_share",
            ratio(g("tcp.rtx_segs"), g("tcp.segs_tx")),
        ),
        ("transport.fast_retransmits", g("tcp.fast_retransmits")),
        ("transport.timeouts", g("tcp.timeouts")),
        ("transport.dup_acks_rx", g("tcp.dup_acks_rx")),
        ("transport.ooo_segs_rx", g("tcp.ooo_segs_rx")),
        ("transport.ecn_ce_rx", g("tcp.ecn_ce_rx")),
        ("transport.bytes_delivered", g("tcp.bytes_delivered")),
        ("transport.conns_end", g("conns_end")),
        ("transport.conns_per_vm_max", g("conns_per_vm_max")),
        ("core.de_epochs", g("ctrl.de.epochs")),
        ("core.de_deltas_ingested", g("ctrl.de.deltas_ingested")),
        ("core.offloads", g("ctrl.tenant.offloads")),
        ("core.demotes", g("ctrl.tenant.demotes")),
        ("core.offloaded_end", g("offloaded_end")),
        ("core.install_retries", g("ctrl.install_retries")),
        ("core.install_timeouts", g("ctrl.install_timeouts")),
        ("core.installs_abandoned", g("ctrl.installs_abandoned")),
        ("core.reconcile_sweeps", g("ctrl.reconcile_sweeps")),
        (
            "core.reconcile_repairs",
            g("ctrl.reconcile_stale_removed")
                + g("ctrl.reconcile_lost_demoted")
                + g("ctrl.reconcile_counter_repairs"),
        ),
        ("core.hw_suspensions", g("ctrl.hw_suspensions")),
        ("core.offload_convergence_ms", g("offload_convergence_ms")),
        ("core.ctrl_tor_drift", g("ctrl_tor_drift")),
        ("workload.ops_attempted", out.attempted as f64),
        ("workload.ops_completed", out.completed as f64),
        ("workload.sim_tps", ratio(out.completed as f64, sim_s)),
        ("workload.sim_lat_p50_us", q(&out.lat, 0.5)),
        ("workload.sim_lat_p99_us", q(&out.lat, 0.99)),
        // p99.9 needs ≥ 10 samples beyond it.
        (
            "workload.sim_lat_p999_us",
            if out.lat.count() >= 10_000 {
                q(&out.lat, 0.999)
            } else {
                0.0
            },
        ),
        ("workload.sim_lat_samples", out.lat.count() as f64),
        ("workload.sim_finish_s", g("finish_s")),
        (
            "workload.sim_goodput_gbps",
            ratio(g("tcp.bytes_delivered") * 8.0 / 1e9, sim_s),
        ),
        ("workload.incast_fct_p50_us", q(&out.fct, 0.5)),
        ("workload.incast_fct_p99_us", q(&out.fct, 0.99)),
        ("workload.vms", g("vms")),
        ("telemetry.series", g("telemetry.series")),
    ]);
    l
}

/// Fold one named value into a digest of simulated statistics. FxHash is
/// the repo's deterministic hasher; any single changed bit changes it.
pub fn digest_field(h: &mut FxHasher, name: &str, value: f64) {
    h.write(name.as_bytes());
    h.write_u64(value.to_bits());
}

/// Digest of a ledger's exact metrics: what every repetition of a workload
/// must reproduce for a given seed.
pub fn digest(l: &Ledger) -> u64 {
    let mut h = FxHasher::default();
    for def in PER_LAYER.iter().filter(|d| d.exact) {
        digest_field(&mut h, def.name, l.get(def.name).copied().unwrap_or(0.0));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_bench::json;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(PER_LAYER.iter().map(|d| (d.name, d.unit)));
        for (name, unit) in names {
            assert!(ok(name, "_.-", 64), "bad name {name}");
            assert!(ok(unit, "_/%.-", 16), "bad unit {unit}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (_, metric) in crate::sweep::EXPERIMENTS {
            assert!(seen.contains(metric), "{metric} is not catalogued");
        }
    }

    #[test]
    fn every_simulated_statistic_is_catalogued_as_exact() {
        let l = simulated(&Outcome::new());
        for name in l.keys() {
            let def = PER_LAYER.iter().find(|d| d.name == *name);
            assert!(def.is_some_and(|d| d.exact), "{name} must be exact");
        }
    }

    /// `BENCHMARK.json` is written by hand; this pins it to the catalogue.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let own = |n: &str, u: &str, b: Better| (n.into(), u.into(), b.as_str().to_string());
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|d| own(d.name, d.unit, d.better))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|d| own(d.name, d.unit, d.better))
            .collect();
        assert_eq!(list("per_layer"), layers);
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|e| e.get("bound").and_then(|v| v.as_num()).unwrap())
            .collect();
        let own_bounds: Vec<f64> = END_TO_END.iter().map(|d| d.bound).collect();
        assert_eq!(bounds, own_bounds);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        let own: Vec<&str> = crate::run::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, own);
    }
}
