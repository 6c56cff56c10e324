//! One benchmark run of one workload in this process: warm-up, timed
//! repetitions, checks, and (traced runs) the probes and the ledger.

use std::path::Path;
use std::time::Instant;

use fastrak_bench::json;

use crate::calib::{reference_s, NOMINAL_S};
use crate::inputs::{self, Size, FLOW_SCALE_BUDGET};
use crate::metrics::{self, Better, Ledger, END_TO_END, PER_LAYER};
use crate::probes::{self, ProbeCosts};
use crate::stats::{iqr_share, median, peak_rss_mb, process_cpu_s, quartiles};
use crate::sweep;
use crate::trace::Tracer;
use crate::worlds::{self, ProbeInputs};

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RackSoft,
    RackExpress,
    IncastLoss,
    FlowScale,
    PaperSweep,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::RackSoft,
        Workload::RackExpress,
        Workload::IncastLoss,
        Workload::FlowScale,
        Workload::PaperSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RackSoft => "rack_soft",
            Workload::RackExpress => "rack_express",
            Workload::IncastLoss => "incast_loss",
            Workload::FlowScale => "flow_scale",
            Workload::PaperSweep => "paper_sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run, as given on the command line.
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds the timed repetitions should fill.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// One repetition, scenario or sweep, reduced to what the run loop needs.
#[derive(Default)]
struct Rep {
    wall_s: f64,
    build_s: f64,
    publish_s: f64,
    export_s: f64,
    export_bytes: f64,
    render_s: f64,
    de_epoch_wall_ms: f64,
    exp_wall_s: Vec<f64>,
    /// Simulated statistics (exact for a seed).
    ledger: Ledger,
    digest: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    probe: ProbeInputs,
}

fn scenario_rep(out: worlds::Outcome) -> Rep {
    let ledger = metrics::simulated(&out);
    Rep {
        wall_s: out.wall_s,
        build_s: out.build_s,
        publish_s: out.publish_s,
        export_s: out.export_s,
        export_bytes: out.get("telemetry.export_bytes"),
        de_epoch_wall_ms: out.de_epoch_wall_ns / 1e6,
        digest: metrics::digest(&ledger),
        ledger,
        attempted: out.attempted,
        failed: out.failed,
        problems: out.problems,
        probe: out.probe,
        ..Rep::default()
    }
}

fn sweep_rep(out: sweep::SweepOutcome) -> Rep {
    let mut ledger = Ledger::new();
    ledger.extend([
        ("bench.rows", out.rows as f64),
        ("bench.rows_with_paper", out.rows_with_paper as f64),
        ("bench.shape_err_pct", out.shape_err_pct),
        ("workload.ops_attempted", out.attempted as f64),
        (
            "workload.ops_completed",
            (out.attempted - out.failed) as f64,
        ),
    ]);
    Rep {
        wall_s: out.wall_s,
        render_s: out.render_s,
        exp_wall_s: out.exp_wall_s,
        ledger,
        digest: out.digest,
        attempted: out.attempted,
        failed: out.failed,
        problems: out.problems,
        ..Rep::default()
    }
}

/// Generate the workload's inputs from the seed and run it once.
fn repetition(spec: &Spec, tr: &mut Tracer) -> Rep {
    let rep = tr.begin("rep");
    let gen = tr.begin("gen_inputs");
    let (seed, size) = (spec.seed, spec.size);
    let r = match spec.workload {
        Workload::RackSoft | Workload::RackExpress => {
            let inp = inputs::rack(seed, size);
            tr.end(gen);
            let express = spec.workload == Workload::RackExpress;
            scenario_rep(worlds::run_rack(&inp, express, tr))
        }
        Workload::IncastLoss => {
            let inp = inputs::incast(seed, size);
            tr.end(gen);
            scenario_rep(worlds::run_incast(&inp, tr))
        }
        Workload::FlowScale => {
            let inp = inputs::flow_scale(size);
            tr.end(gen);
            scenario_rep(worlds::run_flow_scale(&inp, tr))
        }
        Workload::PaperSweep => {
            // Seed-independent too: the paper fixes these configurations.
            tr.end(gen);
            sweep_rep(sweep::run(size, tr))
        }
    };
    tr.end(rep);
    r
}

/// One reported value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    /// Simulated statistic: must repeat exactly for a seed.
    pub exact: bool,
}

/// The outcome of a run: what the last line and the detail file carry.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics this mode reports: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Per-repetition samples behind each end-to-end metric.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub digest: u64,
    pub reps: usize,
    pub problems: Vec<String>,
    pub warnings: Vec<String>,
}

/// Fewest timed (untraced, traced) repetitions a run takes medians over.
/// The sweep's repetitions are 10 s long, so it gets by with fewer.
fn min_reps(spec: &Spec) -> (usize, usize) {
    let sweep = spec.workload == Workload::PaperSweep;
    match (spec.size, spec.trace) {
        (Size::Quick, false) => (2, 0),
        (Size::Quick, true) => (1, 1),
        (Size::Full, false) => (if sweep { 3 } else { 5 }, 0),
        (Size::Full, true) => {
            if sweep {
                (1, 1)
            } else {
                (3, 2)
            }
        }
    }
}

/// Time the reference loop for ~3 % of the repetition that just ended, so
/// long repetitions do not leave the slowdown estimate with a handful of
/// 5 ms samples.
fn sample_reference(refs: &mut Vec<f64>, rep_wall_s: f64) {
    let n = (0.03 * rep_wall_s / NOMINAL_S).round().clamp(1.0, 60.0) as usize;
    refs.extend((0..n).map(|_| reference_s()));
}

/// Everything the timed phase of a run measured.
struct Measured {
    warm: Rep,
    reps: Vec<Rep>,
    /// Raw host seconds per untraced / traced repetition.
    plain: Vec<f64>,
    traced: Vec<f64>,
    /// Raw host seconds of each set-up (input generation + one warm-up
    /// repetition); the first one starts at process start.
    setups: Vec<f64>,
    /// Median duration of the reference loop during this run (calib.rs).
    ref_s: f64,
    cpu_s: f64,
    timed_s: f64,
    attempted: u64,
    failed: u64,
    digest_mismatches: u64,
    problems: Vec<String>,
}

fn measure(spec: &Spec, process_start: Instant, tr: &mut Tracer) -> Measured {
    // Set-up: input generation plus one warm-up repetition, untimed and
    // untraced; the first also pays process start, page faults, allocator
    // growth and lazy statics. Short workloads set up three times so that
    // `setup_s` is a median and not one noisy sample. The reference loop
    // runs around the set-ups and after every repetition.
    let mut refs = vec![reference_s()];
    let mut setups = Vec::new();
    let mut started = process_start;
    let warm = loop {
        let warm = repetition(spec, tr);
        setups.push(started.elapsed().as_secs_f64());
        sample_reference(&mut refs, warm.wall_s);
        if setups.len() == 3 || process_start.elapsed().as_secs_f64() > 3.0 {
            break warm;
        }
        started = Instant::now();
    };

    let cpu0 = process_cpu_s();
    let timed = Instant::now();
    let (mut plain, mut traced, mut reps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut digest_mismatches) = (0u64, 0u64, 0u64);
    let mut problems = warm.problems.clone();
    let (min_plain, min_traced) = min_reps(spec);
    loop {
        let n = reps.len();
        // A traced run alternates traced and untraced repetitions so that
        // their difference is the tracing overhead under the same drift.
        let with_trace = spec.trace && n % 2 == 1;
        tr.set(with_trace, n as u32);
        let r = repetition(spec, tr);
        tr.set(false, 0);
        sample_reference(&mut refs, r.wall_s);
        if with_trace { &mut traced } else { &mut plain }.push(r.wall_s);
        let mismatch = r.digest != warm.digest;
        digest_mismatches += u64::from(mismatch);
        attempted += r.attempted;
        // A repetition that fails a check fails all its operations.
        failed += if mismatch || !r.problems.is_empty() {
            r.attempted
        } else {
            r.failed
        };
        for p in &r.problems {
            if !problems.contains(p) {
                problems.push(p.clone());
            }
        }
        reps.push(r);
        let enough = plain.len() >= min_plain && traced.len() >= min_traced;
        if enough && timed.elapsed().as_secs_f64() >= spec.seconds {
            break;
        }
    }
    let timed_s = timed.elapsed().as_secs_f64();
    let cpu_s = match (cpu0, process_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    if digest_mismatches > 0 {
        problems.push(format!(
            "{digest_mismatches} repetitions disagree with the first one's simulated statistics"
        ));
    }
    Measured {
        warm,
        reps,
        plain,
        traced,
        setups,
        ref_s: median(&refs),
        cpu_s,
        timed_s,
        attempted,
        failed,
        digest_mismatches,
        problems,
    }
}

pub fn run(spec: &Spec, process_start: Instant, trace_out: Option<&Path>) -> RunResult {
    let mut tr = Tracer::new(process_start);
    let m = measure(spec, process_start, &mut tr);

    let iqr_pct = 100.0 * iqr_share(&m.plain);
    let cpu_wall_ratio = m.cpu_s / m.timed_s;
    let mut warnings = Vec::new();
    if m.cpu_s > 0.0 && cpu_wall_ratio < 0.9 {
        warnings.push(format!(
            "noisy box: the process got {cpu_wall_ratio:.2} CPU-seconds per wall-second"
        ));
    }
    if iqr_pct > 10.0 {
        warnings.push(format!(
            "noisy box: wall_s inter-quartile spread is {iqr_pct:.1} % of its median"
        ));
    }
    let mut result = RunResult {
        correct: m.problems.is_empty() && m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics: Vec::new(),
        samples: Vec::new(),
        digest: m.warm.digest,
        reps: m.reps.len(),
        problems: m.problems.clone(),
        warnings,
    };

    if !spec.trace {
        // Gated host times are divided by how much slower than nominal the
        // box ran during this run (see calib.rs).
        let slowdown = m.ref_s / NOMINAL_S;
        println!(
            "raw wall_s median {:.4}; reference loop {:.3} ms = {slowdown:.3} x nominal",
            median(&m.plain),
            1e3 * m.ref_s
        );
        let ok_share = 1.0 - m.failed as f64 / m.attempted.max(1) as f64;
        result.samples = vec![
            ("wall_s", m.plain.iter().map(|w| w / slowdown).collect()),
            ("setup_s", m.setups.iter().map(|t| t / slowdown).collect()),
            ("ok_share", vec![ok_share]),
            ("peak_rss_mb", vec![peak_rss_mb().unwrap_or(0.0)]),
        ];
        for (def, (_, xs)) in END_TO_END.iter().zip(&result.samples) {
            result.metrics.push(Metric {
                name: def.name,
                value: median(xs),
                unit: def.unit,
                better: def.better,
                exact: false,
            });
        }
        return result;
    }

    // Traced run: probes on the workload's own inputs, then the ledger.
    tr.set(true, m.reps.len() as u32);
    let costs = if spec.workload == Workload::PaperSweep {
        ProbeCosts::default()
    } else {
        // Probe the ToR pipeline most of the run's frames took.
        let at = |k: &str| m.warm.ledger.get(k).copied().unwrap_or(0.0);
        let tor_hw = at("switch.hw_frames") > at("switch.sw_frames");
        probes::run_all(&m.warm.probe, tor_hw, FLOW_SCALE_BUDGET, &mut tr)
    };
    tr.set(false, 0);
    let ledger = ledger(&m, &costs, &tr, iqr_pct);
    for def in PER_LAYER {
        result.metrics.push(Metric {
            name: def.name,
            value: ledger.get(def.name).copied().unwrap_or(0.0),
            unit: def.unit,
            better: def.better,
            exact: def.exact,
        });
    }
    print_span_summary(&tr);
    if let Some(path) = trace_out {
        match std::fs::write(path, tr.chrome_json()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                result.correct = false;
                result
                    .problems
                    .push(format!("write {}: {e}", path.display()));
            }
        }
    }
    result
}

/// The per-layer ledger of a traced run: the (exact) simulated statistics
/// plus every host-time metric, all raw.
fn ledger(m: &Measured, costs: &ProbeCosts, tr: &Tracer, iqr_pct: f64) -> Ledger {
    let med = |f: fn(&Rep) -> f64| median(&m.reps.iter().map(f).collect::<Vec<f64>>());
    let mut l = m.warm.ledger.clone();
    let at = |l: &Ledger, k: &str| l.get(k).copied().unwrap_or(0.0);
    let wall_s = median(&m.plain);
    let (events, sim_s) = (at(&l, "sim.events"), at(&l, "sim.sim_s"));
    let share = |host_ns: f64| host_ns / 1e9 / wall_s;
    let probe = &m.warm.probe;
    // A segment costs the 1-connection price plus the scan over the other
    // connections open on the stack that sent it.
    let per_extra_conn = (costs.ack_clock_ns_per_seg - costs.ack_clock_1conn_ns_per_seg).max(0.0)
        / (probe.conns_per_vm_max.max(2) - 1) as f64;
    let est = [
        (
            "sim.est_share",
            share(events * costs.kernel_frame_ns_per_event),
        ),
        (
            "host.est_share",
            share(
                (at(&l, "host.vswitch_fast_hits") + at(&l, "host.vswitch_slow_hits"))
                    * costs.vswitch_tx_ns_per_pkt,
            ),
        ),
        (
            "switch.est_share",
            share(
                (at(&l, "switch.hw_frames") + at(&l, "switch.sw_frames"))
                    * costs.tor_fwd_ns_per_pkt,
            ),
        ),
        (
            "transport.est_share",
            share(
                probe.segs * costs.ack_clock_1conn_ns_per_seg
                    + probe.segs_x_extra_conns * per_extra_conn,
            ),
        ),
        (
            "core.est_share",
            share(
                1e6 * (at(&l, "core.de_epochs") * costs.de_decide_ms
                    + probe.me_epochs * costs.me_epoch_ms),
            ),
        ),
    ];
    let unattributed = 1.0 - est.iter().map(|(_, v)| v).sum::<f64>();
    let slices = tr.slice_ns_per_event();
    let conns = at(&l, "transport.conns_end");
    let rss_mb = peak_rss_mb().unwrap_or(0.0);
    l.extend(est);
    l.extend([
        ("sim.events_per_wall_s", events / wall_s),
        (
            "sim.ns_per_event",
            if events > 0.0 {
                wall_s * 1e9 / events
            } else {
                0.0
            },
        ),
        ("sim.sim_s_per_wall_s", sim_s / wall_s),
        (
            "sim.slice_ns_per_event_p50",
            if slices.is_empty() {
                0.0
            } else {
                median(&slices)
            },
        ),
        (
            "sim.slice_ns_per_event_max",
            slices.iter().copied().fold(0.0, f64::max),
        ),
        (
            "sim.probe.kernel_frame_ns_per_event",
            costs.kernel_frame_ns_per_event,
        ),
        ("sim.probe.event_bytes", costs.event_bytes),
        ("sim.probe.packet_bytes", costs.packet_bytes),
        ("net.probe.exact_hit_ns", costs.exact_hit_ns),
        ("net.probe.wildcard_scan_ns", costs.wildcard_scan_ns),
        (
            "net.probe.wire_codec_ns_per_pkt",
            costs.wire_codec_ns_per_pkt,
        ),
        (
            "host.probe.vswitch_tx_ns_per_pkt",
            costs.vswitch_tx_ns_per_pkt,
        ),
        ("switch.probe.tor_fwd_ns_per_pkt", costs.tor_fwd_ns_per_pkt),
        (
            "transport.probe.ack_clock_ns_per_seg",
            costs.ack_clock_ns_per_seg,
        ),
        (
            "transport.probe.ack_clock_1conn_ns_per_seg",
            costs.ack_clock_1conn_ns_per_seg,
        ),
        ("core.probe.me_epoch_ms", costs.me_epoch_ms),
        ("core.probe.de_decide_ms", costs.de_decide_ms),
        ("core.de_epoch_wall_ms", med(|r| r.de_epoch_wall_ms)),
        ("workload.build_ms", 1e3 * med(|r| r.build_s)),
        ("telemetry.publish_ms", 1e3 * med(|r| r.publish_s)),
        ("telemetry.export_ms", 1e3 * med(|r| r.export_s)),
        ("telemetry.export_bytes", med(|r| r.export_bytes)),
        ("bench.render_ms", 1e3 * med(|r| r.render_s)),
        ("bench.reps", m.reps.len() as f64),
        ("bench.wall_raw_s", wall_s),
        ("bench.ref_loop_ms", 1e3 * m.ref_s),
        ("bench.ref_slowdown", m.ref_s / NOMINAL_S),
        (
            "bench.wall_min_s",
            m.plain.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("bench.wall_iqr_pct", iqr_pct),
        ("bench.cpu_s", m.cpu_s),
        ("bench.cpu_wall_ratio", m.cpu_s / m.timed_s),
        ("bench.peak_rss_mb", rss_mb),
        (
            "bench.rss_kb_per_conn",
            if conns > 0.0 {
                rss_mb * 1024.0 / conns
            } else {
                0.0
            },
        ),
        (
            "bench.trace_overhead_pct",
            100.0 * (median(&m.traced) / wall_s - 1.0),
        ),
        ("bench.unattributed_share", unattributed),
        ("bench.digest_mismatches", m.digest_mismatches as f64),
    ]);
    if !m.warm.exp_wall_s.is_empty() {
        for (i, &(_, metric)) in sweep::EXPERIMENTS.iter().enumerate() {
            let per_rep: Vec<f64> = m.reps.iter().map(|r| r.exp_wall_s[i]).collect();
            l.insert(metric, median(&per_rep));
        }
    }
    l
}

fn print_span_summary(tr: &Tracer) {
    println!(
        "{:28} {:>7} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    );
    for (name, (calls, total, own)) in tr.summary() {
        println!(
            "{name:28} {calls:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

impl RunResult {
    /// The one JSON object the contract wants as the last line of stdout.
    pub fn last_line(&self) -> String {
        json::object([
            ("correct", self.correct.to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            (
                "metrics",
                json::object(self.metrics.iter().map(|m| {
                    let body = [("value", json::num(m.value)), ("unit", json::quote(m.unit))];
                    (m.name, json::object(body))
                })),
            ),
        ])
    }

    /// The detail record `compare` reads: the last line's content plus the
    /// run's identity, its samples and which metrics must repeat exactly.
    pub fn detail(&self, spec: &Spec) -> String {
        let nums = |xs: &[f64]| json::array(xs.iter().map(|&x| json::num(x)));
        json::object([
            ("workload", json::quote(spec.workload.name())),
            ("seed", spec.seed.to_string()),
            ("seconds", json::num(spec.seconds)),
            ("trace", u8::from(spec.trace).to_string()),
            ("quick", (spec.size == Size::Quick).to_string()),
            ("correct", self.correct.to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("digest", json::quote(&format!("{:016x}", self.digest))),
            ("reps", self.reps.to_string()),
            (
                "problems",
                json::array(self.problems.iter().map(|p| json::quote(p))),
            ),
            (
                "samples",
                json::object(self.samples.iter().map(|(n, xs)| (*n, nums(xs)))),
            ),
            (
                "metrics",
                json::object(self.metrics.iter().map(|m| {
                    let body = [
                        ("value", json::num(m.value)),
                        ("unit", json::quote(m.unit)),
                        ("exact", m.exact.to_string()),
                    ];
                    (m.name, json::object(body))
                })),
            ),
        ])
    }

    /// Every metric by name with its unit and direction, then warnings and
    /// failed checks.
    pub fn print(&self, spec: &Spec) {
        println!(
            "== {} seed {} ({}, {} timed repetitions, digest {:016x})",
            spec.workload.name(),
            spec.seed,
            if spec.trace {
                "traced: per-layer"
            } else {
                "untraced: end-to-end"
            },
            self.reps,
            self.digest
        );
        match spec.workload {
            Workload::PaperSweep => println!(
                "note: paper_sweep is seed-independent (the paper fixes its configurations)"
            ),
            Workload::FlowScale => {
                println!("note: flow_scale is seed-independent (one fixed scenario, see inputs.rs)")
            }
            _ => {}
        }
        for (name, xs) in &self.samples {
            if xs.len() > 1 {
                let (q1, q3) = quartiles(xs);
                let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
                println!(
                    "{name}: median {:.4} min {min:.4} q1 {q1:.4} q3 {q3:.4} n {}",
                    median(xs),
                    xs.len()
                );
            }
        }
        for m in &self.metrics {
            let tag = if m.exact { ", exact" } else { "" };
            println!(
                "{:46} {:>18.6} {} ({} is better{tag})",
                m.name,
                m.value,
                m.unit,
                m.better.as_str()
            );
        }
        for w in &self.warnings {
            println!("warning: {w}");
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
    }
}
