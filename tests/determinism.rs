//! Cross-crate determinism regression: the same seed must replay the same
//! simulation bit for bit. The whole experiment suite (and the parallel
//! runner in `crates/bench`) depends on this — every experiment is a pure
//! function of its seed, so fanning runs out across threads cannot change
//! results.
//!
//! The scenario deliberately crosses every crate: DES kernel (sim), packet
//! codecs and tables (net), TCP (transport), servers/vswitch/NIC (host),
//! ToR (switch), the FasTrak controllers (core), and the workload harness.

mod support;

use fastrak::{attach, FasTrakConfig, Timing};
use fastrak_bench::experiments::{find, Cx, EXPERIMENTS};
use fastrak_host::vm::VmSpec;
use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::event::ctl_fault_layer;
use fastrak_sim::chaos::ChaosConfig;
use fastrak_sim::fault::{FaultConfig, LinkFaults};
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_workload::{
    memcached_server, MemslapClient, MemslapConfig, StreamConfig, StreamSender, StreamSink,
    Testbed, TestbedConfig,
};

const T: TenantId = TenantId(1);

/// Everything observable about a finished run, reduced to integers.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    events_processed: u64,
    final_time_ns: u64,
    completed_transactions: u64,
    latency_samples: u64,
    tor_stats: [u64; 6],
    server_stats: Vec<[u64; 7]>,
    trace_len: usize,
    trace_digest: u64,
}

/// FNV-1a over the drained trace ring: any divergence in event order,
/// timing, or payload shows up here even if the aggregate counters agree.
fn digest_trace(records: &[fastrak_sim::trace::TraceRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for r in records {
        eat(&r.at.as_nanos().to_le_bytes());
        eat(r.who.as_bytes());
        eat(r.kind.as_bytes());
        for v in r.vals {
            eat(&v.to_le_bytes());
        }
    }
    h
}

fn run_scenario(seed: u64) -> Fingerprint {
    run_scenario_full(seed, None, false)
}

fn run_scenario_with(seed: u64, faults: Option<FaultConfig>) -> Fingerprint {
    run_scenario_full(seed, faults, false)
}

fn run_scenario_full(seed: u64, faults: Option<FaultConfig>, telemetry: bool) -> Fingerprint {
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 3,
        seed,
        ..TestbedConfig::default()
    });
    bed.kernel.ctx.trace.set_enabled(true);
    if telemetry {
        bed.kernel.ctx.telemetry.enable_all();
    }
    if let Some(cfg) = faults {
        bed.kernel.set_fault_layer(ctl_fault_layer(cfg));
    }
    bed.add_vm(
        0,
        VmSpec::large("mc", T, Ip::tenant_vm(1)),
        Box::new(memcached_server()),
    );
    let cli = bed.add_vm(
        1,
        VmSpec::large("cli", T, Ip::tenant_vm(2)),
        Box::new(MemslapClient::new(MemslapConfig::paper(
            vec![Ip::tenant_vm(1)],
            None,
        ))),
    );
    // A second tenant's bulk stream alongside the RR traffic so TCP
    // loss/recovery, tenant isolation, and the vswitch tables all get
    // exercised (one VF per tenant VLAN per server, hence the new tenant).
    let t2 = TenantId(2);
    bed.add_vm(
        2,
        VmSpec::large("src", t2, Ip::tenant_vm(3)),
        Box::new(StreamSender::new(StreamConfig::netperf(
            Ip::tenant_vm(4),
            5001,
            32_000,
        ))),
    );
    bed.add_vm(
        0,
        VmSpec::large("sink", t2, Ip::tenant_vm(4)),
        Box::new(StreamSink::new(5001)),
    );
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            timing: Timing::fine(),
            ..Default::default()
        },
    );
    ft.start(&mut bed);
    bed.start();
    bed.run_until(SimTime::from_millis(2_500));

    let ts = &bed.tor().stats;
    let tor_stats = [
        ts.acl_drops,
        ts.fwd_drops,
        ts.hw_frames,
        ts.sw_frames,
        ts.gre_encaps,
        ts.gre_decaps,
    ];
    let server_stats = (0..3)
        .map(|i| {
            let s = &bed.server(i).stats;
            [
                s.tx_ring_drops,
                s.rx_drops,
                s.policy_drops,
                s.no_route_drops,
                s.tx_sw_frames,
                s.tx_hw_frames,
                s.rx_frames,
            ]
        })
        .collect();
    let mc = bed.app::<MemslapClient>(cli);
    let completed = mc.completed();
    let latency_samples = mc.latency.count();
    let final_time_ns = bed.now().as_nanos();
    let events_processed = bed.kernel.events_processed();
    let records = bed.kernel.ctx.trace.drain();
    Fingerprint {
        events_processed,
        final_time_ns,
        completed_transactions: completed,
        latency_samples,
        tor_stats,
        server_stats,
        trace_len: records.len(),
        trace_digest: digest_trace(&records),
    }
}

#[test]
fn same_seed_replays_bit_identically() {
    let a = run_scenario(42);
    let b = run_scenario(42);
    assert!(a.events_processed > 100_000, "scenario too small: {a:?}");
    assert!(a.completed_transactions > 500, "no real traffic: {a:?}");
    assert!(a.trace_len > 0, "trace ring stayed empty");
    assert_eq!(a, b, "same seed must reproduce the identical run");
}

/// A deliberately hostile fault mix: background loss/delay/duplication on
/// every control link plus a scripted install-failure window.
fn hostile_faults() -> FaultConfig {
    FaultConfig {
        seed: 99,
        default_link: LinkFaults {
            drop: 0.02,
            delay: 0.02,
            delay_min: SimDuration::from_micros(50),
            delay_max: SimDuration::from_micros(500),
            duplicate: 0.01,
        },
        install_fail_windows: vec![(SimTime::from_millis(800), SimTime::from_millis(1_200))],
        ..Default::default()
    }
}

#[test]
fn faulted_replay_is_bit_identical() {
    let a = run_scenario_with(42, Some(hostile_faults()));
    let b = run_scenario_with(42, Some(hostile_faults()));
    assert_eq!(
        a, b,
        "fault injection must be a pure function of its seed too"
    );
}

#[test]
fn faults_actually_perturb_the_run() {
    // Guards the previous test against vacuity: the hostile config must
    // genuinely change the event stream relative to a clean run.
    // Dropped messages, retransmits, and duplicates all change the event
    // count even when the controller recovers fast enough to leave the
    // data-plane trace untouched.
    let a = run_scenario(42);
    let c = run_scenario_with(42, Some(hostile_faults()));
    assert_ne!(a, c, "hostile fault plane had no observable effect");
}

#[test]
fn zero_probability_fault_plane_is_invisible() {
    // Acceptance criterion: attaching an all-zero fault plane (whatever its
    // seed) must leave the run bit-identical to no fault plane at all.
    let a = run_scenario(42);
    let b = run_scenario_with(
        42,
        Some(FaultConfig {
            seed: 0xDEAD_BEEF,
            ..Default::default()
        }),
    );
    assert_eq!(a, b, "an all-zero fault plane must be invisible");
}

/// A chaos script touching every component class inside the 2.5 s horizon:
/// ToR reboot, one server's SR-IOV path, a link flap, and a controller
/// crash/restart.
fn chaos_script() -> FaultConfig {
    FaultConfig {
        seed: 7,
        chaos: ChaosConfig {
            // Node ids are deterministic: the testbed builds tor first
            // (node 0), then servers 1..=3; attach() adds the TOR
            // controller right after the per-VM nodes. Rather than
            // hard-code those, the scenario runner patches real ids in —
            // see run_scenario_chaos.
            ..ChaosConfig::default()
        },
        ..Default::default()
    }
}

fn run_scenario_chaos(seed: u64, idle: bool) -> Fingerprint {
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 3,
        seed,
        ..TestbedConfig::default()
    });
    bed.kernel.ctx.trace.set_enabled(true);
    bed.add_vm(
        0,
        VmSpec::large("mc", T, Ip::tenant_vm(1)),
        Box::new(memcached_server()),
    );
    let cli = bed.add_vm(
        1,
        VmSpec::large("cli", T, Ip::tenant_vm(2)),
        Box::new(MemslapClient::new(MemslapConfig::paper(
            vec![Ip::tenant_vm(1)],
            None,
        ))),
    );
    let t2 = TenantId(2);
    bed.add_vm(
        2,
        VmSpec::large("src", t2, Ip::tenant_vm(3)),
        Box::new(StreamSender::new(StreamConfig::netperf(
            Ip::tenant_vm(4),
            5001,
            32_000,
        ))),
    );
    bed.add_vm(
        0,
        VmSpec::large("sink", t2, Ip::tenant_vm(4)),
        Box::new(StreamSink::new(5001)),
    );
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            timing: Timing::fine(),
            ..Default::default()
        },
    );
    let mut cfg = chaos_script();
    let ms = SimTime::from_millis;
    if idle {
        // Non-empty script whose windows all sit past the horizon: the
        // chaos plane is installed and consulted but never fires.
        cfg.chaos.tor_outages = vec![(bed.tor, ms(10_000), ms(11_000))];
        cfg.chaos.vf_outages = vec![(bed.servers[0], ms(10_000), ms(11_000))];
        cfg.chaos.link_flaps = vec![(bed.servers[0], bed.tor, ms(10_000), ms(11_000))];
        cfg.chaos.controller_restarts = vec![(ft.tor_ctrl, ms(10_000))];
    } else {
        cfg.chaos.tor_outages = vec![(bed.tor, ms(900), ms(1_100))];
        cfg.chaos.vf_outages = vec![(bed.servers[0], ms(1_200), ms(1_600))];
        cfg.chaos.link_flaps = vec![(bed.servers[1], bed.tor, ms(1_400), ms(1_500))];
        cfg.chaos.controller_restarts = vec![(ft.tor_ctrl, ms(1_800))];
    }
    bed.kernel.set_fault_layer(ctl_fault_layer(cfg));
    ft.start(&mut bed);
    bed.start();
    bed.run_until(SimTime::from_millis(2_500));

    let ts = &bed.tor().stats;
    let tor_stats = [
        ts.acl_drops,
        ts.fwd_drops,
        ts.hw_frames,
        ts.sw_frames,
        ts.gre_encaps,
        ts.gre_decaps,
    ];
    let server_stats = (0..3)
        .map(|i| {
            let s = &bed.server(i).stats;
            [
                s.tx_ring_drops,
                s.rx_drops,
                s.policy_drops,
                s.no_route_drops,
                s.tx_sw_frames,
                s.tx_hw_frames,
                s.rx_frames,
            ]
        })
        .collect();
    let mc = bed.app::<MemslapClient>(cli);
    let completed = mc.completed();
    let latency_samples = mc.latency.count();
    let final_time_ns = bed.now().as_nanos();
    let events_processed = bed.kernel.events_processed();
    let records = bed.kernel.ctx.trace.drain();
    Fingerprint {
        events_processed,
        final_time_ns,
        completed_transactions: completed,
        latency_samples,
        tor_stats,
        server_stats,
        trace_len: records.len(),
        trace_digest: digest_trace(&records),
    }
}

#[test]
fn idle_chaos_plane_is_invisible() {
    // Acceptance criterion: a chaos plane whose scripted windows never open
    // inside the run must leave the simulation bit-identical to no fault
    // plane at all — the lazy epoch checks and window queries on the hot
    // path schedule nothing and consume no RNG.
    let a = run_scenario(42);
    let b = run_scenario_chaos(42, true);
    assert_eq!(a, b, "an idle chaos plane must be invisible");
}

#[test]
fn scripted_chaos_replays_bit_identically() {
    // Component failures — ToR reboot, VF death, link flap, controller
    // restart — are pure functions of the script: same config, same run,
    // bit for bit.
    let a = run_scenario_chaos(42, false);
    let b = run_scenario_chaos(42, false);
    assert_eq!(a, b, "scripted chaos must replay bit-identically");
    // Vacuity guard: the script must genuinely perturb the run.
    let clean = run_scenario(42);
    assert_ne!(a, clean, "chaos script had no observable effect");
}

#[test]
fn telemetry_fully_enabled_is_invisible_to_the_event_stream() {
    // The observability plane's zero-cost contract: spans and audit log
    // both on must leave the simulation bit-identical — the telemetry
    // plane never schedules events and never consumes sim RNG.
    let a = run_scenario(42);
    let b = run_scenario_full(42, None, true);
    assert_eq!(a, b, "enabled telemetry must not perturb the event stream");
    // And the span log actually captured path-residency data, so the
    // equality above is not vacuous.
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 2,
        ..TestbedConfig::default()
    });
    bed.kernel.ctx.telemetry.enable_all();
    bed.add_vm(
        0,
        VmSpec::large("src", T, Ip::tenant_vm(1)),
        Box::new(StreamSender::new(StreamConfig::netperf(
            Ip::tenant_vm(2),
            5001,
            32_000,
        ))),
    );
    bed.add_vm(1, VmSpec::large("sink", T, Ip::tenant_vm(2)), {
        Box::new(StreamSink::new(5001))
    });
    bed.start();
    bed.run_until(SimTime::from_millis(200));
    let now = bed.now().as_nanos();
    bed.kernel.ctx.telemetry.spans.finish(now);
    assert!(
        !bed.kernel.ctx.telemetry.spans.spans().is_empty(),
        "enabled span log must record flow path residency"
    );
}

/// Digest an experiment's artifacts losslessly: `Row` carries f64 measures,
/// and Rust's `Debug` for f64 is shortest-roundtrip, so two runs digest
/// equal iff every metric is bit-identical.
fn experiment_digest(id: &str) -> String {
    let arts = fastrak_bench::experiments::run(id, false)
        .unwrap_or_else(|| panic!("unknown experiment id {id}"));
    format!("{arts:?}")
}

/// One worker against up to four must produce the same artifacts for `id`;
/// returns their digest.
fn assert_artifacts_independent_of_width(id: &str) -> String {
    let serial = with_width(1, || experiment_digest(id));
    let wide = with_width(4, || experiment_digest(id));
    assert_eq!(serial, wide, "{id}: artifacts depend on the width");
    serial
}

/// Run `f` with the harness's process-wide worker budget
/// (`fastrak_bench::cells`) set to `width`. The budget is process state, so
/// the tests that set it take turns; it is put back on the way out.
fn with_width<T>(width: usize, f: impl FnOnce() -> T) -> T {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    struct Reset(usize);
    impl Drop for Reset {
        fn drop(&mut self) {
            fastrak_bench::cells::set_width(self.0);
        }
    }
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _reset = Reset(fastrak_bench::cells::width());
    fastrak_bench::cells::set_width(width);
    f()
}

/// Run experiment `id` once with telemetry on: its artifacts must digest to
/// `digest`, as without. Returns the schema of its export, each line
/// prefixed with the id as in `golden/export_schema.txt`.
fn exported_schema(id: &str, digest: &str) -> Vec<String> {
    let e = find(id).unwrap_or_else(|| panic!("unknown experiment id {id}"));
    let cx = Cx::new(false, true);
    let traced = format!("{:?}", (e.run)(&cx));
    assert_eq!(digest, traced, "{id}: telemetry moved the artifacts");
    let reg = (cx.into_exports().registry).unwrap_or_else(|| panic!("{id}: no export"));
    support::schema(&reg)
        .iter()
        .map(|s| format!("{id} {s}"))
        .collect()
}

/// The pinned export schema: `<experiment> <name{label keys}>` per line.
const PINNED_SCHEMA: &str = include_str!("golden/export_schema.txt");

/// `schema` must be exactly the `pinned` lines.
fn assert_schema_pinned(pinned: &[&str], schema: &[String]) {
    let diff: Vec<String> = (pinned.iter().filter(|p| !schema.iter().any(|s| s == *p)))
        .map(|p| format!("- {p}"))
        .chain(
            schema
                .iter()
                .filter(|s| !pinned.contains(&s.as_str()))
                .map(|s| format!("+ {s}")),
        )
        .collect();
    assert!(
        diff.is_empty(),
        "the exported series changed (`<experiment> <name{{label keys}}>`; \
         update tests/golden/export_schema.txt):\n{}",
        diff.join("\n")
    );
}

#[test]
fn experiment_artifacts_bit_identical_across_widths() {
    // The fan-out contract: every cell is a world of its own and results
    // are placed by index, so the artifacts cannot depend on how many
    // workers ran the cells. incast_matrix has the most cells (18) and is
    // the cheapest grid in a debug build; the `#[ignore]`d sibling below
    // sweeps every id. With telemetry on, the one cell it names publishes
    // the pinned series and the artifacts stay put.
    let id = "incast_matrix";
    let digest = assert_artifacts_independent_of_width(id);
    let pinned: Vec<&str> = (PINNED_SCHEMA.lines())
        .filter(|p| p.split(' ').next() == Some(id))
        .collect();
    assert_schema_pinned(&pinned, &exported_schema(id, &digest));
}

#[test]
#[ignore = "slow: run with cargo test --release --test determinism -- --ignored"]
fn all_experiment_artifacts_bit_identical_across_widths() {
    // The artifact-level check of the harness fan-out against a serial run,
    // for every paper artifact. Each experiment then runs once more with
    // telemetry on: the artifacts must not move, and the series its export
    // holds are pinned.
    let mut schema = Vec::new();
    for e in EXPERIMENTS {
        let digest = assert_artifacts_independent_of_width(e.id);
        schema.extend(exported_schema(e.id, &digest));
    }
    let pinned: Vec<&str> = PINNED_SCHEMA.lines().collect();
    assert_schema_pinned(&pinned, &schema);
}

#[test]
fn different_seeds_diverge() {
    // Guards against the fingerprint being insensitive (e.g. tracing broken
    // and everything zero): a different seed must actually change it.
    let a = run_scenario(42);
    let c = run_scenario(43);
    assert_ne!(
        a.trace_digest, c.trace_digest,
        "seed does not influence the run — fingerprint may be vacuous"
    );
}

/// Transport-heavy scenario: DCTCP incast fan-in with ECN marking at the
/// ToR + NIC queues, SACK enabled, and a full FIN/TIME_WAIT teardown at
/// the end (the aggregator closes every connection once its rounds are
/// done). Exercises the complete new transport subsystem end to end.
fn run_transport_scenario(seed: u64) -> (u64, u64, u64, u64, u64) {
    use fastrak_transport::cc::CcAlgo;
    use fastrak_transport::tcp::TcpConfig;
    use fastrak_workload::{incast_worker, IncastAggregator, IncastConfig};

    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 3,
        seed,
        ..TestbedConfig::default()
    });
    bed.kernel.ctx.trace.set_enabled(true);
    let k = SimDuration::from_micros(60);
    bed.tor_mut().cfg.ecn_mark_threshold = Some(k);
    for i in 0..3 {
        bed.server_mut(i).cfg.ecn_mark_threshold = Some(k);
    }
    let tcp = TcpConfig {
        cc: CcAlgo::Dctcp,
        ecn: true,
        sack: true,
        msl: SimDuration::from_millis(50),
        ..TcpConfig::default()
    };
    let mut workers = Vec::new();
    for i in 0..8u16 {
        let ip = Ip::tenant_vm(i + 2);
        bed.add_vm_tcp(
            1 + (i as usize) % 2,
            VmSpec::medium(format!("w{i}"), T, ip),
            Box::new(incast_worker(16_000)),
            tcp,
        );
        workers.push(ip);
    }
    let agg = bed.add_vm_tcp(
        0,
        VmSpec::large("agg", T, Ip::tenant_vm(1)),
        Box::new(IncastAggregator::new(IncastConfig {
            long_flows: 2,
            ..IncastConfig::fan_in(workers, 16_000, 300)
        })),
        tcp,
    );
    bed.start();
    bed.run_until(SimTime::from_millis(1_500));
    let marks = bed.tor().ecn_marked() + (0..3).map(|i| bed.server(i).ecn_marked()).sum::<u64>();
    let (rounds, p99) = {
        let app = bed.app::<IncastAggregator>(agg);
        (app.completed_rounds, app.fct.quantile(0.99))
    };
    let records = bed.kernel.ctx.trace.drain();
    (
        rounds,
        p99,
        marks,
        records.len() as u64,
        digest_trace(&records),
    )
}

#[test]
fn transport_incast_scenario_replays_bit_identically() {
    let a = run_transport_scenario(11);
    let b = run_transport_scenario(11);
    assert_eq!(a.0, 300, "all incast rounds must complete: {a:?}");
    assert!(a.2 > 0, "the ECN feedback loop never marked: {a:?}");
    assert_eq!(
        a, b,
        "transport scenario must be a pure function of its seed"
    );
}
