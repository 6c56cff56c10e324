//! Incast matrix — congestion control × path placement × fan-out grid
//! (extension beyond the paper's published evaluation; DESIGN.md transport
//! subsystem).
//!
//! An aggregator fans a synchronized request out to N workers and waits
//! for every response: the classic partition-aggregate incast that
//! overflows shallow buffers at the aggregator's downlink. Two long
//! pipelined flows keep standing queues occupied so short bursts contend
//! with backlog (the DCTCP evaluation's long/short mix). The grid reruns
//! the identical rack for each congestion-control variant (Reno, CUBIC,
//! DCTCP with RED-style ECN marking at the ToR and NICs), each path
//! placement (software VIF, SR-IOV hardware, and a Fig.-12-style mid-run
//! migration of the workers' response path onto SR-IOV), and two fan-out
//! widths, reporting:
//!
//! * round FCT p50/p99 — fan-out issue to last response byte;
//! * rounds completed — aggregate goodput of the closed loop;
//! * retransmitted segments and RTO timeouts — loss-recovery health;
//! * ECN CE marks and ECE echoes — the DCTCP feedback loop at work;
//! * the migration transient — retransmits after the mid-run path shift,
//!   comparable against the static-path cells' same-window count.
//!
//! Everything runs on the deterministic testbed: same seed → bit-identical
//! artifacts (pinned by this module's replay test).
//!
//! The `sw` and `migrate` cells of one (cc, fan-out) are one history until
//! the path shift at horizon/2: `migrate` runs on the software path until
//! then, and authorizing the tenant's hardware path early changes no frame.
//! So each such rack runs once to the shift and [`cells::fork`] gives each
//! of the two cells its own copy; the `migrate` copy authorizes the tenant
//! and installs the placer rules there. `hw` cells run alone.
//! `forked_cells_equal_cells_built_from_scratch` pins every pair against
//! cells run from scratch.

use fastrak_host::vm::VmSpec;
use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::flow::FlowSpec;
use fastrak_net::packet::PathTag;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_transport::cc::CcAlgo;
use fastrak_transport::tcp::TcpConfig;
use fastrak_workload::{
    incast_worker, IncastAggregator, IncastConfig, Testbed, TestbedConfig, VmRef,
};

use crate::cells;
use crate::experiments::{Cx, Decl, World};
use crate::report::{Artifact, ArtifactSpec, Col};
use crate::scenarios::sum_tcp;

const TENANT: TenantId = TenantId(1);
/// Response size per worker per round (~11 MSS: enough to burst).
const RESP_SIZE: u64 = 16_000;
/// RED/DCTCP-style marking threshold (queueing delay at 10 Gbps; ~K=65
/// full-sized frames, the DCTCP paper's 10 Gbps recommendation).
const ECN_K: SimDuration = SimDuration::from_micros(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Path {
    /// Everything stays on the vswitch (VIF) path.
    Sw,
    /// Everything pinned to SR-IOV from the start.
    Hw,
    /// Workers' response path migrates VIF → SR-IOV mid-run (Fig. 12
    /// shape: the data direction shifts, ACKs keep returning via VIF).
    Migrate,
}

impl Path {
    fn name(self) -> &'static str {
        match self {
            Path::Sw => "sw",
            Path::Hw => "hw",
            Path::Migrate => "migrate",
        }
    }
}

fn cc_grid() -> [(&'static str, CcAlgo); 3] {
    [
        ("reno", CcAlgo::Reno),
        ("cubic", CcAlgo::Cubic),
        ("dctcp", CcAlgo::Dctcp),
    ]
}

/// One grid cell's observables.
pub(crate) struct Outcome {
    fct_p50_ns: u64,
    fct_p99_ns: u64,
    rounds: u64,
    rtx_segs: u64,
    timeouts: u64,
    /// CE marks applied by the fabric (ToR + NIC queues).
    ce_marks: u64,
    /// ECE echoes the senders saw (the feedback loop closing).
    ece_rx: u64,
    /// Retransmits in the second half of the run (after the migration
    /// instant — the transient for `migrate`, the baseline otherwise).
    rtx_after_shift: u64,
}

/// One cell's world: the rack plus the VMs a cell reads or re-places.
#[derive(Clone)]
struct Rack {
    bed: Testbed,
    workers: Vec<VmRef>,
    agg: VmRef,
}

/// The rack for one cell, started; nothing has run yet. Every path but
/// `sw` has the tenant's hardware path authorized, and `hw` pins every VM
/// to SR-IOV.
fn build(cc: CcAlgo, path: Path, fanout: usize) -> Rack {
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 5,
        tunneling: false,
        ..TestbedConfig::default()
    });
    let tcp = TcpConfig {
        cc,
        ecn: cc == CcAlgo::Dctcp,
        sack: true,
        ..TcpConfig::default()
    };
    if cc == CcAlgo::Dctcp {
        bed.tor_mut().cfg.ecn_mark_threshold = Some(ECN_K);
        for i in 0..5 {
            bed.server_mut(i).cfg.ecn_mark_threshold = Some(ECN_K);
        }
    }

    // Workers round-robin over servers 1..=4; the aggregator alone on
    // server 0 so all responses converge on one downlink.
    let mut ips = Vec::new();
    let mut workers = Vec::new();
    for i in 0..fanout {
        let ip = Ip::tenant_vm(i as u16 + 2);
        let v = bed.add_vm_tcp(
            1 + i % 4,
            VmSpec::medium(format!("w{i}"), TENANT, ip),
            Box::new(incast_worker(RESP_SIZE)),
            tcp,
        );
        workers.push(v);
        ips.push(ip);
    }
    let agg = bed.add_vm_tcp(
        0,
        VmSpec::large("agg", TENANT, Ip::tenant_vm(1)),
        Box::new(IncastAggregator::new(IncastConfig {
            long_flows: 2,
            long_burst: 8,
            rounds: None,
            ..IncastConfig::fan_in(ips, RESP_SIZE, 0)
        })),
        tcp,
    );

    if path != Path::Sw {
        bed.authorize_hw_tenant(TENANT);
    }
    if path == Path::Hw {
        for &v in &workers {
            bed.force_path(v, PathTag::SrIov);
        }
        bed.force_path(agg, PathTag::SrIov);
    }
    bed.start();
    Rack { bed, workers, agg }
}

/// The path shift: the instant the cells of one world diverge.
fn shift_at(horizon: SimTime) -> SimTime {
    SimTime(horizon.as_nanos() / 2)
}

/// Take a rack standing at [`shift_at`] to `horizon` and read its outcome;
/// the finished world comes back beside it. A `migrate` cell first shifts
/// the workers' egress (the response direction) onto the SR-IOV VF, as the
/// FasTrak rule manager would; requests and ACKs keep flowing via the VIF
/// (asymmetric, as in Fig. 12).
fn finish(rack: Rack, path: Path, horizon: SimTime) -> (Outcome, Testbed) {
    let Rack {
        mut bed,
        workers,
        agg,
    } = rack;
    let pre = sum_tcp(&bed);
    if path == Path::Migrate {
        for v in workers {
            let spec = FlowSpec {
                tenant: Some(TENANT),
                src_ip: Some(v.ip),
                ..FlowSpec::ANY
            };
            bed.server_mut(v.server)
                .vm_mut(v.vm)
                .placer
                .install_rule(spec, 10, PathTag::SrIov);
        }
    }
    bed.run_until(horizon);

    let end = sum_tcp(&bed);
    let ce_marks = bed.tor().ecn_marked() + (0..5).map(|i| bed.server(i).ecn_marked()).sum::<u64>();
    let app = bed.app::<IncastAggregator>(agg);
    let got = Outcome {
        fct_p50_ns: app.fct.quantile(0.5),
        fct_p99_ns: app.fct.quantile(0.99),
        rounds: app.completed_rounds,
        rtx_segs: end.rtx_segs,
        timeouts: end.timeouts,
        ce_marks,
        ece_rx: end.ecn_ece_rx,
        rtx_after_shift: end.rtx_segs - pre.rtx_segs,
    };
    (got, bed)
}

/// The cells that share `world` up to [`shift_at`]: `sw` and `migrate`
/// are one history on the software path until then; `hw` differs from the
/// first instant.
fn cells_of(world: Path) -> &'static [Path] {
    match world {
        Path::Hw => &[Path::Hw],
        Path::Sw | Path::Migrate => &[Path::Sw, Path::Migrate],
    }
}

/// Simulate `world` once up to [`shift_at`], then run each of its cells on
/// its own copy; `read` takes each cell's path, outcome and finished world
/// on the worker that ran it. Results come back in [`cells_of`] order.
fn run_world<R: Send>(
    cc: CcAlgo,
    world: Path,
    fanout: usize,
    horizon: SimTime,
    read: impl Fn(Path, Outcome, Testbed) -> R + Sync,
) -> Vec<R> {
    let mut rack = build(cc, world, fanout);
    rack.bed.run_until(shift_at(horizon));
    cells::fork(rack, cells_of(world), |mut rack, &path| {
        if path == Path::Migrate && world == Path::Sw {
            // Authorized from the start in a rack of its own; no frame can
            // tell the difference before the shift.
            rack.bed.authorize_hw_tenant(TENANT);
        }
        let (got, bed) = finish(rack, path, horizon);
        read(path, got, bed)
    })
}

fn label(cc_name: &str, path: Path, fanout: usize) -> String {
    format!("cc={cc_name}, path={}, fanout={fanout}", path.name())
}

/// One world per (cc, `sw` or `hw`, fan-out), longest first: a software
/// world carries two cells, `sw` and `migrate`. The rows go by cc, path
/// and fan-out. `--telemetry` exports the most telling cell (DCTCP +
/// migration + widest fan-out — every `tcp.*` counter and the fabric mark
/// counters live).
pub(crate) fn declare(_full: bool) -> Decl<(CcAlgo, Path, usize), Outcome, Path> {
    let fanouts = [4, 12];
    let mut worlds = Vec::new();
    for world in [Path::Sw, Path::Hw] {
        for (cc_name, cc) in cc_grid() {
            for fanout in fanouts {
                let cells = (cells_of(world).iter())
                    .map(|&path| (label(cc_name, path, fanout), path))
                    .collect();
                worlds.push(World {
                    params: (cc, world, fanout),
                    cells,
                });
            }
        }
    }
    let mut a = ArtifactSpec::new(
        "incast-matrix",
        "Incast fan-in: congestion control x path x fan-out grid",
        "partition-aggregate fan-in stresses the aggregator downlink; DCTCP's ECN feedback keeps queues short (marks instead of drops, lower FCT tails), SR-IOV placement cuts per-hop latency, and a mid-run response-path migration shows the Fig.-12 transient (retransmits, no collapse) under every variant",
    );
    let columns = [
        Col::new("round FCT p50", "us", |o: &Outcome| {
            o.fct_p50_ns as f64 / 1_000.0
        }),
        Col::new("round FCT p99", "us", |o| o.fct_p99_ns as f64 / 1_000.0),
        Col::new("rounds completed", "count", |o| o.rounds as f64),
        Col::new("retransmitted segments", "segs", |o| o.rtx_segs as f64),
        Col::new("RTO timeouts", "events", |o| o.timeouts as f64),
        Col::new("ECN CE marks (fabric)", "pkts", |o| o.ce_marks as f64),
        Col::new("ECE echoes received", "acks", |o| o.ece_rx as f64),
        Col::new("rtx after path shift", "segs", |o| o.rtx_after_shift as f64),
    ];
    for (cc_name, _) in cc_grid() {
        for path in [Path::Sw, Path::Hw, Path::Migrate] {
            for fanout in fanouts {
                for col in &columns {
                    a.push(col.at(&label(cc_name, path, fanout)));
                }
            }
        }
    }
    a.note("no 'paper' column: the paper migrates one bulk flow (Fig. 12); the grid extends it with incast fan-in and the transport variants");
    a.note(format!(
        "resp={RESP_SIZE}B/worker/round, 2 long pipelined flows as background, ECN marking K={}us on ToR+NIC queues for the DCTCP cells; path shift at horizon/2",
        ECN_K.as_nanos() / 1_000
    ));
    Decl::new(worlds, label("dctcp", Path::Migrate, 12), vec![a])
}

/// Regenerate the incast-matrix report. No row reads a registry, so only
/// the exported cell publishes one, and only under `--telemetry`.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let horizon = if cx.full {
        SimTime::from_millis(1_200)
    } else {
        SimTime::from_millis(500)
    };
    declare(cx.full).run(cx, |&(cc, world, fanout), cells| {
        run_world(cc, world, fanout, horizon, |path, got, mut bed| {
            let cell = cells.iter().find(|c| *c.read == path);
            if let Some(cx) = cell.and_then(|c| c.export) {
                cx.publish(&mut bed, None);
            }
            got
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fork_check;

    const TEST_HORIZON: SimTime = SimTime::from_millis(500);

    /// The `migrate` cell, forked from its software world, and its
    /// finished world.
    fn migrate(cc: CcAlgo, fanout: usize) -> (Outcome, Testbed) {
        let cells = run_world(cc, Path::Sw, fanout, TEST_HORIZON, |_, got, bed| (got, bed));
        let [_, got] =
            <[_; 2]>::try_from(cells).unwrap_or_else(|_| panic!("a software world has two cells"));
        got
    }

    /// The reference path: one cell built and run from scratch, its
    /// hardware path authorized from the start unless it is `sw`.
    fn run_one(cc: CcAlgo, path: Path, fanout: usize, horizon: SimTime) -> Vec<String> {
        let mut rack = build(cc, path, fanout);
        rack.bed.run_until(shift_at(horizon));
        let (got, bed) = finish(rack, path, horizon);
        observed(&got, bed)
    }

    /// Everything a cell reports: its rows' inputs and every metric its
    /// finished world publishes.
    fn observed(got: &Outcome, mut bed: Testbed) -> Vec<String> {
        let head = vec![format!(
            "fct={}/{} rounds={} rtx={} rto={} ce={} ece={} rtx_after={}",
            got.fct_p50_ns,
            got.fct_p99_ns,
            got.rounds,
            got.rtx_segs,
            got.timeouts,
            got.ce_marks,
            got.ece_rx,
            got.rtx_after_shift
        )];
        bed.publish_telemetry();
        fork_check::report(head, &bed.kernel.ctx.telemetry.registry)
    }

    /// A superseded TCP timer is cancelled, not left queued to fire: the
    /// kernel's pending set stays near the events actually in flight. In
    /// the world whose pending set peaked highest (DCTCP, SR-IOV, fan-out
    /// 12: 7 286 at 250 ms, sampled every 10 ms, when each re-armed 200 ms
    /// RTO left its predecessor queued), sampled the same way over more
    /// than one RTO.
    #[test]
    fn pending_set_stays_small_when_timers_are_rearmed() {
        let mut rack = build(CcAlgo::Dctcp, Path::Hw, 12);
        let mut peak = 0;
        for ms in (10..=300).step_by(10) {
            rack.bed.run_until(SimTime::from_millis(ms));
            peak = peak.max(rack.bed.kernel.pending_events());
        }
        assert!(peak < 1_000, "pending set peaked at {peak} events");
    }

    /// The acceptance criterion: the DCTCP cells' ECN feedback loop must
    /// actually close (fabric CE marks, ECE echoes) while the classic-CC
    /// cells stay mark-free, and every cell must make progress through the
    /// migration without collapsing. Release-only (`--ignored`, run by CI).
    #[test]
    #[ignore = "slow: run with cargo test --release -p fastrak-bench -- --ignored"]
    fn dctcp_marks_and_every_cell_progresses() {
        for (cc_name, cc) in cc_grid() {
            let (got, _) = migrate(cc, 12);
            assert!(
                got.rounds > 50,
                "{cc_name}: incast must progress through the migration, got {} rounds",
                got.rounds
            );
            if cc == CcAlgo::Dctcp {
                assert!(got.ce_marks > 0, "dctcp: fabric must CE-mark");
                assert!(got.ece_rx > 0, "dctcp: senders must see ECE echoes");
            } else {
                assert_eq!(got.ce_marks, 0, "{cc_name}: no marking configured");
                assert_eq!(got.ece_rx, 0, "{cc_name}: no ECN negotiated");
            }
        }
    }

    /// Same seed → bit-identical artifacts (and registry export).
    #[test]
    #[ignore = "slow: run with cargo test --release -p fastrak-bench -- --ignored"]
    fn dctcp_migrate_cell_replays_bit_identically() {
        let run = || {
            let (got, bed) = migrate(CcAlgo::Dctcp, 12);
            observed(&got, bed)
        };
        assert_eq!(run(), run());
    }

    /// Forking is invisible: every `sw`/`migrate` pair, forked at the path
    /// shift, reports exactly what the same cells built and run from
    /// scratch report — every row input and every exported metric.
    #[test]
    #[ignore = "slow: run with cargo test --release -p fastrak-bench -- --ignored"]
    fn forked_cells_equal_cells_built_from_scratch() {
        let worlds: Vec<(CcAlgo, usize)> = cc_grid()
            .into_iter()
            .flat_map(|(_, cc)| [4, 12].map(|fanout| (cc, fanout)))
            .collect();
        let differ: Vec<String> = cells::map(&worlds, |&(cc, fanout)| {
            let forked = run_world(cc, Path::Sw, fanout, TEST_HORIZON, |path, got, bed| {
                (path, observed(&got, bed))
            });
            forked
                .into_iter()
                .filter_map(|(path, f)| {
                    let r = run_one(cc, path, fanout, TEST_HORIZON);
                    fork_check::first_difference(&f, &r)
                        .map(|d| format!("{cc:?}/{}/{fanout}: {d}", path.name()))
                })
                .collect::<Vec<_>>()
        })
        .concat();
        assert!(differ.is_empty(), "{}", differ.join("\n"));
    }
}
