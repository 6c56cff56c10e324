//! Component-failure chaos matrix (DESIGN.md §5 "Component failure
//! semantics") — an extension beyond the paper's published evaluation.
//!
//! The paper's evaluation assumes every component stays up; this experiment
//! scripts component-level failures through the deterministic chaos plane
//! ([`fastrak_sim::chaos`]) and measures how gracefully the express lane
//! degrades and recovers:
//!
//! * **ToR reboot** — rule table and flow counters wiped, ports dark for a
//!   window; the controller must detect the boot-generation bump, demote
//!   everything the hardware lost, and re-converge with zero bookkeeping
//!   drift.
//! * **SR-IOV VF failure** — one server's hardware path goes dark; its
//!   local controller reports the transition and the TOR controller
//!   force-demotes that server's offloaded aggregates onto the software
//!   path (no flow is lost forever).
//! * **Link flap** — drop windows on the host↔ToR link; blackhole
//!   detection (hardware counters idle under live demand) demotes the
//!   affected aggregates until the link settles.
//! * **Controller crash/restart** — a state-free new incarnation rebuilds
//!   its offloaded set, transactions, and policy occupancy from the ToR's
//!   rule dump; differentially compared against a never-crashed run.
//!
//! Every scenario runs under both fast-path fairness policies in `--full`
//! mode (quick mode covers the unrestricted baseline policy) to show the
//! recovery machinery is policy-independent.
//!
//! All five cells of a policy (the fault-free baseline and the four
//! scenarios) are one history until the faults open at 2.5 s, about 40 % of
//! each run. That history is simulated once: the rack runs with an empty
//! chaos script to [`fork_at`], 1 ns before the scripts start, which is the
//! last instant no scenario can observe. [`cells::fork`] then gives each
//! scenario its own copy, with its script put into the copy's chaos plane.
//! `forked_cells_equal_cells_built_from_scratch` pins every row input and
//! exported metric (outside host time) against cells run from scratch.

use fastrak::{
    attach, CtrlPlaneConfig, DeConfig, FasTrak, FasTrakConfig, FastPathPolicy, TorController,
};
use fastrak_net::event::ctl_fault_layer;
use fastrak_sim::chaos::{ChaosConfig, ChaosPlane};
use fastrak_sim::fault::FaultConfig;
use fastrak_sim::kernel::NodeId;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_telemetry::Registry;
use fastrak_workload::{MemslapClient, Testbed, VmRef};

use crate::cells;
use crate::experiments::fault_matrix::Converged;
use crate::experiments::{Cx, Decl, World};
use crate::report::{Artifact, ArtifactSpec, Col};
use crate::scenarios::scp_rack;

/// Failure scenarios scripted through the chaos plane. All faults open at
/// [`fault_start`], after the controller has converged on the memcached
/// aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scenario {
    /// No chaos — the convergence target every other scenario must return to.
    Baseline,
    /// ToR dark + state wiped for 2.5 s – 2.9 s.
    TorReboot,
    /// Server 0's SR-IOV path dark for 2.5 s – 4.0 s.
    VfFailure,
    /// Two drop windows on the server-0↔ToR link.
    LinkFlap,
    /// TOR controller crashes and restarts at 2.5 s.
    CtrlRestart,
}

impl Scenario {
    fn label(self) -> &'static str {
        match self {
            Scenario::Baseline => "baseline",
            Scenario::TorReboot => "tor_reboot",
            Scenario::VfFailure => "vf_failure",
            Scenario::LinkFlap => "link_flap",
            Scenario::CtrlRestart => "ctrl_restart",
        }
    }
}

impl Scenario {
    /// The rows only this scenario's cells report, after the ones every
    /// scenario's cells do.
    fn own_columns(self) -> Vec<Col<Outcome>> {
        let count = |metric, read: fn(&Outcome) -> f64| Col::new(metric, "count", read);
        match self {
            Scenario::Baseline => vec![],
            Scenario::TorReboot => vec![
                count("tor reboots detected", |o| o.reboots_seen as f64),
                Col::new("frames blackholed by dark ToR", "frames", |o| {
                    o.frames_blocked as f64
                }),
            ],
            Scenario::VfFailure => vec![
                count("hw-path-down demotes", |o| o.hw_down_demotes as f64),
                Col::new("frames eaten by dead VF", "frames", |o| {
                    o.hw_path_drops as f64
                }),
            ],
            Scenario::LinkFlap => vec![count("blackhole demotes", |o| o.blackhole_demotes as f64)],
            Scenario::CtrlRestart => {
                vec![count("controller restarts survived", |o| o.restarts as f64)]
            }
        }
    }
}

fn fault_start() -> SimTime {
    SimTime::from_millis(2_500)
}

/// The last instant no scenario can observe. Every script opens at
/// [`fault_start`] and the chaos plane answers `now >= start`, so up to and
/// including this instant all five cells of a policy are one history: it is
/// simulated once, and forked here.
fn fork_at() -> SimTime {
    SimTime(fault_start().as_nanos() - 1)
}

/// One cell's world: the rack plus the handles a cell reads it through.
#[derive(Clone)]
struct Rack {
    bed: Testbed,
    memslap: VmRef,
    ft: FasTrak,
}

/// [`scp_rack`] (also `fault_matrix`'s) with FasTrak attached, a fault
/// layer with an empty chaos script, everything started. Nothing has run
/// yet.
fn build(policy: FastPathPolicy) -> Rack {
    let (mut bed, memslap) = scp_rack();
    // Same offload cap as fault_matrix: the two memcached aggregates
    // dominate by orders of magnitude, so "same offloaded set" tests the
    // recovery machinery rather than DE tie-breaking.
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            de: DeConfig {
                max_offloaded: Some(2),
                policy,
                ..DeConfig::paper()
            },
            // Chaos scenarios need the detection machinery on: liveness
            // probes every 100 ms and two-epoch blackhole confirmation.
            // Enabled for the baseline too so the differential comparisons
            // see identical control-plane behaviour.
            ctrl: CtrlPlaneConfig {
                probe_interval: SimDuration::from_millis(100),
                blackhole_epochs: 2,
            },
            ..Default::default()
        },
    );
    bed.kernel.set_fault_layer(ctl_fault_layer(FaultConfig {
        seed: 0xC4A05,
        ..FaultConfig::default()
    }));
    ft.start(&mut bed);
    bed.start();
    Rack { bed, memslap, ft }
}

/// Put `scenario`'s script into the rack's chaos plane. Before
/// [`fault_start`] no component can tell a scripted plane from an empty one.
fn script(rack: &mut Rack, scenario: Scenario) {
    let chaos = chaos_for(
        scenario,
        rack.bed.tor,
        rack.bed.servers[0],
        rack.ft.tor_ctrl,
    );
    rack.bed
        .kernel
        .fault_plane_mut()
        .expect("build attaches the fault layer")
        .chaos = ChaosPlane::new(chaos);
}

fn chaos_for(scenario: Scenario, tor: NodeId, server0: NodeId, tor_ctrl: NodeId) -> ChaosConfig {
    let t0 = fault_start();
    match scenario {
        Scenario::Baseline => ChaosConfig::default(),
        Scenario::TorReboot => ChaosConfig {
            tor_outages: vec![(tor, t0, SimTime::from_millis(2_900))],
            ..ChaosConfig::default()
        },
        Scenario::VfFailure => ChaosConfig {
            vf_outages: vec![(server0, t0, SimTime::from_millis(4_000))],
            ..ChaosConfig::default()
        },
        Scenario::LinkFlap => ChaosConfig {
            link_flaps: vec![
                (server0, tor, t0, SimTime::from_millis(2_700)),
                (
                    server0,
                    tor,
                    SimTime::from_millis(3_000),
                    SimTime::from_millis(3_200),
                ),
            ],
            ..ChaosConfig::default()
        },
        Scenario::CtrlRestart => ChaosConfig {
            controller_restarts: vec![(tor_ctrl, t0)],
            ..ChaosConfig::default()
        },
    }
}

/// End-of-run observables for one (scenario, policy) cell.
pub(crate) struct Outcome {
    conv: Converged,
    /// Victim (memslap) p99 transaction latency over the whole run.
    p99_ns: u64,
    /// First checkpoint (ms after the fault opens) where the offloaded set
    /// shrank below its pre-fault size; -1 if it never did.
    time_to_fallback_ms: f64,
    /// First checkpoint after fallback where the set was back to its
    /// pre-fault size; -1 if it never recovered (or never fell back).
    time_to_reoffload_ms: f64,
    reboots_seen: u64,
    restarts: u64,
    blackhole_demotes: u64,
    hw_down_demotes: u64,
    frames_blocked: u64,
    hw_path_drops: u64,
}

impl AsRef<Converged> for Outcome {
    fn as_ref(&self) -> &Converged {
        &self.conv
    }
}

/// Run a scripted rack from wherever it stands (at most [`fork_at`]) to
/// `horizon` and read its outcome, with the end-of-run telemetry snapshot
/// the outcome's counters were read from.
fn finish(rack: Rack, horizon: SimTime) -> (Outcome, Registry) {
    let Rack {
        mut bed,
        memslap,
        ft,
    } = rack;
    // Run to the fault, snapshot the converged set size, then step in 50 ms
    // checkpoints to timestamp fallback and re-offload (checkpoints only
    // observe — they schedule nothing, so determinism is untouched).
    bed.run_until(fault_start());
    let pre_fault = bed
        .kernel
        .node::<TorController>(ft.tor_ctrl)
        .offloaded()
        .len();
    let mut fell_at = None;
    let mut recovered_at = None;
    let mut t = fault_start();
    while t < horizon {
        t += SimDuration::from_millis(50);
        bed.run_until(t);
        let n = bed
            .kernel
            .node::<TorController>(ft.tor_ctrl)
            .offloaded()
            .len();
        if fell_at.is_none() && n < pre_fault {
            fell_at = Some(t);
        }
        if fell_at.is_some() && recovered_at.is_none() && n >= pre_fault {
            recovered_at = Some(t);
        }
    }

    let conv = Converged::read(&bed, &ft);
    let p99_ns = bed.app::<MemslapClient>(memslap).latency.quantile(0.99);
    let hw_path_drops = bed.server(0).stats.hw_path_drops + bed.server(1).stats.hw_path_drops;
    bed.publish_telemetry();
    ft.publish_telemetry(&mut bed);
    let reg = std::mem::take(&mut bed.kernel.ctx.telemetry.registry);
    let ctr = |name: &str| reg.counter_by_name(name).unwrap_or(0);
    let since_fault =
        |t: Option<SimTime>| t.map_or(-1.0, |t| (t - fault_start()).as_nanos() as f64 / 1e6);
    let got = Outcome {
        conv,
        p99_ns,
        time_to_fallback_ms: since_fault(fell_at),
        time_to_reoffload_ms: since_fault(recovered_at),
        reboots_seen: ctr("ctrl.chaos.tor_reboots_seen"),
        restarts: ctr("ctrl.chaos.ctrl_restarts"),
        blackhole_demotes: ctr("ctrl.chaos.blackhole_demotes"),
        hw_down_demotes: ctr("ctrl.chaos.hw_path_down_demotes"),
        frames_blocked: ctr("sim.chaos.frames_blocked"),
        hw_path_drops,
    };
    (got, reg)
}

/// The history every cell of `policy` shares: the rack, run to [`fork_at`].
fn converged(policy: FastPathPolicy) -> Rack {
    let mut rack = build(policy);
    rack.bed.run_until(fork_at());
    rack
}

/// One policy's cells, in `scenarios` order: the shared history is
/// simulated once, then each scenario runs on its own copy and `read` takes
/// the cell's outcome and registry on the worker that ran it.
fn run_policy<R: Send>(
    policy: FastPathPolicy,
    scenarios: &[Scenario],
    horizon: SimTime,
    read: impl Fn(Scenario, Outcome, Registry) -> R + Sync,
) -> Vec<R> {
    cells::fork(converged(policy), scenarios, |mut rack, &scenario| {
        script(&mut rack, scenario);
        let (got, reg) = finish(rack, horizon);
        read(scenario, got, reg)
    })
}

/// The unrestricted-policy rack as each of its cells receives it. What the
/// `testbed_fork_chaos_rack` bench copies.
pub fn rack_at_fork() -> Testbed {
    converged(FastPathPolicy::Unrestricted).bed
}

fn policy_label(p: &FastPathPolicy) -> &'static str {
    if p.is_unrestricted() {
        "unrestricted"
    } else {
        "weighted"
    }
}

/// One world per policy (both in `--full` mode, unrestricted only in quick
/// mode), forked into the fault-free baseline cell and one cell per
/// scenario. `--telemetry` exports the ToR-reboot cell under the
/// unrestricted policy: the richest snapshot (chaos counters,
/// probe/reconcile machinery, and blocked-frame accounting all
/// non-trivial).
pub(crate) fn declare(full: bool) -> Decl<FastPathPolicy, Outcome, Scenario> {
    let policies: Vec<FastPathPolicy> = if full {
        vec![
            FastPathPolicy::Unrestricted,
            FastPathPolicy::WeightedScore {
                weights: Default::default(),
            },
        ]
    } else {
        vec![FastPathPolicy::Unrestricted]
    };
    let scenarios = [
        Scenario::TorReboot,
        Scenario::VfFailure,
        Scenario::LinkFlap,
        Scenario::CtrlRestart,
    ];
    let columns = [
        Col::new("time to software fallback", "ms", |o: &Outcome| {
            o.time_to_fallback_ms
        }),
        Col::new("time to re-offload", "ms", |o| o.time_to_reoffload_ms),
        Col::new("victim p99 latency", "us", |o| o.p99_ns as f64 / 1_000.0),
    ];
    let mut a = ArtifactSpec::new(
        "chaos-matrix",
        "Express-lane degradation and recovery under component failures",
        "scripted ToR reboots, SR-IOV VF death, link flaps, and controller restarts: offloaded flows fall back to the software path (nothing is lost), bookkeeping drift stays zero, and the offloaded set re-converges to the fault-free one after recovery",
    );
    let mut worlds = Vec::new();
    for policy in policies {
        let label = |s: Scenario| format!("{}/{}", s.label(), policy_label(&policy));
        let base = label(Scenario::Baseline);
        Converged::base_row(&mut a, &base);
        let mut cells = vec![(base.clone(), Scenario::Baseline)];
        for scenario in scenarios {
            let cell = label(scenario);
            Converged::rows(&mut a, &cell, &base);
            for col in columns.iter().chain(&scenario.own_columns()) {
                a.push(col.at(&cell));
            }
            cells.push((cell, scenario));
        }
        worlds.push(World {
            params: policy,
            cells,
        });
    }
    a.note("'paper' column is the recovery target (1 = same offloaded set as the fault-free run, 0 bookkeeping drift), not a published number — the paper's evaluation assumes every component stays up");
    Decl::new(worlds, "tor_reboot/unrestricted", vec![a])
}

/// Regenerate the chaos-matrix report: each policy's shared history is
/// simulated once and forked into its cells.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let horizon = if cx.full {
        SimTime::from_millis(8_300)
    } else {
        SimTime::from_millis(6_300)
    };
    declare(cx.full).run(cx, |policy, cells| {
        let scenarios: Vec<Scenario> = cells.iter().map(|c| *c.read).collect();
        run_policy(policy.clone(), &scenarios, horizon, |scenario, got, reg| {
            let cell = cells.iter().find(|c| *c.read == scenario);
            if let Some(cx) = cell.and_then(|c| c.export) {
                cx.keep(reg);
            }
            got
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fork_check;

    const TEST_HORIZON: SimTime = SimTime::from_millis(6_300);

    /// The baseline and one scenario, forked from one converged rack, each
    /// with its registry.
    fn base_and(scenario: Scenario) -> ((Outcome, Registry), (Outcome, Registry)) {
        let mut got = run_policy(
            FastPathPolicy::Unrestricted,
            &[Scenario::Baseline, scenario],
            TEST_HORIZON,
            |_, got, reg| (got, reg),
        );
        let scenario = got.pop().expect("two cells");
        (got.pop().expect("two cells"), scenario)
    }

    /// The reference path: one cell built and run from scratch, with its
    /// script in place from the start.
    fn run_one(scenario: Scenario, policy: FastPathPolicy, horizon: SimTime) -> Vec<String> {
        let mut rack = build(policy);
        script(&mut rack, scenario);
        let (got, reg) = finish(rack, horizon);
        observed(&got, &reg)
    }

    /// Everything a cell reports: its rows' inputs and every exported
    /// metric outside host time.
    fn observed(got: &Outcome, reg: &Registry) -> Vec<String> {
        let head = vec![
            format!("offloaded={:?}", got.conv.offloaded),
            format!("drift={} p99_ns={}", got.conv.drift, got.p99_ns),
            format!(
                "fallback={} reoffload={}",
                got.time_to_fallback_ms, got.time_to_reoffload_ms
            ),
            format!("hw_path_drops={}", got.hw_path_drops),
        ];
        fork_check::report(head, reg)
    }

    /// Acceptance (a): a dead VF migrates its flows onto the software path
    /// — transactions keep completing, the hardware path's loss is bounded
    /// to the in-flight frames, and once the VF returns the express lane
    /// re-forms identically with zero bookkeeping drift. Release-only
    /// (`--ignored`, run by CI): each cell simulates >6 s of rack time.
    #[test]
    #[ignore = "slow: run with cargo test --release -p fastrak-bench -- --ignored"]
    fn vf_failure_migrates_to_software_and_recovers() {
        let ((base, _), (got, _)) = base_and(Scenario::VfFailure);
        assert!(got.hw_down_demotes >= 1, "hw-path-down report must demote");
        assert!(
            got.hw_path_drops > 0,
            "the dead VF must eat in-flight frames"
        );
        assert!(
            got.time_to_fallback_ms >= 0.0,
            "fallback must be observed: {}",
            got.time_to_fallback_ms
        );
        assert!(
            got.time_to_reoffload_ms > got.time_to_fallback_ms,
            "re-offload ({}) must follow fallback ({})",
            got.time_to_reoffload_ms,
            got.time_to_fallback_ms
        );
        assert_eq!(
            got.conv.offloaded, base.conv.offloaded,
            "must re-form the same lane"
        );
        assert_eq!(got.conv.drift, 0, "zero bookkeeping drift after recovery");
        assert!(
            got.p99_ns < base.p99_ns * 10,
            "victim p99 must recover: {} vs baseline {}",
            got.p99_ns,
            base.p99_ns
        );
    }

    /// Acceptance (b): a ToR reboot wipes the rule table; the controller
    /// detects the boot-generation bump, re-baselines, and re-converges to
    /// the fault-free offloaded set with `entries_used` drift exactly zero.
    #[test]
    #[ignore = "slow: run with cargo test --release -p fastrak-bench -- --ignored"]
    fn tor_reboot_reconverges_with_zero_drift() {
        let ((base, _), (got, _)) = base_and(Scenario::TorReboot);
        assert!(got.reboots_seen >= 1, "generation bump must be detected");
        assert!(got.frames_blocked > 0, "dark ports must blackhole frames");
        assert_eq!(got.conv.offloaded, base.conv.offloaded, "must re-converge");
        assert_eq!(
            got.conv.drift, 0,
            "zero bookkeeping drift after re-baseline"
        );
    }

    /// Acceptance (c): the controller-restart differential — a crashed-and-
    /// rebuilt controller must end in the same state as one that never
    /// crashed (offloaded set, bookkeeping, and policy walk all rebuilt
    /// from the hardware rule dump).
    #[test]
    #[ignore = "slow: run with cargo test --release -p fastrak-bench -- --ignored"]
    fn controller_restart_differential_matches_never_crashed_run() {
        let ((base, _), (got, _)) = base_and(Scenario::CtrlRestart);
        assert_eq!(got.restarts, 1, "exactly one scripted restart");
        assert_eq!(
            got.conv.offloaded, base.conv.offloaded,
            "rebuilt state must match the never-crashed controller"
        );
        assert_eq!(got.conv.drift, 0, "rebuilt bookkeeping must match hardware");
    }

    /// Same chaos script → bit-identical run, down to the full telemetry
    /// registry (the richest scenario: reboot detection, probes, and frame
    /// blackholing all active).
    #[test]
    #[ignore = "slow: run with cargo test --release -p fastrak-bench -- --ignored"]
    fn tor_reboot_cell_replays_bit_identically() {
        let run = || {
            let (_, (got, reg)) = base_and(Scenario::TorReboot);
            observed(&got, &reg)
        };
        assert_eq!(run(), run());
    }

    /// Forking is invisible: every scenario, forked from the shared rack at
    /// [`fork_at`], reports exactly what the same cell built and run from
    /// scratch reports — every row input and every exported metric outside
    /// host time.
    #[test]
    #[ignore = "slow: run with cargo test --release -p fastrak-bench -- --ignored"]
    fn forked_cells_equal_cells_built_from_scratch() {
        let scenarios = [
            Scenario::Baseline,
            Scenario::TorReboot,
            Scenario::VfFailure,
            Scenario::LinkFlap,
            Scenario::CtrlRestart,
        ];
        let forked = run_policy(
            FastPathPolicy::Unrestricted,
            &scenarios,
            TEST_HORIZON,
            |_, got, reg| observed(&got, &reg),
        );
        let scratch = cells::map(&scenarios, |&s| {
            run_one(s, FastPathPolicy::Unrestricted, TEST_HORIZON)
        });
        let differ: Vec<String> = scenarios
            .iter()
            .zip(forked.iter().zip(&scratch))
            .filter_map(|(s, (f, r))| {
                fork_check::first_difference(f, r).map(|d| format!("{}: {d}", s.label()))
            })
            .collect();
        assert!(differ.is_empty(), "{}", differ.join("\n"));
    }
}
