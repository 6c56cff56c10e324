//! Controller convergence under control-plane faults (DESIGN.md failure
//! semantics) — an extension beyond the paper's published evaluation.
//!
//! The paper's §5.2 controller assumes a reliable OpenFlow channel; this
//! experiment measures what the hardened control plane (xid-tracked install
//! transactions, timeout + bounded-backoff retry, periodic reconciliation)
//! buys when that assumption is violated. Two sweeps:
//!
//! * **Loss matrix**: 1/5/10% seeded control-message loss on every link —
//!   does the controller still converge to the fault-free offloaded set,
//!   and does its bookkeeping (`entries_used`) match the ToR's installed
//!   rule count at the end?
//! * **Forced install failures**: a scripted window in which every ToR
//!   rule install returns an Error — the controller must roll back, back
//!   off, and recover once the window lifts.

use fastrak::{attach, DeConfig, FasTrak, FasTrakConfig, TorController};
use fastrak_net::event::ctl_fault_layer;
use fastrak_sim::fault::{FaultConfig, LinkFaults};
use fastrak_sim::time::SimTime;
use fastrak_telemetry::Registry;
use fastrak_workload::Testbed;

use crate::experiments::{Cx, Decl, World};
use crate::report::{Artifact, ArtifactSpec, Col};
use crate::scenarios::scp_rack;

/// Where a managed rack's controller ended up: what both fault matrices
/// compare against their fault-free cell.
pub(crate) struct Converged {
    /// Sorted debug strings of the offloaded aggregates.
    pub offloaded: Vec<String>,
    /// `entries_used` minus the ToR's actual installed rule count — the
    /// bookkeeping-drift invariant, which must be zero after recovery.
    pub drift: i64,
}

impl Converged {
    /// Read the rack `bed` that `ft` manages.
    pub(crate) fn read(bed: &Testbed, ft: &FasTrak) -> Converged {
        let mut offloaded: Vec<String> = (ft.offloaded(bed).iter())
            .map(|a| format!("{a:?}"))
            .collect();
        offloaded.sort();
        let tc = bed.kernel.node::<TorController>(ft.tor_ctrl);
        let drift = tc.entries_used as i64 - bed.tor().acl_rules() as i64;
        Converged { offloaded, drift }
    }

    /// The row both fault matrices report for their fault-free cell `base`:
    /// how many aggregates it offloaded.
    pub(crate) fn base_row<O: AsRef<Converged> + 'static>(art: &mut ArtifactSpec<O>, base: &str) {
        art.row("offloaded aggregates", base, None, "rules", [base], |c| {
            c[0].as_ref().offloaded.len() as f64
        });
    }

    /// The two rows both fault matrices report for the cell `label`: does
    /// it match the fault-free cell `base`'s offloaded set, and its drift.
    pub(crate) fn rows<O: AsRef<Converged> + 'static>(
        art: &mut ArtifactSpec<O>,
        label: &str,
        base: &str,
    ) {
        art.row(
            "matches fault-free offloaded set",
            label,
            Some(1.0),
            "bool",
            [label, base],
            |c| (c[0].as_ref().offloaded == c[1].as_ref().offloaded) as u64 as f64,
        );
        art.row(
            "entries_used - installed ToR rules",
            label,
            Some(0.0),
            "rules",
            [label],
            |c| c[0].as_ref().drift as f64,
        );
    }
}

/// End-of-run observables for one configuration.
pub(crate) struct Outcome {
    conv: Converged,
    retries: u64,
    timeouts: u64,
    failures: u64,
    suspensions: u64,
    dropped: u64,
    forced: u64,
}

impl AsRef<Converged> for Outcome {
    fn as_ref(&self) -> &Converged {
        &self.conv
    }
}

/// Run one configuration and read its outcome, with the end-of-run
/// telemetry snapshot (kernel + hosts + ToR + controller counters) the
/// outcome's counters were read from.
fn run_one(faults: Option<FaultConfig>, horizon: SimTime) -> (Outcome, Registry) {
    let (mut bed, _) = scp_rack();
    // Cap the offload count so the decision problem is well-separated: the
    // two memcached aggregates dominate the S-score by orders of magnitude.
    // Without the cap, borderline aggregates (the client-side DstApps) come
    // and go with measurement noise, and control loss perturbs measurements
    // — which would make "same offloaded set" test DE tie-breaking rather
    // than the control-plane recovery machinery this experiment targets.
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            de: DeConfig {
                max_offloaded: Some(2),
                ..DeConfig::paper()
            },
            ..Default::default()
        },
    );
    if let Some(cfg) = faults {
        bed.kernel.set_fault_layer(ctl_fault_layer(cfg));
    }
    ft.start(&mut bed);
    bed.start();
    bed.run_until(horizon);

    let conv = Converged::read(&bed, &ft);
    // Snapshot every layer into the telemetry registry; the controller's
    // fault/recovery counters live there (single source of truth), and the
    // same registry feeds the exported artifacts under `--telemetry`.
    bed.publish_telemetry();
    let reg = std::mem::take(&mut bed.kernel.ctx.telemetry.registry);
    let ctr = |name: &str| reg.counter_by_name(name).unwrap_or(0);
    let got = Outcome {
        conv,
        retries: ctr("ctrl.install_retries"),
        timeouts: ctr("ctrl.install_timeouts"),
        failures: ctr("ctrl.install_failures"),
        suspensions: ctr("ctrl.hw_suspensions"),
        dropped: ctr("sim.fault.dropped"),
        forced: ctr("sim.fault.forced_install_failures"),
    };
    (got, reg)
}

/// Five worlds: fault-free, three control-loss rates, one scripted
/// install-failure window. `--telemetry` exports the forced-failure run:
/// the richest snapshot (fault-plane, controller, host, and ToR counters
/// all non-trivial).
pub(crate) fn declare(_full: bool) -> Decl<Option<FaultConfig>, Outcome> {
    let (clean, forced) = ("loss=0% (baseline)", "fail window 0.4s-1.7s");
    let mut worlds = vec![World::one(clean, None)];
    let mut a = ArtifactSpec::new(
        "fault-matrix-loss",
        "Controller convergence vs control-message loss",
        "with install retries and reconciliation the controller converges to the fault-free offloaded set and keeps entries_used == installed ToR rules despite seeded control loss",
    );
    Converged::base_row(&mut a, clean);
    let loss_counts = [
        Col::new("install retries", "count", |o: &Outcome| o.retries as f64),
        Col::new("install timeouts", "count", |o| o.timeouts as f64),
        Col::new("ctl messages dropped", "count", |o| o.dropped as f64),
    ];
    for loss_pct in [1u32, 5, 10] {
        let label = format!("loss={loss_pct}%");
        Converged::rows(&mut a, &label, clean);
        for col in &loss_counts {
            a.push(col.at(&label));
        }
        let faults = FaultConfig {
            seed: 0xFA57 + loss_pct as u64,
            default_link: LinkFaults::loss(loss_pct as f64 / 100.0),
            ..Default::default()
        };
        worlds.push(World::one(label, Some(faults)));
    }
    a.note("'paper' column is the convergence target (1 = same offloaded set, 0 drift), not a published number — the paper assumes a reliable control channel");

    let mut b = ArtifactSpec::new(
        "fault-matrix-forced",
        "Recovery from a scripted rule-install failure window (0.4s-1.7s)",
        "every install inside the window fails; the controller rolls each batch back, suspends the hardware path after repeated failures, and re-converges once the window lifts",
    );
    Converged::rows(&mut b, forced, clean);
    for col in [
        Col::new("forced install failures", "count", |o: &Outcome| {
            o.forced as f64
        }),
        Col::new("install errors observed", "count", |o| o.failures as f64),
        Col::new("hardware-path suspensions", "count", |o| {
            o.suspensions as f64
        }),
    ] {
        b.push(col.at(forced));
    }
    let faults = FaultConfig {
        seed: 0xFA11,
        install_fail_windows: vec![(SimTime::from_millis(400), SimTime::from_millis(1_700))],
        ..Default::default()
    };
    worlds.push(World::one(forced, Some(faults)));
    Decl::new(worlds, forced, vec![a, b])
}

/// Regenerate the fault-matrix report.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let horizon = if cx.full {
        SimTime::from_millis(8_300)
    } else {
        SimTime::from_millis(6_300)
    };
    declare(cx.full).run(cx, |faults, cells| {
        let (got, reg) = run_one(faults.clone(), horizon);
        if let Some(cx) = cells[0].export {
            cx.keep(reg);
        }
        vec![got]
    })
}
