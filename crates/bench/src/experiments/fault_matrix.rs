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

use fastrak::{attach, DeConfig, FasTrakConfig, TorController};
use fastrak_net::event::ctl_fault_layer;
use fastrak_sim::fault::{FaultConfig, LinkFaults};
use fastrak_sim::time::SimTime;
use fastrak_telemetry::Registry;

use crate::cells;
use crate::experiments::Cx;
use crate::report::{Artifact, Row};
use crate::scenarios::scp_rack;

/// End-of-run observables for one configuration.
struct Outcome {
    /// Sorted debug strings of the offloaded aggregates.
    offloaded: Vec<String>,
    /// `entries_used` minus the ToR's actual installed rule count.
    bookkeeping_drift: i64,
    retries: u64,
    timeouts: u64,
    failures: u64,
    suspensions: u64,
    dropped: u64,
    forced: u64,
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

    let mut offloaded: Vec<String> = ft
        .offloaded(&bed)
        .iter()
        .map(|a| format!("{a:?}"))
        .collect();
    offloaded.sort();
    // Snapshot every layer into the telemetry registry; the controller's
    // fault/recovery counters live there (single source of truth), and the
    // same registry feeds the exported artifacts under `--telemetry`.
    bed.publish_telemetry();
    let tc = bed.kernel.node::<TorController>(ft.tor_ctrl);
    let drift = tc.entries_used as i64 - bed.tor().acl_rules() as i64;
    let reg = std::mem::take(&mut bed.kernel.ctx.telemetry.registry);
    let ctr = |name: &str| reg.counter_by_name(name).unwrap_or(0);
    let got = Outcome {
        offloaded,
        bookkeeping_drift: drift,
        retries: ctr("ctrl.install_retries"),
        timeouts: ctr("ctrl.install_timeouts"),
        failures: ctr("ctrl.install_failures"),
        suspensions: ctr("ctrl.hw_suspensions"),
        dropped: ctr("sim.fault.dropped"),
        forced: ctr("sim.fault.forced_install_failures"),
    };
    (got, reg)
}

/// Regenerate the fault-matrix report. `--telemetry` exports the
/// forced-failure run: the richest snapshot (fault-plane, controller, host,
/// and ToR counters all non-trivial).
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let horizon = if cx.full {
        SimTime::from_millis(8_300)
    } else {
        SimTime::from_millis(6_300)
    };
    // Five worlds: fault-free, three control-loss rates, one scripted
    // install-failure window.
    let loss_pcts = [1u32, 5, 10];
    let mut grid = vec![None];
    grid.extend(loss_pcts.map(|loss_pct| {
        Some(FaultConfig {
            seed: 0xFA57 + loss_pct as u64,
            default_link: LinkFaults::loss(loss_pct as f64 / 100.0),
            ..Default::default()
        })
    }));
    grid.push(Some(FaultConfig {
        seed: 0xFA11,
        install_fail_windows: vec![(SimTime::from_millis(400), SimTime::from_millis(1_700))],
        ..Default::default()
    }));
    // Only the exported cell's registry outlives its cell.
    let mut outcomes = cells::map(&grid, |faults| {
        let (got, reg) = run_one(faults.clone(), horizon);
        if faults
            .as_ref()
            .is_some_and(|f| !f.install_fail_windows.is_empty())
        {
            cx.keep(reg);
        }
        got
    })
    .into_iter();
    let mut next = || outcomes.next().expect("one world per configuration");
    let clean = next();

    let mut a = Artifact::new(
        "fault-matrix-loss",
        "Controller convergence vs control-message loss",
        "with install retries and reconciliation the controller converges to the fault-free offloaded set and keeps entries_used == installed ToR rules despite seeded control loss",
    );
    a.push(Row::new(
        "offloaded aggregates",
        "loss=0% (baseline)",
        None,
        clean.offloaded.len() as f64,
        "rules",
    ));
    for loss_pct in loss_pcts {
        let got = next();
        let cfg = format!("loss={loss_pct}%");
        a.push(Row::new(
            "matches fault-free offloaded set",
            cfg.clone(),
            Some(1.0),
            if got.offloaded == clean.offloaded {
                1.0
            } else {
                0.0
            },
            "bool",
        ));
        a.push(Row::new(
            "entries_used - installed ToR rules",
            cfg.clone(),
            Some(0.0),
            got.bookkeeping_drift as f64,
            "rules",
        ));
        a.push(Row::new(
            "install retries",
            cfg.clone(),
            None,
            got.retries as f64,
            "count",
        ));
        a.push(Row::new(
            "install timeouts",
            cfg.clone(),
            None,
            got.timeouts as f64,
            "count",
        ));
        a.push(Row::new(
            "ctl messages dropped",
            cfg,
            None,
            got.dropped as f64,
            "count",
        ));
    }
    a.note("'paper' column is the convergence target (1 = same offloaded set, 0 drift), not a published number — the paper assumes a reliable control channel");

    let mut b = Artifact::new(
        "fault-matrix-forced",
        "Recovery from a scripted rule-install failure window (0.4s-1.7s)",
        "every install inside the window fails; the controller rolls each batch back, suspends the hardware path after repeated failures, and re-converges once the window lifts",
    );
    let got = next();
    b.push(Row::new(
        "matches fault-free offloaded set",
        "fail window 0.4s-1.7s",
        Some(1.0),
        if got.offloaded == clean.offloaded {
            1.0
        } else {
            0.0
        },
        "bool",
    ));
    b.push(Row::new(
        "entries_used - installed ToR rules",
        "fail window 0.4s-1.7s",
        Some(0.0),
        got.bookkeeping_drift as f64,
        "rules",
    ));
    b.push(Row::new(
        "forced install failures",
        "fail window 0.4s-1.7s",
        None,
        got.forced as f64,
        "count",
    ));
    b.push(Row::new(
        "install errors observed",
        "fail window 0.4s-1.7s",
        None,
        got.failures as f64,
        "count",
    ));
    b.push(Row::new(
        "hardware-path suspensions",
        "fail window 0.4s-1.7s",
        None,
        got.suspensions as f64,
        "count",
    ));
    vec![a, b]
}
