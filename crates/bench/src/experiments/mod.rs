//! One module per regenerated table/figure of the paper's evaluation.
//! See DESIGN.md's experiment index for the mapping.

pub mod ablations;
pub mod chaos_matrix;
pub mod fault_matrix;
pub mod fig12;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod incast_matrix;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod tenant_matrix;

use crate::report::Artifact;
use fastrak_telemetry::{export, Registry};

/// Every experiment by id, in paper order.
pub fn all_ids() -> &'static [&'static str] {
    &[
        "fig3",
        "fig4",
        "fig5",
        "table1",
        "table2",
        "table3",
        "table4",
        "fig12",
        "ablations",
        "fault_matrix",
        "tenant_matrix",
        "chaos_matrix",
        "incast_matrix",
    ]
}

/// Run one experiment by id.
pub fn run(id: &str, full: bool) -> Option<Vec<Artifact>> {
    match id {
        "fig3" => Some(fig3::run(full)),
        "fig4" => Some(fig4::run(full)),
        "fig5" => Some(fig5::run(full)),
        "table1" => Some(table1::run(full)),
        "table2" => Some(table2::run(full)),
        "table3" => Some(table3::run(full)),
        "table4" => Some(table4::run(full)),
        "fig12" => Some(fig12::run(full)),
        "ablations" => Some(ablations::run(full)),
        "fault_matrix" => Some(fault_matrix::run(full)),
        "tenant_matrix" => Some(tenant_matrix::run(full)),
        "chaos_matrix" => Some(chaos_matrix::run(full)),
        "incast_matrix" => Some(incast_matrix::run(full)),
        _ => None,
    }
}

/// An experiment that also hands back the registry of its exported cell.
type RunWithExport = fn(bool) -> (Vec<Artifact>, Registry);

/// Write one `--telemetry` export file into `dir`.
pub fn write_export(dir: &std::path::Path, name: &str, content: String) {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("  wrote {}", path.display());
}

/// Run one experiment by id and drop its telemetry artifacts into `dir`
/// (`experiments --telemetry <dir>`). Exports per experiment:
///
/// * `fault_matrix` — `fault_matrix.metrics.jsonl` + `fault_matrix.prom`,
///   the forced-failure run's full registry snapshot;
/// * `tenant_matrix` — `tenant_matrix.metrics.jsonl` + `tenant_matrix.prom`,
///   the unrestricted-policy + churner cell's registry (per-tenant
///   `ctrl.tenant.*` metrics included);
/// * `chaos_matrix` — `chaos_matrix.metrics.jsonl` + `chaos_matrix.prom`,
///   the ToR-reboot scenario's registry (`ctrl.chaos.*` detection and
///   `sim.chaos.*` injection counters included);
/// * `incast_matrix` — `incast_matrix.metrics.jsonl` + `incast_matrix.prom`,
///   the DCTCP + migration + widest-fan-out cell's registry (per-server
///   `tcp.*` transport counters and fabric ECN mark counters included);
/// * `fig12` — `fig12.trace.json`, a Chrome trace-event file of the flow
///   migration (load in Perfetto / `chrome://tracing`);
/// * everything else runs unchanged (telemetry stays zero-config).
pub fn run_with_telemetry(id: &str, full: bool, dir: &std::path::Path) -> Option<Vec<Artifact>> {
    let write = |name: &str, content: String| write_export(dir, name, content);
    let matrix: Option<RunWithExport> = match id {
        "fault_matrix" => Some(fault_matrix::run_with_export),
        "tenant_matrix" => Some(tenant_matrix::run_with_export),
        "chaos_matrix" => Some(chaos_matrix::run_with_export),
        "incast_matrix" => Some(incast_matrix::run_with_export),
        _ => None,
    };
    if let Some(run_with_export) = matrix {
        let (arts, reg) = run_with_export(full);
        write(&format!("{id}.metrics.jsonl"), export::metrics_jsonl(&reg));
        write(&format!("{id}.prom"), export::prometheus_text(&reg));
        return Some(arts);
    }
    if id == "fig12" {
        let (artifact, _, trace) = fig12::run_traced(full);
        write("fig12.trace.json", trace);
        return Some(vec![artifact]);
    }
    run(id, full)
}

/// Test support for the grids that fork their cells (`chaos_matrix`,
/// `incast_matrix`): compare a forked cell with the same cell built from
/// scratch.
#[cfg(test)]
mod fork_check {
    use fastrak_telemetry::{export, Registry};

    /// A cell's report: `head` (its row inputs), then every exported metric
    /// except the one host-time series, the decision engine's own
    /// wall-clock compute time (`ctrl.de.epoch_ns`).
    pub fn report(head: Vec<String>, reg: &Registry) -> Vec<String> {
        let metrics = export::metrics_jsonl(reg);
        let metrics = metrics
            .lines()
            .filter(|l| !l.contains("ctrl.de.epoch_ns"))
            .map(String::from);
        head.into_iter().chain(metrics).collect()
    }

    /// Where a forked cell's report first departs from the same cell's
    /// report built from scratch, or `None` if they are equal.
    pub fn first_difference(forked: &[String], scratch: &[String]) -> Option<String> {
        let n = forked.len().max(scratch.len());
        (0..n).find_map(|i| {
            let (f, s) = (forked.get(i), scratch.get(i));
            (f != s).then(|| format!("line {i}: forked {f:?}, from scratch {s:?}"))
        })
    }
}
