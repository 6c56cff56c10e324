//! One module per regenerated table/figure of the paper's evaluation.
//! See DESIGN.md's experiment index for the mapping.
//!
//! Every experiment has one shape: `run(&Cx) -> Vec<Artifact>`, listed once
//! in [`EXPERIMENTS`]. What all of them share belongs to the harness: the
//! fan-out over worlds ([`crate::cells`]), and the `--telemetry` export.
//! Each experiment names one cell whose world it exports; it hands that
//! world to `Cx::publish` (or the registry it already read its rows from to
//! `Cx::keep`), and the caller writes the files ([`Exports::write`]). Every
//! other cell drops its registry before it returns.

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

use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use fastrak::FasTrak;
use fastrak_telemetry::{export, Registry};
use fastrak_workload::Testbed;

use crate::report::Artifact;

/// One experiment: its id and its one entry point.
pub struct Experiment {
    /// The id the `experiments` binary takes, e.g. `fig3` or `table4`.
    pub id: &'static str,
    /// Regenerate the experiment's artifacts.
    pub run: fn(&Cx) -> Vec<Artifact>,
}

/// An experiment's id is the name of its module.
macro_rules! experiments {
    ($($module:ident),*) => {
        &[$(Experiment { id: stringify!($module), run: $module::run }),*]
    };
}

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = experiments![
    fig3,
    fig4,
    fig5,
    table1,
    table2,
    table3,
    table4,
    fig12,
    ablations,
    fault_matrix,
    tenant_matrix,
    chaos_matrix,
    incast_matrix
];

/// The experiment with this id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Run one experiment by id, without exports.
pub fn run(id: &str, full: bool) -> Option<Vec<Artifact>> {
    find(id).map(|e| (e.run)(&Cx::new(full, false)))
}

/// What one run of an experiment is asked for, and what it hands back
/// beside its artifacts. Cells may run on any worker, so they reach it
/// through `&Cx`.
pub struct Cx {
    /// Paper-duration runs instead of the time-scaled quick mode.
    pub(crate) full: bool,
    /// Export the cell the experiment names (`--telemetry`). When off,
    /// nothing is published.
    pub(crate) telemetry: bool,
    exports: Mutex<Exports>,
}

/// What a run handed back.
#[derive(Default)]
pub struct Exports {
    /// The registry of the cell the experiment names; only under telemetry.
    pub registry: Option<Registry>,
    /// A Chrome trace-event file of that cell (Fig. 12's flow migration;
    /// load it in Perfetto); only under telemetry.
    pub chrome_trace: Option<String>,
    /// A (seconds, value) series for `--csv` (Fig. 12's receiver-side
    /// sequence trace).
    pub series: Option<Vec<(f64, u64)>>,
}

impl Cx {
    /// A run in quick or `full` mode, exporting its named cell if `telemetry`.
    pub fn new(full: bool, telemetry: bool) -> Cx {
        Cx {
            full,
            telemetry,
            exports: Mutex::default(),
        }
    }

    fn exports(&self) -> MutexGuard<'_, Exports> {
        self.exports
            .lock()
            .expect("no cell panics while holding it")
    }

    /// In the cell the experiment names, once the cell has read its
    /// results: publish `bed` (with the controller `ft` that manages it)
    /// and keep its registry. Does nothing when telemetry is off.
    pub(crate) fn publish(&self, bed: &mut Testbed, ft: Option<&FasTrak>) {
        if !self.telemetry {
            return;
        }
        bed.publish_telemetry();
        if let Some(ft) = ft {
            ft.publish_telemetry(bed);
        }
        self.keep(std::mem::take(&mut bed.kernel.ctx.telemetry.registry));
    }

    /// Keep `registry`, published by the cell the experiment names, as the
    /// run's export. Dropped when telemetry is off. A run exports one cell:
    /// a second registry panics rather than replace the first.
    pub(crate) fn keep(&self, registry: Registry) {
        if self.telemetry {
            let second = self.exports().registry.replace(registry).is_some();
            assert!(!second, "a second cell kept its registry");
        }
    }

    /// Keep the named cell's Chrome trace. Dropped when telemetry is off.
    pub(crate) fn keep_trace(&self, chrome_trace: String) {
        if self.telemetry {
            self.exports().chrome_trace = Some(chrome_trace);
        }
    }

    /// Hand back a `--csv` series.
    pub(crate) fn keep_series(&self, series: Vec<(f64, u64)>) {
        self.exports().series = Some(series);
    }

    /// What the run handed back.
    pub fn into_exports(self) -> Exports {
        self.exports
            .into_inner()
            .expect("no cell panics while holding it")
    }
}

impl Exports {
    /// Write experiment `id`'s telemetry into `dir`: `<id>.metrics.jsonl`
    /// and `<id>.prom` from the registry, and `<id>.trace.json` when there
    /// is a Chrome trace.
    pub fn write(&self, dir: &Path, id: &str) {
        let reg = (self.registry.as_ref()).expect("every experiment names a cell to export");
        write_file(
            dir,
            &format!("{id}.metrics.jsonl"),
            &export::metrics_jsonl(reg),
        );
        write_file(dir, &format!("{id}.prom"), &export::prometheus_text(reg));
        if let Some(trace) = &self.chrome_trace {
            write_file(dir, &format!("{id}.trace.json"), trace);
        }
    }
}

fn write_file(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("  wrote {}", path.display());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "a second cell kept its registry")]
    fn a_run_keeps_one_registry() {
        let cx = Cx::new(false, true);
        cx.keep(Registry::default());
        cx.keep(Registry::default());
    }
}
