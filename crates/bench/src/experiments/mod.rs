//! One module per regenerated table/figure of the paper's evaluation.
//! See DESIGN.md's experiment index for the mapping.
//!
//! Every experiment is data plus one cell builder. Its [`Decl`] names
//! the worlds it simulates, in run order, and the cells read from each:
//! usually one, more where a world is read at more than one horizon
//! (`ablations`) or forked into several cells (`chaos_matrix`,
//! `incast_matrix`). Every cell has a label, and the declaration names the
//! one cell `--telemetry` exports. It also declares its artifacts (id,
//! title, shape, notes) and their rows: metric, unit, paper value, the
//! cells the row reads by label and how its value is read from their
//! outcomes ([`crate::report::RowSpec`]). [`Decl::run`], the one harness
//! function, runs the worlds through [`crate::cells::map`], hands the
//! export handle to the named cell only and builds the artifacts from the
//! outcomes by label. A cell returns its outcome, never its world; only the
//! exported cell keeps its registry, and the caller writes the files
//! ([`Exports::write`]). Each experiment is `run(&Cx)`, listed once in
//! [`EXPERIMENTS`].

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

use crate::cells;
use crate::report::{Artifact, ArtifactSpec};

/// One experiment: its id and its one entry point.
pub struct Experiment {
    /// The id the `experiments` binary takes, e.g. `fig3` or `table4`.
    pub id: &'static str,
    /// Regenerate the experiment's artifacts.
    pub run: fn(&Cx) -> Vec<Artifact>,
}

/// An experiment's id is the name of its module. Each module has `run`
/// and `declare(full)`, whose declaration the tests check without running
/// a world.
macro_rules! experiments {
    ($($module:ident),*) => {
        /// Every experiment, in paper order.
        pub const EXPERIMENTS: &[Experiment] =
            &[$(Experiment { id: stringify!($module), run: $module::run }),*];

        /// Each experiment's declaration check, by id, for a quick or full grid.
        #[cfg(test)]
        const CHECKS: &[(&str, fn(bool) -> Result<(), String>)] =
            &[$((stringify!($module), |full| $module::declare(full).check())),*];
    };
}

experiments![
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

/// One world an experiment simulates, and the cells read from it: each a
/// label and what its builder reads for it (a horizon, a forked scenario;
/// `()` for a world that is one cell).
pub(crate) struct World<P, R = ()> {
    pub params: P,
    pub cells: Vec<(String, R)>,
}

impl<P> World<P> {
    /// A world that is one cell.
    pub(crate) fn one(label: impl Into<String>, params: P) -> World<P> {
        World {
            params,
            cells: vec![(label.into(), ())],
        }
    }
}

/// An experiment as data: its worlds in run order, the label of the cell it
/// exports, and its artifacts.
pub(crate) struct Decl<P, O, R = ()> {
    pub worlds: Vec<World<P, R>>,
    pub export: String,
    pub artifacts: Vec<ArtifactSpec<O>>,
}

/// A cell as its world's builder sees it.
pub(crate) struct Cell<'a, R> {
    /// What the builder reads for this cell.
    pub read: &'a R,
    /// The export handle: `Some` in the exported cell under `--telemetry`
    /// only.
    pub export: Option<&'a Cx>,
}

impl<P: Sync, O: Send, R: Sync> Decl<P, O, R> {
    pub(crate) fn new(
        worlds: Vec<World<P, R>>,
        export: impl Into<String>,
        artifacts: impl Into<Vec<ArtifactSpec<O>>>,
    ) -> Self {
        Decl {
            worlds,
            export: export.into(),
            artifacts: artifacts.into(),
        }
    }

    /// Every cell's label, in run order.
    fn labels(&self) -> impl Iterator<Item = &str> {
        (self.worlds.iter()).flat_map(|w| w.cells.iter().map(|(label, _)| label.as_str()))
    }

    /// The declaration holds: labels are unique, the exported label names
    /// a cell, and every label a row reads is declared.
    pub(crate) fn check(&self) -> Result<(), String> {
        let labels: Vec<&str> = self.labels().collect();
        if let Some(i) = (1..labels.len()).find(|&i| labels[..i].contains(&labels[i])) {
            return Err(format!("cell '{}' is declared twice", labels[i]));
        }
        if !labels.contains(&self.export.as_str()) {
            return Err(format!(
                "the exported cell '{}' is not declared",
                self.export
            ));
        }
        for art in &self.artifacts {
            for read in art.rows.iter().flat_map(|r| &r.reads) {
                if !labels.contains(&read.as_str()) {
                    return Err(format!("{} reads undeclared cell '{read}'", art.head.id));
                }
            }
        }
        Ok(())
    }

    /// Run every world through [`cells::map`]: `build` simulates one and
    /// returns one outcome per cell, in the world's cell order. Then build
    /// the artifacts from the outcomes by label.
    pub(crate) fn run(
        &self,
        cx: &Cx,
        build: impl Fn(&P, &[Cell<'_, R>]) -> Vec<O> + Sync,
    ) -> Vec<Artifact> {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
        let export = &self.export;
        let outcomes = cells::map(&self.worlds, |world| {
            let cells: Vec<Cell<'_, R>> = (world.cells.iter())
                .map(|(label, read)| Cell {
                    read,
                    export: (cx.telemetry && label == export).then_some(cx),
                })
                .collect();
            let got = build(&world.params, &cells);
            assert_eq!(got.len(), cells.len(), "one outcome per cell");
            got
        });
        let by_label: Vec<(&str, O)> = self.labels().zip(outcomes.into_iter().flatten()).collect();
        (self.artifacts.iter())
            .map(|art| art.render(&by_label))
            .collect()
    }
}

/// What one run of an experiment is asked for, and what it hands back
/// beside its artifacts. Cells may run on any worker, so they reach it
/// through `&Cx`.
pub struct Cx {
    /// Paper-duration runs instead of the time-scaled quick mode.
    pub(crate) full: bool,
    /// Export the cell the experiment names (`--telemetry`).
    pub(crate) telemetry: bool,
    exports: Mutex<Exports>,
}

/// What a run handed back.
#[derive(Default)]
pub struct Exports {
    /// The registry of the cell the experiment exports; only under
    /// telemetry.
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

    /// Through the exported cell's handle, once the cell has read its
    /// results: publish `bed` (with the controller `ft` that manages it)
    /// and keep its registry.
    pub(crate) fn publish(&self, bed: &mut Testbed, ft: Option<&FasTrak>) {
        bed.publish_telemetry();
        if let Some(ft) = ft {
            ft.publish_telemetry(bed);
        }
        self.keep(std::mem::take(&mut bed.kernel.ctx.telemetry.registry));
    }

    /// Keep `registry`, published by the exported cell, as the run's
    /// export. A run exports one cell: a second registry panics rather than
    /// replace the first.
    pub(crate) fn keep(&self, registry: Registry) {
        let second = self.exports().registry.replace(registry).is_some();
        assert!(!second, "a second cell kept its registry");
    }

    /// Keep the exported cell's Chrome trace.
    pub(crate) fn keep_trace(&self, chrome_trace: String) {
        self.exports().chrome_trace = Some(chrome_trace);
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
    use crate::report::RowSpec;

    /// Every experiment's declaration holds, in its quick and its full
    /// grid, without running a world.
    #[test]
    fn every_declaration_holds_in_quick_and_full_grids() {
        assert_eq!(CHECKS.len(), EXPERIMENTS.len());
        for (id, check) in CHECKS {
            for full in [false, true] {
                if let Err(e) = check(full) {
                    panic!("{id} (full: {full}): {e}");
                }
            }
        }
    }

    #[test]
    fn a_declaration_fails_its_check_on_a_bad_label() {
        let decl = |labels: &[&str], export: &str, reads: &str| {
            let mut art = ArtifactSpec::new("a", "t", "s");
            art.push(RowSpec::new("m", "c", None, "u", [reads], |o: &[&u8]| {
                f64::from(*o[0])
            }));
            Decl {
                worlds: labels.iter().map(|&l| World::one(l, ())).collect(),
                export: export.into(),
                artifacts: vec![art],
            }
        };
        assert_eq!(decl(&["x", "y"], "y", "x").check(), Ok(()));
        let err = |labels: &[&str], export, reads| decl(labels, export, reads).check().unwrap_err();
        assert_eq!(err(&["x", "x"], "x", "x"), "cell 'x' is declared twice");
        assert_eq!(
            err(&["x"], "y", "x"),
            "the exported cell 'y' is not declared"
        );
        assert_eq!(err(&["x"], "x", "z"), "a reads undeclared cell 'z'");
    }

    #[test]
    #[should_panic(expected = "a second cell kept its registry")]
    fn a_run_keeps_one_registry() {
        let cx = Cx::new(false, true);
        cx.keep(Registry::default());
        cx.keep(Registry::default());
    }
}
