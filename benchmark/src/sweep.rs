//! `paper_sweep`: the experiment harness itself, driven the way users drive
//! it — `fastrak_bench::experiments::run(id, false)`, serially — plus the
//! shape error of the regenerated artifacts against the paper's values.

use std::time::Instant;

use fastrak_bench::experiments;
use fastrak_bench::report::Artifact;

use std::hash::Hasher;

use fastrak_sim::FxHasher;

use crate::inputs::Size;
use crate::metrics::digest_field;
use crate::stats::median;
use crate::trace::Tracer;

/// The experiments one repetition regenerates, in order, each with the
/// ledger metric its host time is reported as. `table3`,
/// `fault_matrix` (10 s together) and everything slower are left out so
/// three repetitions fit the benchmark's time cap; `table3`'s racks are
/// covered by `rack_*`, `fault_matrix`'s install-failure handling by
/// `chaos_matrix`.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("table4", "bench.exp.table4.wall_s"),
    ("fig12", "bench.exp.fig12.wall_s"),
    ("chaos_matrix", "bench.exp.chaos_matrix.wall_s"),
    ("incast_matrix", "bench.exp.incast_matrix.wall_s"),
];

/// What one sweep repetition produced.
#[derive(Default)]
pub struct SweepOutcome {
    pub wall_s: f64,
    /// Host seconds per experiment, indexed like [`EXPERIMENTS`] (0 for
    /// those a quick run skips).
    pub exp_wall_s: Vec<f64>,
    pub rows: u64,
    pub rows_with_paper: u64,
    pub render_s: f64,
    pub shape_err_pct: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Digest of every measured row value: the sweep is a deterministic
    /// function of the code alone.
    pub digest: u64,
}

/// Median relative error of the paper's *shape statements*. Within each
/// artifact and metric with ≥ 2 rows carrying a paper value, the first such
/// row is the base; every other row contributes
/// `|(measured/base_measured) ÷ (paper/base_paper) − 1|`, in percent.
/// `None` when no artifact has such a pair.
pub fn shape_err_pct(arts: &[Artifact]) -> Option<f64> {
    let mut errs = Vec::new();
    for a in arts {
        let mut metrics: Vec<&str> = Vec::new();
        for r in &a.rows {
            if !metrics.contains(&r.metric.as_str()) {
                metrics.push(&r.metric);
            }
        }
        for m in metrics {
            let mut with_paper = a
                .rows
                .iter()
                .filter(|r| r.metric == m)
                .filter_map(|r| r.paper.map(|p| (p, r.measured)));
            let Some((base_paper, base_measured)) = with_paper.next() else {
                continue;
            };
            if base_paper == 0.0 || base_measured == 0.0 {
                continue; // a zero base has no ratios
            }
            for (paper, measured) in with_paper {
                if paper != 0.0 {
                    let err = (measured / base_measured) / (paper / base_paper) - 1.0;
                    errs.push(err.abs() * 100.0);
                }
            }
        }
    }
    (!errs.is_empty()).then(|| median(&errs))
}

/// Count rows as operations; a non-finite measurement is a failed one.
fn account(arts: &[Artifact], out: &mut SweepOutcome, digest: &mut FxHasher) {
    for a in arts {
        if a.rows.is_empty() {
            out.problems.push(format!("artifact {} is empty", a.id));
        }
        for r in &a.rows {
            out.attempted += 1;
            out.rows += 1;
            out.rows_with_paper += u64::from(r.paper.is_some());
            if !r.measured.is_finite() {
                out.failed += 1;
                out.problems.push(format!(
                    "{}: {} / {} is not finite",
                    a.id, r.metric, r.config
                ));
            }
            digest_field(digest, &r.metric, r.measured);
            // Table 4's sanity row says in its unit whether every offloaded
            // aggregate was memcached's.
            let sanity_row = a.id == "table4" && r.metric == "offloaded aggregates";
            if sanity_row && r.unit != "aggregates (all :11211)" {
                out.failed += 1;
                out.problems
                    .push("table4 offloaded a non-memcached aggregate".to_string());
            }
        }
    }
}

/// One repetition: every experiment once, serially, on this thread.
pub fn run(size: Size, tr: &mut Tracer) -> SweepOutcome {
    let mut out = SweepOutcome {
        exp_wall_s: vec![0.0; EXPERIMENTS.len()],
        ..SweepOutcome::default()
    };
    let mut digest = FxHasher::default();
    let mut all: Vec<Artifact> = Vec::new();
    let t0 = Instant::now();
    let span = tr.begin("run");
    for (i, &(id, _)) in EXPERIMENTS.iter().enumerate() {
        // The smoke run keeps only the 0.2 s experiment (~1/50 of the sweep).
        if size == Size::Quick && id != "fig12" {
            continue;
        }
        let s = tr.begin("bench.experiment");
        let t = Instant::now();
        let arts = std::panic::catch_unwind(|| experiments::run(id, false));
        out.exp_wall_s[i] = t.elapsed().as_secs_f64();
        tr.end(s);
        match arts {
            Ok(Some(arts)) => all.extend(arts),
            Ok(None) | Err(_) => {
                out.attempted += 1;
                out.failed += 1;
                out.problems.push(format!("experiment {id} did not run"));
            }
        }
    }
    tr.end(span);
    out.wall_s = t0.elapsed().as_secs_f64();

    let s = tr.begin("bench.render");
    let t = Instant::now();
    let rendered: usize = all.iter().map(|a| a.render().len()).sum();
    out.render_s = t.elapsed().as_secs_f64();
    tr.end(s);
    std::hint::black_box(rendered);

    let s = tr.begin("collect");
    account(&all, &mut out, &mut digest);
    out.shape_err_pct = shape_err_pct(&all).unwrap_or(0.0);
    digest_field(&mut digest, "shape_err_pct", out.shape_err_pct);
    out.digest = digest.finish();
    tr.end(s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_bench::report::Row;

    #[test]
    fn shape_error_is_the_median_ratio_error_per_metric() {
        let mut a = Artifact::new("t", "hand-built", "shape");
        // finish: paper says ×0.5, measured ×0.6 → 20 % off.
        a.push(Row::new("finish", "VIF", Some(100.0), 10.0, "s"));
        a.push(Row::new("finish", "VF", Some(50.0), 6.0, "s"));
        // tps: paper ×2, measured ×2 → exact; ×4 vs ×3 → 25 % off.
        a.push(Row::new("tps", "VIF", Some(10.0), 1_000.0, "tps"));
        a.push(Row::new("tps", "VF", Some(20.0), 2_000.0, "tps"));
        a.push(Row::new("tps", "VF2", Some(40.0), 3_000.0, "tps"));
        // No paper value, and a lone paper row: both ignored.
        a.push(Row::new("cpus", "VIF", None, 3.0, "cpus"));
        a.push(Row::new("lat", "VIF", Some(5.0), 7.0, "us"));
        let got = shape_err_pct(&[a]).unwrap();
        assert!(
            (got - 20.0).abs() < 1e-9,
            "median of [20, 0, 25] is 20, got {got}"
        );
        assert_eq!(shape_err_pct(&[Artifact::new("e", "empty", "")]), None);
    }

    #[test]
    fn non_finite_rows_and_the_table4_sanity_row_fail() {
        let mut a = Artifact::new("table4", "rows", "");
        a.push(Row::new("ok", "c", None, 1.0, "u"));
        a.push(Row::new("bad", "c", None, f64::NAN, "u"));
        a.push(Row::new(
            "offloaded aggregates",
            "(all memcached?)",
            None,
            8.0,
            "aggregates (UNEXPECTED non-memcached!)",
        ));
        let mut out = SweepOutcome::default();
        account(&[a], &mut out, &mut FxHasher::default());
        assert_eq!((out.attempted, out.failed), (3, 2));
        assert_eq!(out.problems.len(), 2);
    }
}
