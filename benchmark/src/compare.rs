//! `benchmark compare a.json b.json`: the before/after rule of this
//! benchmark. One row per (workload, end-to-end metric) with both medians
//! and quartiles and a verdict; every exact (simulated) metric must be
//! equal on both sides. Exit status is non-zero on `worse` or a mismatch.

use std::collections::BTreeMap;

use fastrak_bench::json::{self, Value};

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{iqr_share, median, quartiles};

/// Samples per (workload, end-to-end metric) and values per (workload,
/// trace flag, exact metric), pooled over every run record in a file.
#[derive(Default)]
struct Side {
    samples: BTreeMap<(String, String), Vec<f64>>,
    exact: BTreeMap<(String, String), f64>,
    incorrect: Vec<String>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut side = Side::default();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: run without a workload"))?;
        if run.get("correct") != Some(&Value::Bool(true)) {
            side.incorrect.push(workload.to_string());
        }
        if let Some(Value::Object(samples)) = run.get("samples") {
            for (metric, xs) in samples {
                let xs = xs.as_array().unwrap_or(&[]);
                side.samples
                    .entry((workload.to_string(), metric.clone()))
                    .or_default()
                    .extend(xs.iter().filter_map(Value::as_num));
            }
        }
        if let Some(Value::Object(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                if m.get("exact") == Some(&Value::Bool(true)) {
                    if let Some(v) = m.get("value").and_then(Value::as_num) {
                        side.exact.insert((workload.to_string(), name.clone()), v);
                    }
                }
            }
        }
    }
    Ok(side)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// `b` against baseline `a` under the metric's bound. `unresolved` when
/// either side's inter-quartile spread exceeds the bound: then the medians
/// cannot carry a verdict either way.
pub fn verdict(def: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if iqr_share(a) > def.bound || iqr_share(b) > def.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    // Positive = b is worse than a, as a share of a's median.
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > def.bound {
        Verdict::Worse
    } else if worse_by < -def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Print the comparison; `Ok(true)` when nothing is worse or mismatched.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!(
        "{:13} {:12} {:>10} {:>21} {:>10} {:>21} {:>8}  verdict",
        "workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "b vs a"
    );
    for ((workload, metric), xa) in &a.samples {
        let Some(def) = END_TO_END.iter().find(|d| d.name == metric) else {
            continue;
        };
        let Some(xb) = b.samples.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:13} {metric:12} missing from {path_b}");
            ok = false;
            continue;
        };
        let v = verdict(def, xa, xb);
        ok &= v != Verdict::Worse;
        let (ma, mb) = (median(xa), median(xb));
        let ((a1, a3), (b1, b3)) = (quartiles(xa), quartiles(xb));
        println!(
            "{workload:13} {metric:12} {ma:>10.4} {:>21} {mb:>10.4} {:>21} {:>+7.1}%  {}",
            format!("{a1:.4}..{a3:.4}"),
            format!("{b1:.4}..{b3:.4}"),
            100.0 * (mb - ma) / ma.abs(),
            format!("{v:?}").to_lowercase(),
        );
    }
    let mut mismatches = 0;
    for (key, va) in &a.exact {
        match b.exact.get(key) {
            Some(vb) if vb == va => {}
            other => {
                mismatches += 1;
                println!(
                    "count mismatch: {} {} = {va} vs {}",
                    key.0,
                    key.1,
                    other.map_or("missing".to_string(), |v| v.to_string())
                );
            }
        }
    }
    println!(
        "{} exact metrics compared, {mismatches} differ",
        a.exact.len()
    );
    for (path, side) in [(path_a, &a), (path_b, &b)] {
        for w in &side.incorrect {
            println!("{path}: {w} failed its own checks");
            ok = false;
        }
    }
    Ok(ok && mismatches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall() -> &'static EndToEnd {
        &END_TO_END[0]
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(verdict(wall(), &base, &base), Verdict::Same);
        let slow: Vec<f64> = base.iter().map(|x| x * 1.4).collect();
        assert_eq!(verdict(wall(), &base, &slow), Verdict::Worse);
        assert_eq!(verdict(wall(), &slow, &base), Verdict::Better);
        let within: Vec<f64> = base.iter().map(|x| x * 1.1).collect();
        assert_eq!(verdict(wall(), &base, &within), Verdict::Same);
        let noisy = [0.7, 1.0, 1.3, 0.8, 1.25];
        assert_eq!(verdict(wall(), &base, &noisy), Verdict::Unresolved);
        // Higher-is-better metrics flip the direction.
        let ok_share = &END_TO_END[2];
        assert_eq!(verdict(ok_share, &[1.0], &[0.9]), Verdict::Worse);
        assert_eq!(verdict(ok_share, &[1.0], &[1.0]), Verdict::Same);
    }

    #[test]
    fn compare_flags_count_mismatches_and_regressions() {
        // Inside the package's git-ignored out/: tests write nowhere else.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, wall: f64, events: f64| {
            let doc = format!(
                r#"{{"runs":[{{"workload":"w","correct":true,
                   "samples":{{"wall_s":[{wall},{wall},{wall}]}},
                   "metrics":{{"sim.events":{{"value":{events},"unit":"count","exact":true}},
                              "sim.ns_per_event":{{"value":{wall},"unit":"ns","exact":false}}}}}}]}}"#
            );
            let p = dir.join(name);
            std::fs::write(&p, doc).unwrap();
            p.to_string_lossy().into_owned()
        };
        let base = file("a.json", 1.0, 100.0);
        assert_eq!(compare(&base, &file("same.json", 1.04, 100.0)), Ok(true));
        assert_eq!(compare(&base, &file("slow.json", 1.3, 100.0)), Ok(false));
        assert_eq!(compare(&base, &file("count.json", 1.0, 101.0)), Ok(false));
        assert!(compare(&base, "/nonexistent.json").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
