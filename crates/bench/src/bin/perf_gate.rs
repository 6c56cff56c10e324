//! Perf-regression gate for CI.
//!
//! Compares a fresh bench run (the JSON-lines file written via
//! `FASTRAK_BENCH_JSON`) against the committed `BENCH_baseline.json` and
//! fails (exit 1) only when a benchmark regressed by more than the allowed
//! ratio — loose by design (default 2x): CI runners are noisy shared
//! machines, and the gate exists to catch order-of-magnitude hot-path
//! regressions, not percent-level drift. Benches present on only one side
//! (new or retired) are reported but never fail the gate.
//!
//! A bench that currently runs in under [`NOISE_FLOOR_NS`] has its ratio
//! printed but not gated: at a nanosecond or two per iteration the harness
//! measures the machine's mood (1.5 ns read 1.7–2.9x its own baseline over
//! eight runs of untouched code), and a real regression of such a bench
//! lifts it over the floor, where the ratio applies again.
//!
//! Absolute ceilings (repeatable `--ceiling suite/bench=ns`) complement the
//! ratio gate: they pin a hard budget on headline benches regardless of what
//! the baseline drifts to, and fail if the bench was not run at all.
//!
//! Usage:
//!   perf_gate --baseline BENCH_baseline.json --current bench.json \
//!             [--max-ratio 2.0] [--ceiling suite/bench=ns]...

use std::collections::BTreeMap;
use std::process::ExitCode;

use fastrak_bench::json::{self, Value};

/// `(suite, bench) -> ns_per_iter`.
type Results = BTreeMap<(String, String), f64>;

/// Below this many ns/iter a current result is too close to the timer's
/// and the CPU's jitter for a ratio to mean anything; ceilings still apply.
const NOISE_FLOOR_NS: f64 = 10.0;

/// The ratio gate's verdict on one bench present on both sides.
#[derive(Debug, PartialEq)]
enum RatioVerdict {
    Within,
    Regressed,
    /// Over the ratio but under the noise floor: reported, not gated.
    BelowFloor,
}

fn ratio_verdict(base: f64, cur: f64, max_ratio: f64) -> RatioVerdict {
    if cur / base <= max_ratio {
        RatioVerdict::Within
    } else if cur < NOISE_FLOOR_NS {
        RatioVerdict::BelowFloor
    } else {
        RatioVerdict::Regressed
    }
}

fn record(map: &mut Results, v: &Value) {
    if let (Some(suite), Some(bench), Some(ns)) = (
        v.get("suite").and_then(Value::as_str),
        v.get("bench").and_then(Value::as_str),
        v.get("ns_per_iter").and_then(Value::as_num),
    ) {
        // Keep the latest entry when a bench appears twice (append-mode
        // files accumulate across runs).
        map.insert((suite.to_string(), bench.to_string()), ns);
    }
}

/// Baseline format: one JSON document with a `benches` array.
fn load_baseline(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let mut out = Results::new();
    for entry in doc
        .get("benches")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no `benches` array"))?
    {
        record(&mut out, entry);
    }
    Ok(out)
}

/// Current-run format: JSON lines, one flat object per line.
fn load_current(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut out = Results::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("parse {path}:{}: {e}", n + 1))?;
        record(&mut out, &v);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut current_path = String::new();
    let mut max_ratio = 2.0f64;
    let mut ceilings: Vec<((String, String), f64)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut grab = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--baseline" => baseline_path = grab("--baseline"),
            "--current" => current_path = grab("--current"),
            "--max-ratio" => max_ratio = grab("--max-ratio").parse().expect("numeric --max-ratio"),
            "--ceiling" => {
                let spec = grab("--ceiling");
                let (name, ns) = spec
                    .rsplit_once('=')
                    .expect("--ceiling expects suite/bench=ns");
                let (suite, bench) = name
                    .split_once('/')
                    .expect("--ceiling expects suite/bench=ns");
                ceilings.push((
                    (suite.to_string(), bench.to_string()),
                    ns.parse().expect("numeric ceiling ns"),
                ));
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if current_path.is_empty() {
        eprintln!("perf_gate: --current <bench.json> is required");
        return ExitCode::FAILURE;
    }

    let (baseline, current) = match (load_baseline(&baseline_path), load_current(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("perf_gate: {err}");
            }
            return ExitCode::FAILURE;
        }
    };

    let mut regressed = 0usize;
    println!(
        "{:<44} {:>12} {:>12} {:>7}",
        "bench", "baseline", "current", "ratio"
    );
    for ((suite, bench), &cur) in &current {
        let name = format!("{suite}/{bench}");
        match baseline.get(&(suite.clone(), bench.clone())) {
            Some(&base) if base > 0.0 => {
                let ratio = cur / base;
                let verdict = match ratio_verdict(base, cur, max_ratio) {
                    RatioVerdict::Within => "",
                    RatioVerdict::BelowFloor => "(under the noise floor, not gated)",
                    RatioVerdict::Regressed => {
                        regressed += 1;
                        "REGRESSED"
                    }
                };
                println!("{name:<44} {base:>10.1}ns {cur:>10.1}ns {ratio:>6.2}x {verdict}");
            }
            _ => println!("{name:<44} {:>12} {cur:>10.1}ns      - (new)", "-"),
        }
    }
    for key in baseline.keys() {
        if !current.contains_key(key) {
            println!("{:<44} (not run this time)", format!("{}/{}", key.0, key.1));
        }
    }

    for ((suite, bench), ceil) in &ceilings {
        let name = format!("{suite}/{bench}");
        match current.get(&(suite.clone(), bench.clone())) {
            Some(&cur) if cur <= *ceil => {
                println!("ceiling  {name:<35} {cur:>10.1}ns <= {ceil:.0}ns OK");
            }
            Some(&cur) => {
                regressed += 1;
                println!("ceiling  {name:<35} {cur:>10.1}ns > {ceil:.0}ns EXCEEDED");
            }
            None => {
                regressed += 1;
                println!("ceiling  {name:<35} NOT RUN (required)");
            }
        }
    }

    if regressed > 0 {
        eprintln!("perf_gate: {regressed} benchmark(s) regressed beyond {max_ratio}x");
        ExitCode::FAILURE
    } else {
        println!("perf_gate: OK (threshold {max_ratio}x)");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_gate_ignores_jitter_under_the_noise_floor_only() {
        // The flake: a 1.5 ns bench reading 2.9x on an untouched tree.
        assert_eq!(ratio_verdict(1.5, 4.35, 2.0), RatioVerdict::BelowFloor);
        // The same bench really regressing climbs over the floor.
        assert_eq!(ratio_verdict(1.5, 15.0, 2.0), RatioVerdict::Regressed);
        // The floor is on the current value, so a slow bench that got fast
        // and a fast one within ratio are both simply fine.
        assert_eq!(ratio_verdict(500.0, 3.0, 2.0), RatioVerdict::Within);
        assert_eq!(ratio_verdict(4.0, 7.9, 2.0), RatioVerdict::Within);
        // At and above the floor the ratio gates as before.
        assert_eq!(
            ratio_verdict(4.0, NOISE_FLOOR_NS, 2.0),
            RatioVerdict::Regressed
        );
        assert_eq!(ratio_verdict(100.0, 200.0, 2.0), RatioVerdict::Within);
        assert_eq!(ratio_verdict(100.0, 200.1, 2.0), RatioVerdict::Regressed);
    }
}
