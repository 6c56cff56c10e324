//! The repo's benchmark: five layer-isolating workloads driven through the
//! simulator's public API, end-to-end metrics from untraced runs and a
//! per-layer ledger from traced ones. See README.md in this directory.
//!
//! ```text
//! benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--out <dir>]
//! benchmark compare <a/result.json> <b/result.json>
//! ```

mod calib;
mod compare;
mod inputs;
mod metrics;
mod probes;
mod run;
mod stats;
mod sweep;
mod trace;
mod worlds;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use fastrak_bench::json::{self, Value};

use inputs::Size;
use run::{Spec, Workload};

const USAGE: &str = "usage:
  benchmark run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--out <dir>]
  benchmark compare <a/result.json> <b/result.json>
workloads: rack_soft rack_express incast_loss flow_scale paper_sweep
Without --workload, every workload runs in a child process of its own and
<dir>/result.json collects them (default dir: this package's out/).";

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                a.workload =
                    Some(Workload::from_name(w).ok_or_else(|| format!("unknown workload {w}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Run one workload in this process; the contract's last line goes last.
fn run_one(a: &RunArgs, workload: Workload, process_start: Instant) -> Result<(), String> {
    let spec = Spec {
        workload,
        seed: a.seed,
        seconds: a.seconds.unwrap_or(if a.quick { 0.5 } else { 10.0 }),
        trace: a.trace,
        size: if a.quick { Size::Quick } else { Size::Full },
    };
    if let Some(dir) = &a.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let trace_path = a
        .out
        .as_ref()
        .map(|d| d.join(format!("trace-{}.json", workload.name())));
    let result = run::run(&spec, process_start, trace_path.as_deref());
    result.print(&spec);
    if let Some(dir) = &a.out {
        let path = detail_path(dir, workload, a.trace);
        std::fs::write(&path, result.detail(&spec))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.last_line());
    Ok(())
}

fn detail_path(dir: &Path, workload: Workload, trace: bool) -> PathBuf {
    let name = workload.name();
    dir.join(format!("run-{name}-trace{}.json", u8::from(trace)))
}

/// Run every workload, each in a child process of its own (so peak memory
/// and lazy set-up are per workload), and collect `<out>/result.json`.
fn run_all(a: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = a
        .out
        .clone()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"));
    let mut all_correct = true;
    let mut details = Vec::new();
    for workload in Workload::ALL {
        let name = workload.name();
        for trace in [false, true] {
            if trace && !a.trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", name])
                .args(["--seed", &a.seed.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&out);
            if let Some(s) = a.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if a.quick {
                cmd.arg("--quick");
            }
            // `status` inherits stdout and waits for the child to end.
            let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
            if !status.success() {
                return Err(format!(
                    "{name} (trace {}) exited with {status}",
                    u8::from(trace)
                ));
            }
            let path = detail_path(&out, workload, trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            all_correct &= doc.get("correct") == Some(&Value::Bool(true));
            details.push(text);
        }
    }
    let path = out.join("result.json");
    let doc = json::object([("runs", json::array(details))]);
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run(rest).and_then(|a| match a.workload {
                // The driver reads `correct` from the last line; the exit code
                // only says whether the run itself could be carried out.
                Some(w) => run_one(&a, w, process_start).map(|()| true),
                None => run_all(&a),
            })
        }
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => compare::compare(a, b),
            _ => Err("compare takes exactly two result files".into()),
        },
        _ => Err("expected a subcommand".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
