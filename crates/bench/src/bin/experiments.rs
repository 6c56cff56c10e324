//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments all            # every artifact, quick mode, parallel
//! experiments fig3 table4    # specific artifacts
//! experiments all --full     # paper-duration runs (slow)
//! experiments fig12 --csv    # also dump the Fig.12 seq trace as CSV
//! experiments all --json out.json
//! experiments all --serial   # one worker: no thread is spawned
//! experiments ablations --threads 4  # at most 4 worlds at a time
//! experiments all --telemetry out/  # also export metrics/trace artifacts
//! ```
//!
//! `--telemetry <dir>` drops observability artifacts next to the report:
//! `fault_matrix.metrics.jsonl` + `fault_matrix.prom` (registry snapshots)
//! and `fig12.trace.json` (Chrome trace-event JSON; load in Perfetto).
//! Telemetry is pull-model and never perturbs the event stream, so report
//! numbers are bit-identical with and without the flag.
//!
//! The unit of fan-out is the world, not the experiment: every row comes
//! from one freshly built single-threaded DES world (own kernel, RNG and
//! `NetCtx`), and `fastrak_bench::cells::map` runs those worlds — this
//! binary's list of experiments and each experiment's grid of cells alike —
//! under one process-wide worker budget. `--threads N` sets the budget
//! (default: the host's available parallelism) and `--serial` sets it to 1,
//! where no thread is spawned at all. Results are placed by index and
//! printed in request order, so the artifacts are the same bytes at any
//! width; only the `== timing ==` block (per-experiment elapsed, overall
//! wall, the budget) differs between runs.

use std::io::Write;
use std::time::Instant;

use fastrak_bench::experiments::{self, fig12};
use fastrak_bench::report::Artifact;
use fastrak_bench::{cells, json};

struct Done {
    artifacts: Vec<Artifact>,
    /// The Fig. 12 sequence trace, when `--csv` asked for it.
    trace: Option<Vec<fig12::TracePoint>>,
    secs: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let csv = args.iter().any(|a| a == "--csv");
    let serial = args.iter().any(|a| a == "--serial");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let json_path = flag_value("--json");
    let threads_override: Option<usize> = flag_value("--threads").and_then(|v| v.parse().ok());
    let telemetry_dir = flag_value("--telemetry").map(std::path::PathBuf::from);
    // Ids are the positional args: skip flags and the values they consume.
    let mut skip_next = false;
    let mut ids: Vec<String> = Vec::new();
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--json" || a == "--threads" || a == "--telemetry" {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            ids.push(a.clone());
        }
    }
    if let Some(dir) = &telemetry_dir {
        std::fs::create_dir_all(dir).expect("create telemetry output dir");
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = experiments::all_ids()
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    for id in &ids {
        if !experiments::all_ids().contains(&id.as_str()) {
            eprintln!(
                "unknown experiment '{id}'; known: {:?}",
                experiments::all_ids()
            );
            std::process::exit(2);
        }
    }

    if serial {
        cells::set_width(1);
    } else if let Some(n) = threads_override {
        cells::set_width(n);
    }
    let threads = cells::width();
    eprintln!(
        "running {} experiment(s){} on up to {threads} thread(s) ...",
        ids.len(),
        if full { " (full)" } else { "" },
    );

    let suite_start = Instant::now();
    let done: Vec<Done> = cells::map(&ids, |id| {
        let t0 = Instant::now();
        let mut trace = None;
        let artifacts = match &telemetry_dir {
            // `--csv`: the Fig. 12 run that builds the report also hands
            // over its sequence trace.
            Some(dir) if csv && id == "fig12" => {
                let (artifact, points, chrome) = fig12::run_traced(full);
                experiments::write_export(dir, "fig12.trace.json", chrome);
                trace = Some(points);
                Some(vec![artifact])
            }
            None if csv && id == "fig12" => {
                let (artifact, points) = fig12::run_with_trace(full);
                trace = Some(points);
                Some(vec![artifact])
            }
            Some(dir) => experiments::run_with_telemetry(id, full, dir),
            None => experiments::run(id, full),
        };
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("  {id} done in {secs:.1}s");
        Done {
            artifacts: artifacts.expect("id validated above"),
            trace,
            secs,
        }
    });
    let wall = suite_start.elapsed().as_secs_f64();

    let mut artifacts: Vec<Artifact> = Vec::new();
    for d in &done {
        for a in &d.artifacts {
            print!("{}", a.render());
        }
        if let Some(points) = &d.trace {
            println!("\n# fig12 trace (seconds,seq)");
            for (t, s) in points {
                println!("{t:.6},{s}");
            }
        }
        artifacts.extend(d.artifacts.iter().cloned());
    }

    // Experiments overlap and share cores, so their elapsed times do not
    // add up to anything: report each one, the wall and the budget.
    println!("\n== timing ==");
    for (id, d) in ids.iter().zip(&done) {
        println!("{id:10}  {:>8.2}s", d.secs);
    }
    println!("{:10}  {wall:>8.2}s  (up to {threads} thread(s))", "wall");

    if let Some(path) = json_path {
        let doc = json::object([
            (
                "artifacts",
                json::array(artifacts.iter().map(Artifact::to_json)),
            ),
            (
                "timing",
                json::object([
                    ("threads", json::num(threads as f64)),
                    ("wall_seconds", json::num(wall)),
                    (
                        "per_experiment",
                        json::object(
                            ids.iter()
                                .zip(&done)
                                .map(|(id, d)| (id.as_str(), json::num(d.secs)))
                                .collect::<Vec<_>>(),
                        ),
                    ),
                ]),
            ),
        ]);
        let f = std::fs::File::create(&path).expect("create json output");
        let mut w = std::io::BufWriter::new(f);
        w.write_all(doc.as_bytes()).expect("write artifacts json");
        w.flush().unwrap();
        eprintln!("wrote {path}");
    }
}
