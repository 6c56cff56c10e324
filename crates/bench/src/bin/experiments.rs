//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments all            # every artifact, quick mode, parallel
//! experiments fig3 table4    # specific artifacts
//! experiments all --full     # paper-duration runs (slow)
//! experiments fig12 --csv    # also print the series a run hands back (Fig. 12's seq trace)
//! experiments all --json out.json
//! experiments all --serial   # one worker: no thread is spawned
//! experiments ablations --threads 4  # at most 4 worlds at a time
//! experiments all --telemetry out/  # also export every experiment's telemetry
//! ```
//!
//! `--telemetry <dir>` writes, for every experiment run, the registry of the
//! one cell the experiment names: `<id>.metrics.jsonl` and `<id>.prom`, plus
//! `<id>.trace.json` (Chrome trace-event JSON; load it in Perfetto) where
//! the experiment records one, which `fig12` does. Telemetry is pull-model
//! and never perturbs the event stream, so report numbers are bit-identical
//! with and without the flag.
//!
//! An unknown flag, a flag without its value (or whose value is another
//! flag or an experiment id), a `--threads` that is not a positive integer,
//! and an unknown experiment id each exit with status 2.
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
use std::path::PathBuf;
use std::time::Instant;

use fastrak_bench::experiments::{self, Cx, Experiment, EXPERIMENTS};
use fastrak_bench::report::Artifact;
use fastrak_bench::{cells, json};

/// What the command line asked for.
struct Opts {
    experiments: Vec<&'static Experiment>,
    full: bool,
    csv: bool,
    json: Option<PathBuf>,
    /// The worker budget, when `--serial` or `--threads` sets one.
    width: Option<usize>,
    telemetry: Option<PathBuf>,
}

const FLAGS: &str = "--full --csv --json <path> --serial --threads <n> --telemetry <dir>";

/// Read the command line (without the program name).
fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        experiments: Vec::new(),
        full: false,
        csv: false,
        json: None,
        width: None,
        telemetry: None,
    };
    let (mut all, mut serial, mut threads) = (false, false, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| match args.next() {
            Some(v) if v.starts_with("--") || v == "all" || experiments::find(v).is_some() => {
                Err(format!("{arg} needs {what}, got '{v}'"))
            }
            Some(v) => Ok(v.clone()),
            None => Err(format!("{arg} needs {what}")),
        };
        match arg.as_str() {
            "--full" => opts.full = true,
            "--csv" => opts.csv = true,
            "--serial" => serial = true,
            "--json" => opts.json = Some(value("a path")?.into()),
            "--telemetry" => opts.telemetry = Some(value("a directory")?.into()),
            "--threads" => {
                let n = value("a thread count")?;
                let positive = n.parse().ok().filter(|&n: &usize| n > 0);
                threads =
                    Some(positive.ok_or(format!("--threads needs a positive integer, got '{n}'"))?);
            }
            "all" => all = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag '{flag}'; known: {FLAGS}"));
            }
            id => opts.experiments.push(experiments::find(id).ok_or_else(|| {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
                format!("unknown experiment '{id}'; known: {known:?}")
            })?),
        }
    }
    if all || opts.experiments.is_empty() {
        opts.experiments = EXPERIMENTS.iter().collect();
    }
    opts.width = if serial { Some(1) } else { threads };
    Ok(opts)
}

/// One experiment's run.
struct Done {
    artifacts: Vec<Artifact>,
    /// The series the run handed back, if any (Fig. 12's seq trace).
    series: Option<Vec<(f64, u64)>>,
    secs: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if let Some(dir) = &opts.telemetry {
        std::fs::create_dir_all(dir).expect("create telemetry output dir");
    }
    if let Some(n) = opts.width {
        cells::set_width(n);
    }
    let threads = cells::width();
    eprintln!(
        "running {} experiment(s){} on up to {threads} thread(s) ...",
        opts.experiments.len(),
        if opts.full { " (full)" } else { "" },
    );

    let suite_start = Instant::now();
    let done: Vec<Done> = cells::map(&opts.experiments, |e| {
        let t0 = Instant::now();
        let cx = Cx::new(opts.full, opts.telemetry.is_some());
        let artifacts = (e.run)(&cx);
        let exports = cx.into_exports();
        if let Some(dir) = &opts.telemetry {
            exports.write(dir, e.id);
        }
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("  {} done in {secs:.1}s", e.id);
        Done {
            artifacts,
            series: exports.series.filter(|_| opts.csv),
            secs,
        }
    });
    let wall = suite_start.elapsed().as_secs_f64();

    for (e, d) in opts.experiments.iter().zip(&done) {
        for a in &d.artifacts {
            print!("{}", a.render());
        }
        if let Some(points) = &d.series {
            println!("\n# {} trace (seconds,seq)", e.id);
            for (t, s) in points {
                println!("{t:.6},{s}");
            }
        }
    }

    // Experiments overlap and share cores, so their elapsed times do not
    // add up to anything: report each one, the wall and the budget.
    println!("\n== timing ==");
    for (e, d) in opts.experiments.iter().zip(&done) {
        println!("{:10}  {:>8.2}s", e.id, d.secs);
    }
    println!("{:10}  {wall:>8.2}s  (up to {threads} thread(s))", "wall");

    if let Some(path) = opts.json {
        let artifacts = done.iter().flat_map(|d| &d.artifacts);
        let per_experiment = opts.experiments.iter().zip(&done);
        let doc = json::object([
            ("artifacts", json::array(artifacts.map(Artifact::to_json))),
            (
                "timing",
                json::object([
                    ("threads", json::num(threads as f64)),
                    ("wall_seconds", json::num(wall)),
                    (
                        "per_experiment",
                        json::object(per_experiment.map(|(e, d)| (e.id, json::num(d.secs)))),
                    ),
                ]),
            ),
        ]);
        let f = std::fs::File::create(&path).expect("create json output");
        let mut w = std::io::BufWriter::new(f);
        w.write_all(doc.as_bytes()).expect("write artifacts json");
        w.flush().expect("flush artifacts json");
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Opts, String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    fn ids(opts: &Opts) -> Vec<&'static str> {
        opts.experiments.iter().map(|e| e.id).collect()
    }

    #[test]
    fn ids_flags_and_values_parse() {
        let o = parsed("fig12 table4 --full --csv --json out.json --threads 3 --telemetry d")
            .expect("a valid line");
        assert_eq!(ids(&o), ["fig12", "table4"]);
        assert!(o.full && o.csv);
        assert_eq!(o.json, Some(PathBuf::from("out.json")));
        assert_eq!(o.telemetry, Some(PathBuf::from("d")));
        assert_eq!(o.width, Some(3));
        assert_eq!(parsed("fig12 --threads 3 --serial").unwrap().width, Some(1));
        assert_eq!(parsed("fig12").unwrap().width, None);
    }

    #[test]
    fn no_id_or_all_runs_every_experiment_in_paper_order() {
        let every: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(every.len(), 13);
        assert_eq!(ids(&parsed("").unwrap()), every);
        assert_eq!(ids(&parsed("--serial").unwrap()), every);
        assert_eq!(ids(&parsed("fig3 all").unwrap()), every);
    }

    #[test]
    fn bad_input_is_rejected_with_what_is_known() {
        let err = |line: &str| {
            parsed(line)
                .err()
                .unwrap_or_else(|| panic!("{line:?} parsed"))
        };
        assert!(err("fig12 --seriall").contains("unknown flag '--seriall'; known: --full"));
        assert!(err("nope").contains("unknown experiment 'nope'; known: [\"fig3\""));
        for n in ["abc", "0", "-1"] {
            let want = format!("--threads needs a positive integer, got '{n}'");
            assert_eq!(err(&format!("--threads {n}")), want);
        }
        for flag in ["--json", "--telemetry", "--threads"] {
            assert!(err(flag).contains("needs"), "{flag} without a value");
            assert!(err(&format!("{flag} --full")).contains("got '--full'"));
            assert!(err(&format!("{flag} fig12")).contains("got 'fig12'"));
            assert!(err(&format!("{flag} all")).contains("got 'all'"));
        }
    }
}
