//! Emit a Perfetto-loadable timeline of the Fig. 12 flow migration.
//!
//! Runs the §6.2.2 scenario — a single bulk TCP flow offloaded from the
//! VIF to the SR-IOV path one second in — with flow-lifecycle span tracing
//! enabled, and writes the Chrome trace-event JSON into the working directory:
//!
//! ```text
//! cargo run --release --example fig12_timeline
//! ```
//!
//! Load `fig12_timeline.trace.json` in <https://ui.perfetto.dev> (or
//! `chrome://tracing`): each component is a track, and the sender VM's
//! track shows the "vif" slice handing off to the "sriov" slice at t=1 s.

use fastrak_bench::experiments::{fig12, Cx};

fn main() {
    eprintln!("running the Fig. 12 migration scenario with span tracing ...");
    let cx = Cx::new(false, true);
    fig12::run(&cx);
    let trace = cx
        .into_exports()
        .chrome_trace
        .expect("fig12 records a trace");
    let path = "fig12_timeline.trace.json";
    std::fs::write(path, &trace).expect("write trace file");
    println!("wrote {path} ({} bytes)", trace.len());
    println!("open https://ui.perfetto.dev and drag the file in to view the timeline");
}
