//! Figure 12 — TCP progression across a flow migration (§6.2.2).
//!
//! A single bulk TCP flow (iperf stand-in) is offloaded from the VIF to the
//! SR-IOV path one second after it begins, while its ACKs keep returning
//! via the VIF. The paper's packet capture shows the connection progressing
//! normally: duplicate ACKs and ~30 fast retransmits during the shift, TCP
//! recovering twice from loss, and **no timeouts**.
//!
//! This harness captures the receiver-side sequence trace around the
//! migration instant and reports the transport counters.

use fastrak_net::flow::FlowSpec;
use fastrak_net::packet::PathTag;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_transport::tcp::TcpStats;
use fastrak_workload::{StreamConfig, StreamSender, StreamSink, Testbed};

use crate::experiments::{Cx, Decl, World};
use crate::report::{Artifact, ArtifactSpec, Col};
use crate::scenarios::{micro_bed, MicroBed, PathSetup, SERVER_IP, TENANT};

/// How much simulated time runs between two drains of the trace ring; the
/// sequence trace keeps one point per slice.
const TRACE_SLICE: SimDuration = SimDuration::from_millis(10);

/// Run the migration: one second on the VIF, then the sender's egress
/// moves to SR-IOV, one more second. Returns the world and the
/// receiver-side (seconds, TCP sequence number) trace: the first segment
/// the receiver takes in each [`TRACE_SLICE`]. With an `export` handle,
/// flow-lifecycle spans and the audit log record too.
fn migrate(export: Option<&Cx>) -> (MicroBed, Vec<(f64, u64)>) {
    let mut cfg = StreamConfig::netperf(SERVER_IP, 5201, 32_000);
    cfg.threads = 1; // a single iperf flow
    let mut mb = micro_bed(
        PathSetup::BaselineOvs,
        Box::new(StreamSender::new(cfg)),
        Box::new(StreamSink::new(5201)),
        47,
    );
    // Authorize the hardware path but leave the placer on the VIF.
    mb.bed.authorize_hw_tenant(TENANT);
    mb.bed.kernel.ctx.trace.set_enabled(true);
    if export.is_some() {
        mb.bed.kernel.ctx.telemetry.spans.set_enabled(true);
        mb.bed.kernel.ctx.telemetry.audit.set_enabled(true);
    }
    mb.bed.start();

    // Receiver-side sequence progression, read out of the trace ring in
    // short slices: the run pushes ~300 k records, the figure wants ~200
    // points, so each slice keeps its first receiver segment and the ring
    // never holds more than one slice. Slicing `run_until` only observes —
    // it schedules nothing, so the event stream is the one an unsliced run
    // produces.
    let mut points: Vec<(f64, u64)> = Vec::new();
    let mut run_until = |bed: &mut Testbed, until: SimTime| {
        while bed.now() < until {
            bed.run_until((bed.now() + TRACE_SLICE).min(until));
            let drained = bed.kernel.ctx.trace.drain();
            let first = (drained.into_iter()).find(|r| r.kind == "rx" && r.who.starts_with("s1"));
            // vals = [packet id, TCP sequence number, payload bytes]
            points.extend(first.map(|r| (r.at.as_secs_f64(), r.vals[1])));
        }
    };

    // Let the flow run for one second on the VIF.
    run_until(&mut mb.bed, SimTime::from_secs(1));

    // Offload: redirect the sender's egress to the SR-IOV VF, as the
    // FasTrak rule manager would. ACKs keep coming back over the VIF.
    let client = mb.client;
    let spec = FlowSpec {
        tenant: Some(TENANT),
        src_ip: Some(client.ip),
        ..FlowSpec::ANY
    };
    mb.bed
        .server_mut(client.server)
        .vm_mut(client.vm)
        .placer
        .install_rule(spec, 10, PathTag::SrIov);

    // Run through the transition and a little beyond.
    run_until(&mut mb.bed, SimTime::from_millis(2_000));
    (mb, points)
}

/// What the run reports: the sender's transport counters and path
/// frames, the receiver's delivered bytes, and whether the trace is
/// monotone in time.
pub(crate) struct Outcome {
    stats: TcpStats,
    sw_frames: u64,
    hw_frames: u64,
    delivered: u64,
    progressing: bool,
}

/// One world, one cell, which `--telemetry` exports.
pub(crate) fn declare(_full: bool) -> Decl<(), Outcome> {
    let mut a = ArtifactSpec::new(
        "fig12",
        "TCP sequence progression across flow migration",
        "the connection progresses normally through the shift: dup-ACKs and fast retransmits, recovery without a single RTO",
    );
    let mut row = |metric, config, paper, unit, read: fn(&Outcome) -> f64| {
        a.push(Col::new(metric, unit, read).at_as("migration", config, paper));
    };
    let during = "during run";
    row("fast retransmits", during, Some(30.0), "events", |o| {
        o.stats.fast_retransmits as f64
    });
    row("RTO timeouts", during, Some(0.0), "events", |o| {
        o.stats.timeouts as f64
    });
    row("dup ACKs received", during, None, "events", |o| {
        o.stats.dup_acks_rx as f64
    });
    row("frames via VIF", "pre+post shift", None, "frames", |o| {
        o.sw_frames as f64
    });
    row("frames via SR-IOV", "post shift", None, "frames", |o| {
        o.hw_frames as f64
    });
    row("bytes delivered", "receiver", None, "bytes", |o| {
        o.delivered as f64
    });
    row(
        "trace monotone in time",
        "receiver capture",
        None,
        "bool",
        |o| o.progressing as u64 as f64,
    );
    a.note(
        "sender egress shifts at t=1 s; ACK path stays on the VIF (asymmetric, as in the paper)",
    );
    a.note("seq-vs-time series available via `experiments fig12 --csv`");
    Decl::new(vec![World::one("migration", ())], "migration", vec![a])
}

/// Regenerate Fig. 12. The receiver-side sequence trace goes back as the
/// `--csv` series. Under `--telemetry`, flow-lifecycle spans are on, and
/// the world's registry and its Chrome trace are exported: one track per
/// component, the sender VM's path residency ("vif" → "sriov") as
/// consecutive slices with the shift at the t=1 s migration instant.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    declare(cx.full).run(cx, |(), cells| {
        let export = cells[0].export;
        let (mut mb, points) = migrate(export);
        // Transport counters at the sender.
        let (client, server) = (mb.client, mb.server);
        let sender = mb.bed.server(client.server);
        let conn_id = sender.vm(client.vm).stack.conn_ids().next().unwrap();
        let stats = sender.vm(client.vm).stack.conn(conn_id).stats;
        let receiver = mb.bed.server(server.server).vm(server.vm);
        let conn_id = receiver
            .stack
            .conn_ids()
            .next()
            .expect("the receiver accepted the flow");
        let got = Outcome {
            stats,
            sw_frames: sender.stats.tx_sw_frames,
            hw_frames: sender.stats.tx_hw_frames,
            delivered: receiver.stack.conn(conn_id).stats.bytes_delivered,
            // Monotone progression check across the migration window.
            progressing: points.windows(2).all(|w| w[1].0 >= w[0].0),
        };
        if let Some(cx) = export {
            let now_ns = mb.bed.now().as_nanos();
            let telemetry = &mut mb.bed.kernel.ctx.telemetry;
            telemetry.spans.finish(now_ns);
            let (spans, audit) = (&telemetry.spans, Some(&telemetry.audit));
            cx.keep_trace(fastrak_telemetry::export::chrome_trace(spans, audit));
            cx.publish(&mut mb.bed, None);
        }
        cx.keep_series(points);
        vec![got]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--csv` series is one point per slice of the 2 s run: point `i`
    /// is the first segment the receiver took in slice `i`.
    #[test]
    fn series_keeps_one_point_per_slice() {
        let cx = Cx::new(false, false);
        run(&cx);
        let points = cx
            .into_exports()
            .series
            .expect("fig12 hands back its series");
        assert_eq!(points.len(), 200);
        let slice_ns = TRACE_SLICE.as_nanos();
        for (i, &(secs, _)) in points.iter().enumerate() {
            let ns = (secs * 1e9).round() as u64;
            assert_eq!(ns / slice_ns, i as u64, "point {i} at {ns} ns");
        }
    }
}
