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
use fastrak_workload::{StreamConfig, StreamSender, StreamSink, Testbed};

use crate::experiments::Cx;
use crate::report::{Artifact, Row};
use crate::scenarios::{micro_bed, MicroBed, PathSetup, SERVER_IP, TENANT};

/// How much simulated time runs between two drains of the trace ring; the
/// sequence trace keeps one point per slice.
const TRACE_SLICE: SimDuration = SimDuration::from_millis(10);

/// Run the migration: one second on the VIF, then the sender's egress
/// moves to SR-IOV, one more second. Returns the world and the
/// receiver-side (seconds, TCP sequence number) trace: the first segment
/// the receiver takes in each [`TRACE_SLICE`].
fn migrate(cx: &Cx) -> (MicroBed, Vec<(f64, u64)>) {
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
    if cx.telemetry {
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

/// Regenerate Fig. 12. The receiver-side sequence trace goes back as the
/// `--csv` series. Under `--telemetry`, flow-lifecycle spans are on, and
/// the world's registry and its Chrome trace are exported: one track per
/// component, the sender VM's path residency ("vif" → "sriov") as
/// consecutive slices with the shift at the t=1 s migration instant.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let (mut mb, points) = migrate(cx);

    // Transport counters at the sender.
    let (client, server) = (mb.client, mb.server);
    let sender = mb.bed.server(client.server);
    let conn_id = sender.vm(client.vm).stack.conn_ids().next().unwrap();
    let stats = sender.vm(client.vm).stack.conn(conn_id).stats;
    let (hw_frames, sw_frames) = (sender.stats.tx_hw_frames, sender.stats.tx_sw_frames);
    let receiver = mb.bed.server(server.server).vm(server.vm);
    let delivered =
        (receiver.stack.conn_ids().next()).map(|id| receiver.stack.conn(id).stats.bytes_delivered);
    if cx.telemetry {
        let now_ns = mb.bed.now().as_nanos();
        let telemetry = &mut mb.bed.kernel.ctx.telemetry;
        telemetry.spans.finish(now_ns);
        let (spans, audit) = (&telemetry.spans, Some(&telemetry.audit));
        cx.keep_trace(fastrak_telemetry::export::chrome_trace(spans, audit));
        cx.publish(&mut mb.bed, None);
    }

    // Monotone progression check across the migration window.
    let progressing = points.windows(2).all(|w| w[1].0 >= w[0].0);
    cx.keep_series(points);

    let mut a = Artifact::new(
        "fig12",
        "TCP sequence progression across flow migration",
        "the connection progresses normally through the shift: dup-ACKs and fast retransmits, recovery without a single RTO",
    );
    a.push(Row::new(
        "fast retransmits",
        "during run",
        Some(30.0),
        stats.fast_retransmits as f64,
        "events",
    ));
    a.push(Row::new(
        "RTO timeouts",
        "during run",
        Some(0.0),
        stats.timeouts as f64,
        "events",
    ));
    a.push(Row::new(
        "dup ACKs received",
        "during run",
        None,
        stats.dup_acks_rx as f64,
        "events",
    ));
    a.push(Row::new(
        "frames via VIF",
        "pre+post shift",
        None,
        sw_frames as f64,
        "frames",
    ));
    a.push(Row::new(
        "frames via SR-IOV",
        "post shift",
        None,
        hw_frames as f64,
        "frames",
    ));
    if let Some(d) = delivered {
        a.push(Row::new(
            "bytes delivered",
            "receiver",
            None,
            d as f64,
            "bytes",
        ));
    }
    a.push(Row::new(
        "trace monotone in time",
        "receiver capture",
        None,
        progressing as u64 as f64,
        "bool",
    ));
    a.note(
        "sender egress shifts at t=1 s; ACK path stays on the VIF (asymmetric, as in the paper)",
    );
    a.note("seq-vs-time series available via `experiments fig12 --csv`");
    vec![a]
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
