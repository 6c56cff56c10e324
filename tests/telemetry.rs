//! Telemetry export round-trips: the Chrome trace emitted for the Fig. 12
//! flow migration must parse back through `fastrak_bench::json` and show
//! the software→hardware residency handoff with matching sim-time bounds.

mod support;

use fastrak_bench::experiments::{fig12, Cx};
use fastrak_bench::json::{self, Value};

fn field_num(e: &Value, key: &str) -> Option<f64> {
    e.get(key).and_then(Value::as_num)
}

fn field_str<'a>(e: &'a Value, key: &str) -> Option<&'a str> {
    e.get(key).and_then(Value::as_str)
}

#[test]
fn fig12_chrome_trace_round_trips_with_the_offload_span() {
    let cx = Cx::new(false, true);
    fig12::run(&cx);
    let trace = cx
        .into_exports()
        .chrome_trace
        .expect("fig12 records a trace");
    let doc = json::parse(&trace).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain events");

    // Every component track is named via process_name metadata.
    assert!(
        events.iter().any(
            |e| field_str(e, "ph") == Some("M") && field_str(e, "name") == Some("process_name")
        ),
        "trace must carry process_name metadata"
    );

    fn complete<'a>(events: &'a [Value], name: &'a str) -> impl Iterator<Item = &'a Value> {
        events
            .iter()
            .filter(move |e| field_str(e, "ph") == Some("X") && field_str(e, "name") == Some(name))
    }
    let sriov: Vec<&Value> = complete(events, "sriov").collect();
    assert!(
        !sriov.is_empty(),
        "the t=1s migration must open an sriov residency span"
    );

    // The offload happens at t = 1 s of sim time; ts is microseconds.
    let sr_ts = field_num(sriov[0], "ts").expect("sriov span ts");
    let sr_dur = field_num(sriov[0], "dur").expect("sriov span dur");
    assert!(
        sr_ts >= 1_000_000.0,
        "sriov residency must start at/after the 1 s shift, got {sr_ts} µs"
    );
    assert!(sr_dur > 0.0, "sriov residency must have positive duration");

    // Matching sim-time bounds: on the same (pid, tid) track the preceding
    // vif span closes at the exact instant the sriov span opens — the
    // placer flip is one atomic path change.
    let pid = field_num(sriov[0], "pid").expect("pid");
    let tid = field_num(sriov[0], "tid").expect("tid");
    let vif_end_matches = complete(events, "vif").any(|e| {
        field_num(e, "pid") == Some(pid)
            && field_num(e, "tid") == Some(tid)
            && (field_num(e, "ts").unwrap_or(f64::NAN) + field_num(e, "dur").unwrap_or(f64::NAN)
                - sr_ts)
                .abs()
                < 1e-6
    });
    assert!(
        vif_end_matches,
        "a vif span must end exactly where the sriov span begins (pid={pid}, tid={tid}, ts={sr_ts})"
    );
}

#[test]
fn the_series_a_fastrak_rack_publishes_are_the_pinned_schema() {
    use fastrak::{attach, FasTrakConfig};
    use fastrak_host::vm::VmSpec;
    use fastrak_net::addr::{Ip, TenantId};
    use fastrak_sim::time::SimTime;
    use fastrak_workload::{
        memcached_server, MemslapClient, MemslapConfig, Testbed, TestbedConfig,
    };

    let tenant = TenantId(1);
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 2,
        ..TestbedConfig::default()
    });
    let mc_ip = Ip::tenant_vm(1);
    let server = VmSpec::large("memcached", tenant, mc_ip);
    bed.add_vm(0, server, Box::new(memcached_server()));
    let client = MemslapClient::new(MemslapConfig::paper(vec![mc_ip], None));
    let spec = VmSpec::large("memslap", tenant, Ip::tenant_vm(2));
    bed.add_vm(1, spec, Box::new(client));
    let ft = attach(&mut bed, FasTrakConfig::default());
    ft.start(&mut bed);
    bed.start();
    // Two control intervals: the memcached aggregates are in hardware.
    bed.run_until(SimTime::from_millis(2_200));
    assert!(!ft.offloaded(&bed).is_empty());
    bed.publish_telemetry();
    ft.publish_telemetry(&mut bed);

    let schema = support::schema(&bed.kernel.ctx.telemetry.registry);
    let pinned: Vec<&str> = SCHEMA.lines().collect();
    assert!(
        schema == pinned,
        "published series changed; the benchmark's `telemetry.series` is exact, \
         and DESIGN.md §8 lists them. Now:\n{}",
        schema.join("\n")
    );
}

/// Every series of the rack above, one per line, sorted.
const SCHEMA: &str = "\
ctrl.chaos.blackhole_demotes
ctrl.chaos.ctrl_restarts
ctrl.chaos.hw_path_down_demotes
ctrl.chaos.probe_timeouts
ctrl.chaos.stale_dumps_discarded
ctrl.chaos.tor_reboots_seen
ctrl.de.band_crossers
ctrl.de.churn_suppressed
ctrl.de.deltas_ingested
ctrl.de.epoch_ns
ctrl.de.epochs
ctrl.hw_suspensions
ctrl.install_failures
ctrl.install_retries
ctrl.install_timeouts
ctrl.installs_abandoned
ctrl.reconcile_counter_repairs
ctrl.reconcile_lost_demoted
ctrl.reconcile_stale_removed
ctrl.reconcile_sweeps
ctrl.tenant.demotes{tenant}
ctrl.tenant.occupancy_share{tenant}
ctrl.tenant.offloaded_entries{tenant}
ctrl.tenant.offloads{tenant}
host.ecn_marked{server}
host.hw_path_drops{server}
host.hw_path_up{server}
host.no_route_drops{server}
host.policy_drops{server}
host.rx_drops{server}
host.rx_frames{server}
host.sriov.rx_packets{server,vm}
host.sriov.tx_packets{server,vm}
host.tx_frames.hw{server}
host.tx_frames.sw{server}
host.tx_ring_drops{server}
host.vswitch.datapath_entries{server}
host.vswitch.fast_path_hits{server}
host.vswitch.slow_path_hits{server}
sim.kernel.cancelled_backlog
sim.kernel.cancels_requested
sim.kernel.events_processed
sim.kernel.pending_events
tcp.acks_tx{server}
tcp.bytes_acked{server}
tcp.bytes_delivered{server}
tcp.conns.close_wait{server}
tcp.conns.closed{server}
tcp.conns.closing{server}
tcp.conns.established{server}
tcp.conns.fin_wait_1{server}
tcp.conns.fin_wait_2{server}
tcp.conns.last_ack{server}
tcp.conns.listen{server}
tcp.conns.syn_rcvd{server}
tcp.conns.syn_sent{server}
tcp.conns.time_wait{server}
tcp.cwnd_bytes{server}
tcp.dup_acks_rx{server}
tcp.ecn_ce_rx{server}
tcp.ecn_cwr_tx{server}
tcp.ecn_ece_rx{server}
tcp.ecn_ece_tx{server}
tcp.fast_retransmits{server}
tcp.ooo_segs_rx{server}
tcp.rtx_segs{server}
tcp.segs_rx{server}
tcp.segs_tx{server}
tcp.timeouts{server}
tor.acl_drops{tor}
tor.boot_generation{tor}
tor.ecn_marked{tor}
tor.fastpath.acl_rules{tor}
tor.fastpath.free{tor}
tor.fastpath.tunnel_entries{tor}
tor.fastpath.used{tor}
tor.fwd_drops{tor}
tor.gre_decaps{tor}
tor.gre_encaps{tor}
tor.hw_frames{tor}
tor.install_batches_ok{tor}
tor.install_batches_rejected{tor}
tor.rules_installed{tor}
tor.rules_removed{tor}
tor.sw_frames{tor}";
