//! # fastrak-workload
//!
//! The guest applications the paper evaluates with, plus the testbed
//! builder that assembles the evaluation rack:
//!
//! * [`rr`] — netperf `TCP_RR` (closed-loop and burst/pipelined modes);
//! * [`stream`] — netperf `TCP_STREAM` with `TCP_NODELAY` and preserved
//!   application write boundaries, the receiving sink, and the disk-bound
//!   file transfer (scp stand-in);
//! * [`memcached`] — the memcached server + memslap client models;
//! * [`incast`] — the partition-aggregate fan-in;
//! * [`tenants`] — Zipf-skewed tenant fleets and the churner;
//! * [`background`] — IOzone background load;
//! * [`testbed`] — the 6-server, dual-link-per-server rack of §5.1.
//!
//! The four transaction clients and two servers share one
//! request/response engine (`txn`): connection FIFOs, framing and the
//! measurement window are written once there.

pub mod background;
pub mod composite;
pub mod incast;
pub mod memcached;
pub mod rr;
pub mod stream;
pub mod tenants;
pub mod testbed;
mod txn;

pub use background::IoZone;
pub use composite::Composite;
pub use incast::{incast_worker, IncastAggregator, IncastConfig, INCAST_PORT};
pub use memcached::{memcached_server, Memcached, MemslapClient, MemslapConfig, MEMCACHED_PORT};
pub use rr::{RrClient, RrClientConfig, RrServer, RrServerConfig};
pub use stream::{FileTransfer, StreamConfig, StreamSender, StreamSink};
pub use tenants::{
    add_churner, zipf_weights, Churner, ChurnerConfig, ChurnerSetup, EchoRangeServer, FleetTenant,
    TenantFleet, TenantFleetConfig,
};
pub use testbed::{tenant_vlan, Testbed, TestbedConfig, VmRef};

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_host::vm::VmSpec;
    use fastrak_net::addr::{Ip, TenantId};
    use fastrak_net::packet::PathTag;
    use fastrak_sim::time::{SimDuration, SimTime};

    fn two_server_bed(tunneling: bool) -> Testbed {
        Testbed::build(TestbedConfig {
            n_servers: 2,
            tunneling,
            ..TestbedConfig::default()
        })
    }

    #[test]
    fn stream_reaches_multi_gbps_on_vif() {
        let mut bed = two_server_bed(false);
        let t = TenantId(1);
        let sink = bed.add_vm(
            1,
            VmSpec::large("sink", t, Ip::tenant_vm(2)),
            Box::new(StreamSink::new(5001)),
        );
        let _src = bed.add_vm(
            0,
            VmSpec::large("src", t, Ip::tenant_vm(1)),
            Box::new(StreamSender::new(StreamConfig::netperf(
                Ip::tenant_vm(2),
                5001,
                32_000,
            ))),
        );
        bed.start();
        bed.run_until(SimTime::from_millis(200));
        // Window after slow-start warmup.
        let now = bed.now();
        bed.server_mut(1)
            .vm_mut(sink.vm)
            .app_as_mut::<StreamSink>()
            .meter
            .begin_window(now);
        bed.run_until(SimTime::from_millis(700));
        let bps = bed.app::<StreamSink>(sink).goodput_bps(bed.now());
        assert!(
            bps > 5e9,
            "large writes should achieve multi-Gbps on the VIF path, got {bps:.2e}"
        );
    }

    #[test]
    fn small_writes_much_slower_than_large() {
        let run = |size: u64| {
            let mut bed = two_server_bed(false);
            let t = TenantId(1);
            let sink = bed.add_vm(
                1,
                VmSpec::large("sink", t, Ip::tenant_vm(2)),
                Box::new(StreamSink::new(5001)),
            );
            bed.add_vm(
                0,
                VmSpec::large("src", t, Ip::tenant_vm(1)),
                Box::new(StreamSender::new(StreamConfig::netperf(
                    Ip::tenant_vm(2),
                    5001,
                    size,
                ))),
            );
            bed.start();
            bed.run_until(SimTime::from_millis(200));
            let now = bed.now();
            bed.server_mut(1)
                .vm_mut(sink.vm)
                .app_as_mut::<StreamSink>()
                .meter
                .begin_window(now);
            bed.run_until(SimTime::from_millis(500));
            bed.app::<StreamSink>(sink).goodput_bps(bed.now())
        };
        let small = run(64);
        let large = run(32_000);
        assert!(
            large > 10.0 * small,
            "64B writes ({small:.2e} bps) must be far slower than 32KB ({large:.2e} bps)"
        );
    }

    #[test]
    fn rr_closed_loop_latency_sane_and_sriov_faster() {
        let run = |path: PathTag| {
            let mut bed = two_server_bed(false);
            let t = TenantId(1);
            let srv = bed.add_vm(
                1,
                VmSpec::large("rrsrv", t, Ip::tenant_vm(2)),
                Box::new(RrServer::new(RrServerConfig {
                    port: 5002,
                    req_size: 64,
                    resp_size: 64,
                    service_cpu: SimDuration::ZERO,
                })),
            );
            let cli = bed.add_vm(
                0,
                VmSpec::large("rrcli", t, Ip::tenant_vm(1)),
                Box::new(RrClient::new(RrClientConfig::closed_loop(
                    Ip::tenant_vm(2),
                    5002,
                    64,
                ))),
            );
            bed.authorize_hw_tenant(t);
            if path == PathTag::SrIov {
                bed.force_path(cli, path);
                bed.force_path(srv, path);
            }
            bed.start();
            bed.run_until(SimTime::from_millis(900));
            let app = bed.app::<RrClient>(cli);
            assert!(app.completed() > 100, "RR must make progress");
            app.latency.mean() / 1000.0 // us
        };
        let vif_us = run(PathTag::Vif);
        let hw_us = run(PathTag::SrIov);
        // Paper: SR-IOV roughly halves RR latency.
        assert!(
            hw_us < 0.75 * vif_us,
            "SR-IOV RTT {hw_us:.1}us must beat VIF {vif_us:.1}us"
        );
        assert!(
            vif_us > 10.0 && vif_us < 500.0,
            "VIF RTT {vif_us:.1}us sane"
        );
    }

    #[test]
    fn memslap_round_trips() {
        let mut bed = two_server_bed(false);
        let t = TenantId(1);
        bed.add_vm(
            1,
            VmSpec::large("mc", t, Ip::tenant_vm(2)),
            Box::new(memcached_server()),
        );
        let cli = bed.add_vm(
            0,
            VmSpec::large("slap", t, Ip::tenant_vm(1)),
            Box::new(MemslapClient::new(MemslapConfig::paper(
                vec![Ip::tenant_vm(2)],
                Some(2_000),
            ))),
        );
        bed.start();
        bed.run_until(SimTime::from_secs(5));
        let app = bed.app::<MemslapClient>(cli);
        assert_eq!(app.completed(), 2_000);
        assert!(app.finish_time().is_some());
        assert!(app.latency.quantile(0.99) > app.latency.quantile(0.5));
    }

    /// The total split 1 000 + 1 001 over the two connections; it used to
    /// be 1 000 each, so the client finished at 2 000.
    #[test]
    fn memslap_completes_a_total_that_does_not_divide_evenly() {
        let mut bed = two_server_bed(false);
        let t = TenantId(1);
        bed.add_vm(
            1,
            VmSpec::large("mc", t, Ip::tenant_vm(2)),
            Box::new(memcached_server()),
        );
        let cli = bed.add_vm(
            0,
            VmSpec::large("slap", t, Ip::tenant_vm(1)),
            Box::new(MemslapClient::new(MemslapConfig::paper(
                vec![Ip::tenant_vm(2)],
                Some(2_001),
            ))),
        );
        bed.start();
        bed.run_until(SimTime::from_secs(5));
        let app = bed.app::<MemslapClient>(cli);
        assert_eq!(app.completed(), 2_001);
        assert!(app.finished_at.is_some());
    }

    /// It used to divide by zero when the start timer fired.
    #[test]
    #[should_panic(
        expected = "MemslapConfig.targets is empty: total_requests 10 has no connection"
    )]
    fn memslap_refuses_a_total_without_targets() {
        MemslapClient::new(MemslapConfig::paper(Vec::new(), Some(10)));
    }

    #[test]
    fn incast_rounds_complete_then_connections_close() {
        let mut bed = Testbed::build(TestbedConfig {
            n_servers: 5,
            ..TestbedConfig::default()
        });
        let t = TenantId(1);
        let mut workers = Vec::new();
        for i in 0..4usize {
            let ip = Ip::tenant_vm(i as u16 + 2);
            bed.add_vm(
                i + 1,
                VmSpec::large(format!("w{i}"), t, ip),
                Box::new(incast_worker(16_000)),
            );
            workers.push(ip);
        }
        // Short MSL so the test can watch TIME_WAIT expire.
        let tcp = fastrak_transport::tcp::TcpConfig {
            msl: SimDuration::from_millis(100),
            ..Default::default()
        };
        let agg = bed.add_vm_tcp(
            0,
            VmSpec::large("agg", t, Ip::tenant_vm(1)),
            Box::new(IncastAggregator::new(IncastConfig {
                long_flows: 1,
                ..IncastConfig::fan_in(workers, 16_000, 50)
            })),
            tcp,
        );
        bed.start();
        bed.run_until(SimTime::from_secs(3));
        let app = bed.app::<IncastAggregator>(agg);
        assert_eq!(app.completed_rounds, 50, "all rounds must complete");
        assert_eq!(app.fct.count(), 50);
        assert!(app.finish_time().is_some());
        assert!(app.fct.quantile(0.99) >= app.fct.quantile(0.5));
        // Closing the fan-out exercises the full FIN handshake: after the
        // 2MSL quiet period no connection on the aggregator is left open.
        bed.run_until(SimTime::from_secs(5));
        let stack = &bed.server(0).vm(agg.vm).stack;
        assert!(
            stack.conn_ids().all(|id| stack.conn(id).is_closed()),
            "all aggregator connections must reach CLOSED"
        );
    }

    #[test]
    fn file_transfer_paces_at_disk_rate() {
        let mut bed = two_server_bed(false);
        let t = TenantId(1);
        bed.add_vm(
            1,
            VmSpec::large("sink", t, Ip::tenant_vm(2)),
            Box::new(StreamSink::new(22)),
        );
        let mut ft = FileTransfer::paper_default(Ip::tenant_vm(2), 22, 50_000);
        ft.total_bytes = 64 * 1024 * 200; // 13 MB at 500 Mbps ≈ 0.21 s
        let src = bed.add_vm(0, VmSpec::large("scp", t, Ip::tenant_vm(1)), Box::new(ft));
        bed.start();
        bed.run_until(SimTime::from_secs(2));
        let app = bed.app::<FileTransfer>(src);
        let fin = app.finished_at.expect("transfer completes");
        let secs = fin.as_secs_f64();
        let expect = (64.0 * 1024.0 * 200.0 * 8.0) / 500e6;
        assert!(
            (secs - expect).abs() / expect < 0.2,
            "disk-paced transfer took {secs:.3}s, expected ~{expect:.3}s"
        );
    }

    #[test]
    fn vif_rate_limit_caps_stream() {
        let mut bed = two_server_bed(false);
        let t = TenantId(1);
        let sink = bed.add_vm(
            1,
            VmSpec::large("sink", t, Ip::tenant_vm(2)),
            Box::new(StreamSink::new(5001)),
        );
        let src = bed.add_vm(
            0,
            VmSpec::large("src", t, Ip::tenant_vm(1)),
            Box::new(StreamSender::new(StreamConfig::netperf(
                Ip::tenant_vm(2),
                5001,
                32_000,
            ))),
        );
        bed.set_vif_rate(src, fastrak_net::ctrl::Dir::Egress, 1_000_000_000);
        bed.start();
        bed.run_until(SimTime::from_millis(300));
        let now = bed.now();
        bed.server_mut(1)
            .vm_mut(sink.vm)
            .app_as_mut::<StreamSink>()
            .meter
            .begin_window(now);
        bed.run_until(SimTime::from_millis(900));
        let bps = bed.app::<StreamSink>(sink).goodput_bps(bed.now());
        assert!(
            bps < 1.05e9,
            "1 Gbps egress limit must cap goodput, got {bps:.2e}"
        );
        assert!(bps > 0.5e9, "but traffic must still flow, got {bps:.2e}");
    }
}
