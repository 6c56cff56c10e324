//! Shared testbed scenarios.
//!
//! * [`MicroBed`] — the §3.1 microbenchmark pair: one client VM and one
//!   server VM on two servers, in any of the paper's path configurations;
//! * [`rack`] — the §6 rack: a test server hosting memcached VMs plus five
//!   client servers running memslap;
//! * [`scp_rack`] — the §6.2 pair of servers where memcached and a file
//!   transfer share a server (`fault_matrix`, `chaos_matrix`).
//!
//! and the two measurement loops the experiments share: [`measure_window`]
//! (warm up, open the windows, measure) and [`run_memslap`] (run until
//! every memslap client finishes).

use fastrak_host::app::GuestApp;
use fastrak_host::vm::VmSpec;
use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::ctrl::Dir;
use fastrak_net::packet::PathTag;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_transport::TcpStats;
use fastrak_workload::{
    memcached_server, FileTransfer, MemslapClient, MemslapConfig, StreamSink, Testbed,
    TestbedConfig, VmRef,
};

/// The evaluation tenant.
pub const TENANT: TenantId = TenantId(1);

/// The paper's path configurations (§3.2 / Fig. 3-5 legends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSetup {
    /// Baseline OVS: software path, no tunneling, no rate limit.
    BaselineOvs,
    /// 'OVS+Tunneling': software path with VXLAN.
    OvsTunnel,
    /// 'OVS+Rate limiting': software path with a VIF limit (bps).
    OvsRateLimit(u64),
    /// Hypervisor bypass via SR-IOV, unlimited.
    Sriov,
    /// Combined software functionality: VXLAN + VIF limit.
    OvsTunnelRateLimit(u64),
    /// SR-IOV with the hardware rate limit enforced at the ToR.
    SriovHwLimit(u64),
}

impl PathSetup {
    /// Label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            PathSetup::BaselineOvs => "Baseline OVS",
            PathSetup::OvsTunnel => "OVS+Tunneling",
            PathSetup::OvsRateLimit(_) => "OVS+Rate limiting",
            PathSetup::Sriov => "SR-IOV",
            PathSetup::OvsTunnelRateLimit(_) => "OVS+Tun+RL",
            PathSetup::SriovHwLimit(_) => "SR-IOV (hw RL)",
        }
    }

    /// Does this setup need vswitch tunneling enabled at build time?
    pub fn tunneling(self) -> bool {
        matches!(
            self,
            PathSetup::OvsTunnel | PathSetup::OvsTunnelRateLimit(_)
        )
    }

    /// Does traffic ride the SR-IOV path?
    pub fn is_sriov(self) -> bool {
        matches!(self, PathSetup::Sriov | PathSetup::SriovHwLimit(_))
    }
}

/// A two-server microbenchmark bed.
pub struct MicroBed {
    /// The testbed.
    pub bed: Testbed,
    /// Client VM (on server 0).
    pub client: VmRef,
    /// Server VM (on server 1).
    pub server: VmRef,
}

/// Client/server VM IPs used by the micro bed.
pub const CLIENT_IP: Ip = Ip(0x0a000001); // 10.0.0.1
/// Server VM IP.
pub const SERVER_IP: Ip = Ip(0x0a000002); // 10.0.0.2

/// Build the §3.1 pair in the given path setup.
pub fn micro_bed(
    setup: PathSetup,
    client_app: Box<dyn GuestApp>,
    server_app: Box<dyn GuestApp>,
    seed: u64,
) -> MicroBed {
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 2,
        tunneling: setup.tunneling(),
        seed,
        ..TestbedConfig::default()
    });
    let client = bed.add_vm(0, VmSpec::large("client", TENANT, CLIENT_IP), client_app);
    let server = bed.add_vm(1, VmSpec::large("server", TENANT, SERVER_IP), server_app);
    apply_setup(&mut bed, setup, &[client, server]);
    MicroBed {
        bed,
        client,
        server,
    }
}

/// Apply a path setup to a set of VMs on an already-built bed.
pub fn apply_setup(bed: &mut Testbed, setup: PathSetup, vms: &[VmRef]) {
    match setup {
        PathSetup::BaselineOvs | PathSetup::OvsTunnel => {}
        PathSetup::OvsRateLimit(bps) | PathSetup::OvsTunnelRateLimit(bps) => {
            for &v in vms {
                bed.set_vif_rate(v, Dir::Egress, bps);
                bed.set_vif_rate(v, Dir::Ingress, bps);
            }
        }
        PathSetup::Sriov => {}
        PathSetup::SriovHwLimit(bps) => {
            for &v in vms {
                bed.set_hw_rate(v, Dir::Egress, bps);
                bed.set_hw_rate(v, Dir::Ingress, bps);
            }
        }
    }
    if setup.is_sriov() {
        bed.authorize_hw_tenant(TENANT);
        for &v in vms {
            bed.force_path(v, PathTag::SrIov);
        }
    }
}

/// Start `bed`, warm up for `warm_ms`, open the measurement windows, and
/// run `window_ms` more; returns the window's end. Every server's CPU
/// window opens, and `open` opens the apps' windows, at the same instant,
/// which it is given.
pub fn measure_window(
    bed: &mut Testbed,
    warm_ms: u64,
    window_ms: u64,
    open: impl FnOnce(&mut Testbed, SimTime),
) -> SimTime {
    bed.start();
    bed.run_until(SimTime::from_millis(warm_ms));
    bed.begin_cpu_windows();
    let now = bed.now();
    open(bed, now);
    bed.run_until(SimTime::from_millis(warm_ms + window_ms));
    bed.now()
}

/// Sum transport counters over every VM in `bed`.
pub fn sum_tcp(bed: &Testbed) -> TcpStats {
    let mut acc = TcpStats::default();
    for v in bed.vms() {
        let stack = &bed.server(v.server).vm(v.vm).stack;
        for id in stack.conn_ids() {
            acc += &stack.conn(id).stats;
        }
    }
    acc
}

/// Start `bed` and run it until every memslap client in `clients` has
/// finished (looked at every 500 ms) or `horizon_s` has passed. Returns the
/// means over the clients of finish time (s), TPS and latency (µs), and the
/// CPUs the test server (index 0) used over the run.
pub fn run_memslap(bed: &mut Testbed, clients: &[VmRef], horizon_s: u64) -> (f64, f64, f64, f64) {
    bed.begin_cpu_windows();
    bed.start();
    let horizon = SimTime::from_secs(horizon_s);
    let done = |bed: &Testbed| {
        clients
            .iter()
            .all(|&c| bed.app::<MemslapClient>(c).finished_at.is_some())
    };
    while bed.now() < horizon && !done(bed) {
        bed.run_until(bed.now() + SimDuration::from_millis(500));
    }
    let now = bed.now();
    let mut finish = 0.0;
    let mut tps = 0.0;
    let mut lat = 0.0;
    for &c in clients {
        let app = bed.app::<MemslapClient>(c);
        let ft = app
            .finish_time()
            .unwrap_or_else(|| now.since(app.started_at().unwrap_or(SimTime::ZERO)));
        finish += ft.as_secs_f64();
        tps += app.completed() as f64 / ft.as_secs_f64().max(1e-9);
        lat += app.latency.mean() / 1e3;
    }
    let n = clients.len() as f64;
    // The paper's "# of CPUs for test". The run stops at the first 500 ms
    // check after the last client finishes, not at that finish, so this
    // averages over the idle tail between them too.
    let cpus = bed.server(0).cpus_used(now);
    (finish / n, tps / n, lat / n, cpus)
}

/// The §6 memcached rack: `n_mc` memcached VMs (+ optional extra VMs) on
/// the test server (index 0), and five client servers. The caller places
/// apps itself; this only builds the empty rack.
pub fn rack(seed: u64) -> Testbed {
    Testbed::build(TestbedConfig {
        n_servers: 6,
        tunneling: false,
        seed,
        ..TestbedConfig::default()
    })
}

/// The §6.2 rack: memcached + scp on server 0, their peers (memslap and the
/// scp sink) on server 1. High-pps memcached aggregates should offload; the
/// scp flow should not. Returns the bed and the memslap VM.
pub fn scp_rack() -> (Testbed, VmRef) {
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 2,
        tunneling: false,
        ..TestbedConfig::default()
    });
    bed.add_vm(
        0,
        VmSpec::large("memcached", TENANT, Ip::tenant_vm(1)),
        Box::new(memcached_server()),
    );
    let mut ft = FileTransfer::paper_default(Ip::tenant_vm(4), 22, 50_000);
    ft.total_bytes = 1 << 30;
    bed.add_vm(
        0,
        VmSpec::large("scp-src", TENANT, Ip::tenant_vm(2)),
        Box::new(ft),
    );
    let memslap = bed.add_vm(
        1,
        VmSpec::large("memslap", TENANT, Ip::tenant_vm(3)),
        Box::new(MemslapClient::new(MemslapConfig::paper(
            vec![Ip::tenant_vm(1)],
            None,
        ))),
    );
    bed.add_vm(
        1,
        VmSpec::large("scp-sink", TENANT, Ip::tenant_vm(4)),
        Box::new(StreamSink::new(22)),
    );
    (bed, memslap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_workload::{StreamConfig, StreamSender, StreamSink};

    #[test]
    fn micro_bed_builds_all_setups() {
        for setup in [
            PathSetup::BaselineOvs,
            PathSetup::OvsTunnel,
            PathSetup::OvsRateLimit(10_000_000_000),
            PathSetup::Sriov,
            PathSetup::OvsTunnelRateLimit(1_000_000_000),
            PathSetup::SriovHwLimit(1_000_000_000),
        ] {
            let mb = micro_bed(
                setup,
                Box::new(StreamSender::new(StreamConfig::netperf(
                    SERVER_IP, 5001, 1448,
                ))),
                Box::new(StreamSink::new(5001)),
                1,
            );
            assert_eq!(mb.bed.vms().len(), 2, "{setup:?}");
        }
    }

    #[test]
    fn ip_constants_match_helpers() {
        assert_eq!(CLIENT_IP, Ip::new(10, 0, 0, 1));
        assert_eq!(SERVER_IP, Ip::new(10, 0, 0, 2));
    }
}
