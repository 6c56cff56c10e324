//! Table 1 — memcached transaction throughput (§6.1.1).
//!
//! Two memcached server VMs on the test server, five client servers running
//! memslap for the measurement window; traffic routed via the VIF or via
//! the SR-IOV VF. Variant (b) adds a third VM on the test server running
//! the IOzone filesystem benchmark as background load.
//!
//! Paper values — (a): VIF 106,574 tps / 373 µs / 3.3 CPUs vs SR-IOV
//! 215,288 tps / 192 µs / 3.2 CPUs; (b): VIF 96,093 / 414 / 4.1 vs SR-IOV
//! 177,559 / 231 / 4.1.

use fastrak_host::vm::VmSpec;
use fastrak_net::addr::Ip;
use fastrak_workload::{memcached_server, IoZone, MemslapClient, MemslapConfig, VmRef};

use crate::experiments::{Cx, Decl, World};
use crate::report::{Artifact, ArtifactSpec, Col};
use crate::scenarios::{apply_setup, measure_window, rack, PathSetup, TENANT};

/// Measured cell: (aggregate TPS, mean latency µs, test-server CPUs). The
/// cell `export` is given publishes into it.
fn measure(sriov: bool, background: bool, quick: bool, export: Option<&Cx>) -> (f64, f64, f64) {
    let mut bed = rack(31);
    // Paper §6.1.1: "three VMs pinned to four CPUs" on the test server —
    // guest work and hypervisor packet processing share those cores.
    bed.server_mut(0).set_pinned_cpus(Some(4));
    let mc_ips = [Ip::tenant_vm(1), Ip::tenant_vm(2)];
    let mut vms: Vec<VmRef> = Vec::new();
    for (i, &ip) in mc_ips.iter().enumerate() {
        vms.push(bed.add_vm(
            0,
            VmSpec::large(format!("mc{i}"), TENANT, ip),
            Box::new(memcached_server()),
        ));
    }
    if background {
        bed.add_vm(
            0,
            VmSpec::large("iozone", TENANT, Ip::tenant_vm(3)),
            Box::new(IoZone),
        );
    }
    let mut clients: Vec<VmRef> = Vec::new();
    for c in 0..5u16 {
        let ip = Ip::tenant_vm(10 + c);
        let mut cfg = MemslapConfig::paper(mc_ips.to_vec(), None);
        // "Maximum transaction load" without driving the pinned CPUs to
        // saturation (the paper measures 3.3 of the 4 pinned CPUs busy):
        // the run is latency-bound, like Table 2.
        cfg.burst = 2;
        cfg.src_port_base = 43_000 + c * 64;
        let v = bed.add_vm(
            (c % 5) as usize + 1,
            VmSpec::large(format!("slap{c}"), TENANT, ip),
            Box::new(MemslapClient::new(cfg)),
        );
        clients.push(v);
        vms.push(v);
    }
    let setup = if sriov {
        PathSetup::Sriov
    } else {
        PathSetup::BaselineOvs
    };
    apply_setup(&mut bed, setup, &vms);
    let (warm_ms, window_ms) = if quick { (500, 4_000) } else { (1_000, 10_000) };
    let now = measure_window(&mut bed, warm_ms, window_ms, |bed, now| {
        for &c in &clients {
            bed.app_mut::<MemslapClient>(c).begin_window(now);
        }
    });
    let mut tps = 0.0;
    let mut lat_weighted = 0.0;
    let mut n = 0.0;
    for &c in &clients {
        let app = bed.app::<MemslapClient>(c);
        let t = app.tps(now);
        tps += t;
        lat_weighted += app.latency.mean() / 1e3 * t;
        n += t;
    }
    let mean_lat = if n > 0.0 { lat_weighted / n } else { 0.0 };
    let cpus = bed.server(0).cpus_used(now);
    if let Some(cx) = export {
        cx.publish(&mut bed, None);
    }
    (tps, mean_lat, cpus)
}

/// Four worlds, (background?, SR-IOV?) in the order the rows print, and
/// the two tables. `--telemetry` exports the VIF world with IOzone in the
/// background: the busiest test server.
pub(crate) fn declare(_full: bool) -> Decl<(bool, bool), (f64, f64, f64)> {
    let columns = [
        Col::new("TPS", "tps", |c: &(f64, f64, f64)| c.0),
        Col::new("mean latency", "us", |c| c.1),
        Col::new("# CPUs (test server)", "logical CPUs", |c| c.2),
    ];
    let mut worlds = Vec::new();
    let mut arts = Vec::new();
    for (background, mut art, paper) in [
        (
            false,
            ArtifactSpec::new("table1a", "Memcached TPS, no background",
                "the same two memcached servers serve ≈2× the requests at ≈½ the latency over SR-IOV, at comparable CPU"),
            [[106_574.0, 373.0, 3.3], [215_288.0, 192.0, 3.2]],
        ),
        (
            true,
            ArtifactSpec::new("table1b", "Memcached TPS, with IOzone background",
                "background load does not change the SR-IOV advantage"),
            [[96_093.0, 414.0, 4.1], [177_559.0, 231.0, 4.1]],
        ),
    ] {
        for (sriov, paper) in [false, true].into_iter().zip(paper) {
            let config = if sriov { "SR-IOV VF" } else { "VIF" };
            let label = format!("{config}{}", if background { " + IOzone" } else { "" });
            for (col, paper) in columns.iter().zip(paper) {
                art.push(col.at_as(&label, config, Some(paper)));
            }
            worlds.push(World::one(label, (background, sriov)));
        }
        art.note("paper runs memslap for 90 s; this harness uses a shorter stationary window (rates are unaffected)");
        arts.push(art);
    }
    Decl::new(worlds, "VIF + IOzone", arts)
}

/// Regenerate Table 1(a) and 1(b).
pub fn run(cx: &Cx) -> Vec<Artifact> {
    declare(cx.full).run(cx, |&(background, sriov), cells| {
        vec![measure(sriov, background, !cx.full, cells[0].export)]
    })
}
