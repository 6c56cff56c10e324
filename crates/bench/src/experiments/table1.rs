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

use crate::cells;
use crate::experiments::Cx;
use crate::report::{Artifact, Row};
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

/// Regenerate Table 1(a) and 1(b). `--telemetry` exports the VIF world
/// with IOzone in the background: the busiest test server.
pub fn run(cx: &Cx) -> Vec<Artifact> {
    let full = cx.full;
    let mut a = Artifact::new(
        "table1a",
        "Memcached TPS, no background",
        "the same two memcached servers serve ≈2× the requests at ≈½ the latency over SR-IOV, at comparable CPU",
    );
    let mut b = Artifact::new(
        "table1b",
        "Memcached TPS, with IOzone background",
        "background load does not change the SR-IOV advantage",
    );
    // Four worlds: (background?, SR-IOV?) in the order the rows print.
    let grid = [(false, false), (false, true), (true, false), (true, true)];
    let mut measured = cells::map(&grid, |&(background, sriov)| {
        let export = (background && !sriov).then_some(cx);
        measure(sriov, background, !full, export)
    })
    .into_iter();
    for (art, paper) in [
        (&mut a, [(106_574.0, 373.0, 3.3), (215_288.0, 192.0, 3.2)]),
        (&mut b, [(96_093.0, 414.0, 4.1), (177_559.0, 231.0, 4.1)]),
    ] {
        for (sriov, (p_tps, p_lat, p_cpu)) in [(false, paper[0]), (true, paper[1])] {
            let (tps, lat, cpus) = measured.next().expect("one world per row group");
            let cfg = if sriov { "SR-IOV VF" } else { "VIF" };
            art.push(Row::new("TPS", cfg, Some(p_tps), tps, "tps"));
            art.push(Row::new("mean latency", cfg, Some(p_lat), lat, "us"));
            art.push(Row::new(
                "# CPUs (test server)",
                cfg,
                Some(p_cpu),
                cpus,
                "logical CPUs",
            ));
        }
        art.note("paper runs memslap for 90 s; this harness uses a shorter stationary window (rates are unaffected)");
    }
    vec![a, b]
}
