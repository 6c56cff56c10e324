//! End-to-end controller tests: FasTrak on a live testbed, reproducing the
//! qualitative behaviour of the paper's §6.2 (automatic migration of the
//! high-pps application onto the express lane while the low-pps file
//! transfer stays in software).

use fastrak::{attach, DeConfig, FasTrakConfig, RuleManager, Timing, VmLimit};
use fastrak_host::vm::VmSpec;
use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::ctrl::Dir;
use fastrak_net::flow::FlowAggregate;
use fastrak_net::packet::PathTag;
use fastrak_sim::time::SimTime;
use fastrak_workload::{
    memcached_server, FileTransfer, MemslapClient, MemslapConfig, StreamSink, Testbed,
    TestbedConfig, MEMCACHED_PORT,
};

const T: TenantId = TenantId(1);

/// Build: server 0 hosts memcached + scp source; server 1 hosts the memslap
/// client + scp sink.
fn build() -> (Testbed, fastrak_workload::VmRef, fastrak_workload::VmRef) {
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 2,
        tunneling: false,
        ..TestbedConfig::default()
    });
    let mc_ip = Ip::tenant_vm(1);
    let scp_src_ip = Ip::tenant_vm(2);
    let cli_ip = Ip::tenant_vm(3);
    let scp_dst_ip = Ip::tenant_vm(4);

    let mc = bed.add_vm(
        0,
        VmSpec::large("memcached", T, mc_ip),
        Box::new(memcached_server()),
    );
    let mut ft = FileTransfer::paper_default(scp_dst_ip, 22, 50_000);
    ft.total_bytes = 1 << 30; // 1 GB is plenty for the test horizon
    bed.add_vm(0, VmSpec::large("scp-src", T, scp_src_ip), Box::new(ft));

    let cli = bed.add_vm(
        1,
        VmSpec::large("memslap", T, cli_ip),
        Box::new(MemslapClient::new(MemslapConfig::paper(vec![mc_ip], None))),
    );
    bed.add_vm(
        1,
        VmSpec::large("scp-sink", T, scp_dst_ip),
        Box::new(StreamSink::new(22)),
    );
    (bed, mc, cli)
}

#[test]
fn offloads_high_pps_memcached_not_scp() {
    let (mut bed, mc, _cli) = build();
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            timing: Timing::fine(),
            de: DeConfig {
                max_offloaded: Some(2),
                ..DeConfig::paper()
            },
            rule_manager: RuleManager::new(),
            ..Default::default()
        },
    );
    ft.start(&mut bed);
    bed.start();
    // A few control intervals (C = 1 s with fine timing).
    bed.run_until(SimTime::from_secs(5));

    let offloaded = ft.offloaded(&bed);
    assert!(
        !offloaded.is_empty(),
        "controller must offload something within 5 s"
    );
    // Every offloaded aggregate is a memcached endpoint (port 11211),
    // never the scp flow (port 22).
    for agg in offloaded {
        let port = match agg {
            FlowAggregate::SrcApp { port, .. } | FlowAggregate::DstApp { port, .. } => *port,
        };
        assert_eq!(
            port, MEMCACHED_PORT,
            "only the high-pps memcached aggregates may be offloaded, got {agg:?}"
        );
    }

    // Traffic actually moved: the memcached server's flows leave via the
    // SR-IOV VF now.
    let srv = bed.server(mc.server);
    assert!(
        srv.stats.tx_hw_frames > 1000,
        "hardware path must carry the memcached responses, hw_frames={}",
        srv.stats.tx_hw_frames
    );
    // The placer on the memcached VM agrees.
    let placed = srv
        .vm(mc.vm)
        .placer
        .current_path(&fastrak_net::flow::FlowKey {
            tenant: T,
            src_ip: mc.ip,
            dst_ip: Ip::tenant_vm(3),
            proto: fastrak_net::flow::Proto::Tcp,
            src_port: MEMCACHED_PORT,
            dst_port: 43_000,
        });
    assert_eq!(placed, PathTag::SrIov);
}

#[test]
fn migration_prepare_pulls_flows_back() {
    let (mut bed, mc, _cli) = build();
    let ft = attach(&mut bed, FasTrakConfig::default());
    ft.start(&mut bed);
    bed.start();
    bed.run_until(SimTime::from_secs(4));
    assert!(!ft.offloaded(&bed).is_empty(), "offload first");

    // Prepare migration of the memcached VM: all its aggregates demote.
    let now = bed.now();
    ft.prepare_migration(&mut bed, T, mc.ip, now);
    bed.run_until(bed.now() + fastrak_sim::time::SimDuration::from_millis(200));
    let touching: Vec<_> = ft
        .offloaded(&bed)
        .iter()
        .filter(|a| match a {
            FlowAggregate::SrcApp { ip, .. } | FlowAggregate::DstApp { ip, .. } => *ip == mc.ip,
        })
        .collect();
    assert!(
        touching.is_empty(),
        "migrating VM's aggregates must be demoted, still offloaded: {touching:?}"
    );
    // Traffic still flows (over the VIF): the client keeps completing.
    let before = bed.app::<MemslapClient>(_cli).completed();
    bed.run_until(bed.now() + fastrak_sim::time::SimDuration::from_secs(1));
    let after = bed.app::<MemslapClient>(_cli).completed();
    assert!(after > before, "traffic must continue after demotion");
}

#[test]
fn fps_splits_rate_limits_across_paths() {
    let (mut bed, mc, cli) = build();
    let limit = 2_000_000_000; // 2 Gbps egress limit on the memcached VM
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            limits: vec![VmLimit {
                tenant: T,
                vm_ip: mc.ip,
                egress_bps: Some(limit),
                ingress_bps: None,
            }],
            ..Default::default()
        },
    );
    ft.start(&mut bed);
    bed.start();
    bed.run_until(SimTime::from_secs(6));

    // The local controller must have configured a split whose sum respects
    // L + 2*O.
    let lc = bed
        .kernel
        .node::<fastrak::LocalController>(ft.locals[mc.server]);
    let (sw, hw) = lc
        .split_of(T, mc.ip, Dir::Egress)
        .expect("a split must have been configured");
    let bound = (limit as f64 * 1.12) as u64;
    assert!(sw + hw <= bound, "sw {sw} + hw {hw} exceeds {bound}");
    // The hot (offloaded) path holds the lion's share of the limit.
    assert!(
        hw > sw,
        "demand lives on the hardware path, so FPS must favour it: sw={sw} hw={hw}"
    );
    // And the client keeps making progress under the limits.
    assert!(bed.app::<MemslapClient>(cli).completed() > 10_000);
}

// ---------------------------------------------------------------------------
// Control-plane fault tolerance: seeded fault injection, install
// retry/timeout/backoff, atomic ToR batches, reconciliation sweep.
// ---------------------------------------------------------------------------

use fastrak::{CtrlPlaneConfig, TorController};
use fastrak_net::ctrl::{Ctl, CtrlReply, CtrlRequest, TorRule};
use fastrak_net::event::{ctl_fault_layer, duplicate_ctl_event, Event, NetCtx};
use fastrak_net::flow::{FlowSpec, Proto};
use fastrak_net::rules::Action;
use fastrak_sim::fault::{FaultConfig, FaultLayer, LinkFaults};
use fastrak_sim::kernel::{Api, Kernel, Node, NodeId};
use fastrak_sim::time::SimDuration;
use fastrak_switch::tor::{Tor, TorConfig};

/// Classifier for [`FaultLayer`]: fault only Ack/Error control replies, so
/// install acknowledgements get lost while the periodic measurement loops
/// (stat dumps, demand reports) keep running.
fn reply_only(ev: &Event) -> bool {
    let Event::Ctl(m) = ev else {
        return false;
    };
    match &m.body {
        Ctl::Reply(r) => matches!(r, CtrlReply::Ack { .. } | CtrlReply::Error { .. }),
        Ctl::Req(_) | Ctl::Report(_) | Ctl::Decision(_) | Ctl::Migration(_) | Ctl::HwPath(_) => {
            false
        }
    }
}

fn exact_rule(tenant: TenantId, src_port: u16) -> TorRule {
    TorRule {
        tenant,
        spec: FlowSpec {
            tenant: Some(tenant),
            src_ip: Some(Ip::tenant_vm(200)),
            dst_ip: Some(Ip::tenant_vm(201)),
            proto: Some(Proto::Tcp),
            src_port: Some(src_port),
            dst_port: Some(80),
        },
        priority: 10,
        action: Action::Allow,
        tunnel: None,
        qos: None,
    }
}

/// Test node that records every control reply addressed to it.
#[derive(Default)]
struct Probe {
    replies: Vec<CtrlReply>,
}

impl Node<Event, NetCtx> for Probe {
    fn on_event(&mut self, ev: Event, _api: &mut Api<'_, Event, NetCtx>) {
        let Event::Ctl(m) = ev else {
            return;
        };
        match m.body {
            Ctl::Reply(r) => self.replies.push(r),
            Ctl::Req(_)
            | Ctl::Report(_)
            | Ctl::Decision(_)
            | Ctl::Migration(_)
            | Ctl::HwPath(_) => {}
        }
    }
}

/// Losing every install Ack for a window forces timeout-driven retries (and
/// eventually abandonment + re-offload); once the window lifts the
/// controller must converge with its bookkeeping matching ToR hardware.
#[test]
fn lost_install_acks_retry_until_converged() {
    let (mut bed, _mc, _cli) = build();
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            timing: Timing::fine(),
            ..Default::default()
        },
    );
    ft.start(&mut bed);
    bed.start();
    // The blackout: every control reply is lost from 400 ms to 1.5 s; then
    // a zero-probability plane, which delivers everything untouched.
    bed.run_until(SimTime::from_millis(400));
    bed.kernel.set_fault_layer(FaultLayer::new(
        FaultConfig {
            seed: 11,
            default_link: LinkFaults::loss(1.0),
            ..Default::default()
        },
        reply_only,
        duplicate_ctl_event,
    ));
    bed.run_until(SimTime::from_millis(1_500));
    let fp = bed.kernel.fault_plane().expect("fault plane attached");
    let dropped = fp.stats.dropped;
    bed.kernel.set_fault_layer(FaultLayer::new(
        FaultConfig::default(),
        reply_only,
        duplicate_ctl_event,
    ));
    bed.run_until(SimTime::from_millis(5_300));

    // The controller's fault counters live in the telemetry registry now
    // (incremented live on the control path, no publish step needed).
    let reg = &bed.kernel.ctx.telemetry.registry;
    let timeouts = reg.counter_by_name("ctrl.install_timeouts").unwrap_or(0);
    let retries = reg.counter_by_name("ctrl.install_retries").unwrap_or(0);
    assert!(
        timeouts >= 1,
        "dropped acks must trip the install timeout, got {timeouts}"
    );
    assert!(
        retries >= 1,
        "timeouts must trigger retransmits, got {retries}"
    );
    let tc = bed.kernel.node::<TorController>(ft.tor_ctrl);
    assert!(
        !tc.offloaded().is_empty(),
        "controller must converge once the loss window lifts"
    );
    assert_eq!(
        tc.entries_used,
        bed.tor().acl_rules(),
        "controller bookkeeping must match ToR hardware after recovery"
    );
    assert!(dropped >= 1, "the window must have eaten acks");
}

/// Acceptance criterion: under 5% seeded control-message loss the
/// controller converges to the same offloaded set as the fault-free run,
/// with `entries_used` equal to the ToR's installed rule count at the end.
#[test]
fn five_percent_control_loss_converges_to_fault_free_set() {
    let horizon = SimTime::from_millis(6_300);
    let run = |faults: Option<FaultConfig>| {
        let (mut bed, _mc, _cli) = build();
        // max_offloaded keeps the decision problem well-separated (the two
        // memcached aggregates win by orders of magnitude), so set equality
        // tests control-plane recovery rather than DE tie-breaking on
        // borderline aggregates under perturbed measurements.
        let ft = attach(
            &mut bed,
            FasTrakConfig {
                de: DeConfig {
                    max_offloaded: Some(2),
                    ..DeConfig::paper()
                },
                ..Default::default()
            },
        );
        if let Some(cfg) = faults {
            bed.kernel.set_fault_layer(ctl_fault_layer(cfg));
        }
        ft.start(&mut bed);
        bed.start();
        bed.run_until(horizon);
        let mut aggs: Vec<String> = ft
            .offloaded(&bed)
            .iter()
            .map(|a| format!("{a:?}"))
            .collect();
        aggs.sort();
        let tc = bed.kernel.node::<TorController>(ft.tor_ctrl);
        let dropped = bed
            .kernel
            .fault_plane()
            .map(|fp| fp.stats.dropped)
            .unwrap_or(0);
        (aggs, tc.entries_used, bed.tor().acl_rules(), dropped)
    };

    let (clean_set, clean_used, clean_hw, _) = run(None);
    let (lossy_set, lossy_used, lossy_hw, dropped) = run(Some(FaultConfig {
        seed: 23,
        default_link: LinkFaults::loss(0.05),
        ..Default::default()
    }));

    assert!(!clean_set.is_empty(), "fault-free run must offload");
    assert!(dropped > 0, "5% loss must actually drop messages");
    assert_eq!(
        lossy_set, clean_set,
        "5% control loss must converge to the fault-free offloaded set"
    );
    assert_eq!(clean_used, clean_hw, "fault-free invariant");
    assert_eq!(
        lossy_used, lossy_hw,
        "entries_used == installed ToR rules must hold under loss"
    );
}

/// A ToR install batch that dies mid-way (fast-path memory exhausted) must
/// roll back the rules it already placed: no partial state, one Error.
#[test]
fn partial_install_batch_rolls_back_at_tor() {
    let mut kernel = Kernel::new(NetCtx::new(), 1);
    let mut cfg = TorConfig::testbed("tor", 0);
    cfg.fastpath_capacity = 2;
    let tor = kernel.add_node(Tor::new(cfg));
    let probe = kernel.add_node(Probe::default());

    // Pre-existing rule occupies one of the two slots.
    let pre = exact_rule(T, 1);
    kernel.node_mut::<Tor>(tor).install_rule(&pre).unwrap();

    // Batch of three: the first already present (skipped), the second fits,
    // the third exceeds capacity — the whole batch must unwind.
    kernel.post(
        tor,
        SimTime::from_micros(10),
        Event::ctl(
            probe,
            Ctl::Req(CtrlRequest::InstallTorRules {
                rules: vec![exact_rule(T, 1), exact_rule(T, 2), exact_rule(T, 3)],
                xid: 7,
            }),
        ),
    );
    kernel.run_until(SimTime::from_millis(5));

    let t = kernel.node::<Tor>(tor);
    assert_eq!(t.acl_rules(), 1, "failed batch must leave no residue");
    assert!(t.has_rule(T, &pre.spec), "pre-existing rule must survive");
    assert_eq!(t.fastpath_used(), 1, "usage counter must unwind too");
    let p = kernel.node::<Probe>(probe);
    assert!(
        matches!(p.replies.as_slice(), [CtrlReply::Error { xid: 7, .. }]),
        "exactly one Error reply expected, got {:?}",
        p.replies
    );
}

/// A duplicated/retransmitted install batch (same xid, same rules) is a
/// no-op at the ToR: rules are matched by identity, not installed twice.
#[test]
fn duplicate_install_batch_is_idempotent() {
    let mut kernel = Kernel::new(NetCtx::new(), 1);
    let tor = kernel.add_node(Tor::new(TorConfig::testbed("tor", 0)));
    let probe = kernel.add_node(Probe::default());

    let batch = || CtrlRequest::InstallTorRules {
        rules: vec![exact_rule(T, 1), exact_rule(T, 2)],
        xid: 9,
    };
    kernel.post(
        tor,
        SimTime::from_micros(10),
        Event::ctl(probe, Ctl::Req(batch())),
    );
    kernel.post(
        tor,
        SimTime::from_micros(900),
        Event::ctl(probe, Ctl::Req(batch())),
    );
    kernel.run_until(SimTime::from_millis(5));

    let t = kernel.node::<Tor>(tor);
    assert_eq!(t.acl_rules(), 2, "retransmit must not double-install");
    assert_eq!(t.fastpath_used(), 2);
    let p = kernel.node::<Probe>(probe);
    assert!(
        matches!(
            p.replies.as_slice(),
            [CtrlReply::Ack { xid: 9 }, CtrlReply::Ack { xid: 9 }]
        ),
        "both deliveries ack, got {:?}",
        p.replies
    );
}

/// The reconciliation sweep must delete hardware rules the controller does
/// not know about and repair a drifted `entries_used` counter.
#[test]
fn reconcile_sweep_removes_stale_rules_and_repairs_counters() {
    let (mut bed, _mc, _cli) = build();
    let ft = attach(&mut bed, FasTrakConfig::default());
    ft.start(&mut bed);
    bed.start();
    bed.run_until(SimTime::from_millis(2_050));

    // A rule the controller never installed (crashed predecessor, buggy
    // operator, bit flip — the sweep should not care how it got there).
    let stale = exact_rule(TenantId(9), 77);
    bed.tor_mut().install_rule(&stale).unwrap();
    // And simulated counter drift on the controller side.
    bed.kernel
        .node_mut::<TorController>(ft.tor_ctrl)
        .entries_used += 3;

    bed.run_until(SimTime::from_millis(3_500));

    let reg = &bed.kernel.ctx.telemetry.registry;
    assert!(
        reg.counter_by_name("ctrl.reconcile_sweeps").unwrap_or(0) >= 1,
        "sweep must have run"
    );
    assert!(
        reg.counter_by_name("ctrl.reconcile_stale_removed")
            .unwrap_or(0)
            >= 1,
        "sweep must flag the foreign rule"
    );
    assert!(
        reg.counter_by_name("ctrl.reconcile_counter_repairs")
            .unwrap_or(0)
            >= 1,
        "sweep must notice the drifted counter"
    );
    assert!(
        !bed.tor().has_rule(TenantId(9), &stale.spec),
        "stale rule must be removed from hardware"
    );
    let tc = bed.kernel.node::<TorController>(ft.tor_ctrl);
    assert_eq!(tc.entries_used, bed.tor().acl_rules());
}

/// A scripted window of hardware install failures: every batch inside it
/// gets an Error back. The controller must roll back cleanly each time,
/// suspend the hardware path after repeated failures, and re-offload once
/// the window (and cooldown) pass — ending with bookkeeping in sync.
#[test]
fn forced_install_failures_degrade_then_recover() {
    let (mut bed, _mc, _cli) = build();
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            timing: Timing::fine(),
            ..Default::default()
        },
    );
    // Decision rounds land at ~0.61 s, 1.61 s, 2.61 s, ...: three fall in
    // the window (the suspension threshold), the 2 s cooldown then skips
    // the rounds at 3.61 s and 4.61 s, and the one at 5.61 s re-offloads.
    bed.kernel.set_fault_layer(ctl_fault_layer(FaultConfig {
        seed: 5,
        install_fail_windows: vec![(SimTime::from_millis(400), SimTime::from_millis(2_700))],
        ..Default::default()
    }));
    ft.start(&mut bed);
    bed.start();
    bed.run_until(SimTime::from_millis(6_300));

    let reg = &bed.kernel.ctx.telemetry.registry;
    let failures = reg.counter_by_name("ctrl.install_failures").unwrap_or(0);
    assert!(
        failures >= 2,
        "batches inside the window must fail, got {failures}"
    );
    assert!(
        reg.counter_by_name("ctrl.hw_suspensions").unwrap_or(0) >= 1,
        "repeated failures must suspend the hardware path"
    );
    let tc = bed.kernel.node::<TorController>(ft.tor_ctrl);
    assert!(
        !tc.offloaded().is_empty(),
        "offload must resume after the failure window"
    );
    assert_eq!(
        tc.entries_used,
        bed.tor().acl_rules(),
        "every failed batch must have been rolled back exactly"
    );
    let fp = bed.kernel.fault_plane().expect("fault plane attached");
    assert!(fp.stats.forced_install_failures >= 2);
}

// ---------------------------------------------------------------------------
// Component-level fault tolerance: scripted ToR reboots, SR-IOV VF death,
// and controller crash/restart via the chaos plane (DESIGN.md §5).
// ---------------------------------------------------------------------------

use fastrak_sim::chaos::ChaosConfig;

/// A ToR mid-reboot must reject rule installs with a definitive Error — no
/// Ack into a table about to be wiped, no phantom `entries_used` on the
/// controller, no hardware residue.
#[test]
fn tor_outage_rejects_installs_definitively() {
    let mut kernel = Kernel::new(NetCtx::new(), 1);
    let tor = kernel.add_node(Tor::new(TorConfig::testbed("tor", 0)));
    let probe = kernel.add_node(Probe::default());
    kernel.set_fault_layer(ctl_fault_layer(FaultConfig {
        seed: 3,
        chaos: ChaosConfig {
            tor_outages: vec![(tor, SimTime::from_millis(1), SimTime::from_millis(10))],
            ..ChaosConfig::default()
        },
        ..Default::default()
    }));
    kernel.post(
        tor,
        SimTime::from_millis(5),
        Event::ctl(
            probe,
            Ctl::Req(CtrlRequest::InstallTorRules {
                rules: vec![exact_rule(T, 1), exact_rule(T, 2)],
                xid: 4,
            }),
        ),
    );
    kernel.run_until(SimTime::from_millis(20));

    let t = kernel.node::<Tor>(tor);
    assert_eq!(t.acl_rules(), 0, "no rule may survive a mid-reboot install");
    assert_eq!(t.fastpath_used(), 0, "usage counter must stay clean");
    assert_eq!(t.stats.install_batches_rejected, 1);
    let p = kernel.node::<Probe>(probe);
    assert!(
        matches!(p.replies.as_slice(), [CtrlReply::Error { xid: 4, .. }]),
        "a dark ToR must reject definitively, got {:?}",
        p.replies
    );
}

/// Full reboot cycle with liveness probes on: the probe Error marks the ToR
/// down (suspending offloads), the post-reboot probe reply carries the
/// bumped boot generation, and the controller re-baselines — re-installing
/// what the power cycle wiped, with bookkeeping drift exactly zero.
#[test]
fn tor_reboot_detected_and_reconverged_via_probes() {
    let (mut bed, _mc, _cli) = build();
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            de: DeConfig {
                max_offloaded: Some(2),
                ..DeConfig::paper()
            },
            ctrl: CtrlPlaneConfig {
                probe_interval: SimDuration::from_millis(100),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    bed.kernel.set_fault_layer(ctl_fault_layer(FaultConfig {
        seed: 3,
        chaos: ChaosConfig {
            tor_outages: vec![(
                bed.tor,
                SimTime::from_millis(2_050),
                SimTime::from_millis(2_550),
            )],
            ..ChaosConfig::default()
        },
        ..Default::default()
    }));
    ft.start(&mut bed);
    bed.start();

    // Mid-outage: the dark ToR's definitive probe Error must have marked
    // the hardware path down.
    bed.run_until(SimTime::from_millis(2_400));
    assert!(
        bed.kernel
            .node::<TorController>(ft.tor_ctrl)
            .tor_believed_down(),
        "probe Error from the dark ToR must mark it down"
    );

    bed.run_until(SimTime::from_millis(6_300));
    let reg = &bed.kernel.ctx.telemetry.registry;
    assert!(
        reg.counter_by_name("ctrl.chaos.tor_reboots_seen")
            .unwrap_or(0)
            >= 1,
        "the boot-generation bump must be detected"
    );
    let tc = bed.kernel.node::<TorController>(ft.tor_ctrl);
    assert!(!tc.tor_believed_down(), "ToR must be back up");
    assert_eq!(tc.tor_generation(), 1, "one reboot observed");
    assert!(
        !tc.offloaded().is_empty(),
        "offload must resume after the reboot"
    );
    assert_eq!(
        tc.entries_used,
        bed.tor().acl_rules(),
        "re-baselining must leave zero bookkeeping drift"
    );
}

/// Satellite regression: a rule dump generated *before* a reboot must not
/// resurrect wiped rules when it straggles in afterwards — the dump's boot
/// generation gates it.
#[test]
fn stale_pre_reboot_rule_dump_is_discarded() {
    let (mut bed, _mc, _cli) = build();
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            de: DeConfig {
                max_offloaded: Some(2),
                ..DeConfig::paper()
            },
            ..Default::default()
        },
    );
    bed.kernel.set_fault_layer(ctl_fault_layer(FaultConfig {
        seed: 3,
        chaos: ChaosConfig {
            tor_outages: vec![(
                bed.tor,
                SimTime::from_millis(2_050),
                SimTime::from_millis(2_550),
            )],
            ..ChaosConfig::default()
        },
        ..Default::default()
    }));
    ft.start(&mut bed);
    bed.start();
    // Converge past the reboot (generation is now 1 on both sides).
    bed.run_until(SimTime::from_millis(5_000));
    let tc = bed.kernel.node::<TorController>(ft.tor_ctrl);
    assert_eq!(tc.tor_generation(), 1, "reboot must have been observed");
    let before: Vec<String> = {
        let mut v: Vec<String> = tc.offloaded().iter().map(|a| format!("{a:?}")).collect();
        v.sort();
        v
    };

    // A pre-reboot (generation-0) dump arrives late, carrying a rule that
    // was wiped — resurrection bait the controller must refuse (an
    // aggregate's spec, so a rebuild from the dump would adopt it).
    let bait = FlowAggregate::SrcApp {
        tenant: T,
        ip: Ip::tenant_vm(200),
        port: 99,
    };
    let now = bed.now();
    bed.kernel.post(
        ft.tor_ctrl,
        now,
        Event::ctl(
            bed.tor,
            Ctl::Reply(CtrlReply::TorRuleDump {
                xid: 0xDEAD,
                rules: vec![(T, bait.to_spec())],
                boot_generation: 0,
            }),
        ),
    );
    // Deliver only the straggler (1 ms — no decide interval elapses, so
    // any offloaded-set change can only come from the stale dump itself).
    bed.run_until(SimTime::from_millis(5_001));

    let reg = &bed.kernel.ctx.telemetry.registry;
    assert!(
        reg.counter_by_name("ctrl.chaos.stale_dumps_discarded")
            .unwrap_or(0)
            >= 1,
        "the stale dump must be counted as discarded"
    );
    let tc = bed.kernel.node::<TorController>(ft.tor_ctrl);
    let after: Vec<String> = {
        let mut v: Vec<String> = tc.offloaded().iter().map(|a| format!("{a:?}")).collect();
        v.sort();
        v
    };
    assert_eq!(
        before, after,
        "stale dump must not change the offloaded set"
    );
    assert_eq!(
        tc.entries_used,
        bed.tor().acl_rules(),
        "stale dump must not drift the bookkeeping"
    );
}

/// SR-IOV VF death: the local controller reports the dark hardware path,
/// the TOR controller force-demotes every aggregate touching that server's
/// VMs and bars them until the path recovers, then re-offloads.
#[test]
fn vf_failure_demotes_to_software_and_recovers() {
    let (mut bed, mc, cli) = build();
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            de: DeConfig {
                max_offloaded: Some(2),
                ..DeConfig::paper()
            },
            ..Default::default()
        },
    );
    bed.kernel.set_fault_layer(ctl_fault_layer(FaultConfig {
        seed: 3,
        chaos: ChaosConfig {
            vf_outages: vec![(
                bed.servers[0],
                SimTime::from_millis(2_050),
                SimTime::from_millis(4_050),
            )],
            ..ChaosConfig::default()
        },
        ..Default::default()
    }));
    ft.start(&mut bed);
    bed.start();

    // Mid-outage: nothing touching a server-0 VM may be offloaded, and the
    // client must still be making progress over the software path.
    bed.run_until(SimTime::from_millis(3_800));
    let touching: Vec<String> = ft
        .offloaded(&bed)
        .iter()
        .filter(|a| match a {
            FlowAggregate::SrcApp { ip, .. } | FlowAggregate::DstApp { ip, .. } => {
                *ip == mc.ip || *ip == Ip::tenant_vm(2)
            }
        })
        .map(|a| format!("{a:?}"))
        .collect();
    assert!(
        touching.is_empty(),
        "server-0 aggregates must be demoted while its VF is dark: {touching:?}"
    );
    let mid = bed.app::<MemslapClient>(cli).completed();
    assert!(mid > 0, "software path must keep carrying transactions");

    bed.run_until(SimTime::from_millis(7_000));
    let reg = &bed.kernel.ctx.telemetry.registry;
    assert!(
        reg.counter_by_name("ctrl.chaos.hw_path_down_demotes")
            .unwrap_or(0)
            >= 1,
        "the hw-path-down report must force demotes"
    );
    assert!(
        bed.server(0).stats.hw_path_drops > 0,
        "the dead VF must have eaten the in-flight hardware frames"
    );
    let tc = bed.kernel.node::<TorController>(ft.tor_ctrl);
    assert!(
        !tc.offloaded().is_empty(),
        "offload must resume once the VF recovers"
    );
    assert_eq!(tc.entries_used, bed.tor().acl_rules());
    let end = bed.app::<MemslapClient>(cli).completed();
    assert!(end > mid, "traffic must keep flowing after recovery");
}

/// Recovery invariant, checked across every failure class: after the fault
/// clears and the controller re-converges, its offloaded set, the ToR's
/// installed rule table, and the per-tenant policy occupancy all agree.
#[test]
fn post_recovery_state_agrees_across_all_failure_classes() {
    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }
    // (label, chaos builder) — node ids differ per run, so bind late.
    type Script = fn(NodeId, NodeId, NodeId) -> ChaosConfig;
    let scripts: [(&str, Script); 3] = [
        ("tor reboot", |tor, _s0, _ctrl| ChaosConfig {
            tor_outages: vec![(tor, ms(2_050), ms(2_550))],
            ..ChaosConfig::default()
        }),
        ("vf failure", |_tor, s0, _ctrl| ChaosConfig {
            vf_outages: vec![(s0, ms(2_050), ms(3_550))],
            ..ChaosConfig::default()
        }),
        ("controller restart", |_tor, _s0, ctrl| ChaosConfig {
            controller_restarts: vec![(ctrl, ms(2_050))],
            ..ChaosConfig::default()
        }),
    ];
    for (label, script) in scripts {
        let (mut bed, _mc, _cli) = build();
        let ft = attach(
            &mut bed,
            FasTrakConfig {
                de: DeConfig {
                    max_offloaded: Some(2),
                    ..DeConfig::paper()
                },
                ctrl: CtrlPlaneConfig {
                    probe_interval: SimDuration::from_millis(100),
                    blackhole_epochs: 2,
                },
                ..Default::default()
            },
        );
        bed.kernel.set_fault_layer(ctl_fault_layer(FaultConfig {
            seed: 3,
            chaos: script(bed.tor, bed.servers[0], ft.tor_ctrl),
            ..Default::default()
        }));
        ft.start(&mut bed);
        bed.start();
        bed.run_until(SimTime::from_millis(6_500));

        let tc = bed.kernel.node::<TorController>(ft.tor_ctrl);
        assert!(!tc.offloaded().is_empty(), "{label}: must re-offload");
        assert!(!tc.is_recovering(), "{label}: recovery must complete");
        // Controller bookkeeping == hardware table size...
        assert_eq!(
            tc.entries_used,
            bed.tor().acl_rules(),
            "{label}: entries_used must match installed ToR rules"
        );
        // ...and every offloaded aggregate's rule is actually installed.
        let offloaded: Vec<_> = tc.offloaded().iter().cloned().collect();
        let n_offloaded = offloaded.len();
        for agg in offloaded {
            assert!(
                bed.tor().has_rule(agg.tenant(), &agg.to_spec()),
                "{label}: offloaded {agg:?} has no hardware rule"
            );
        }
        // ...and the policy tracker's per-tenant occupancy agrees (one
        // tenant in this bed, so its gauge is the whole set).
        ft.publish_telemetry(&mut bed);
        let occ = bed
            .kernel
            .ctx
            .telemetry
            .registry
            .gauge_by_name("ctrl.tenant.offloaded_entries{tenant=1}")
            .unwrap_or(-1.0);
        assert_eq!(
            occ, n_offloaded as f64,
            "{label}: policy occupancy must match the offloaded set"
        );
    }
}

#[test]
fn deterministic_offload_decisions() {
    let run = || {
        let (mut bed, _mc, cli) = build();
        let ft = attach(&mut bed, FasTrakConfig::default());
        ft.start(&mut bed);
        bed.start();
        bed.run_until(SimTime::from_secs(4));
        let mut aggs: Vec<String> = ft
            .offloaded(&bed)
            .iter()
            .map(|a| format!("{a:?}"))
            .collect();
        aggs.sort();
        (aggs, bed.app::<MemslapClient>(cli).completed())
    };
    assert_eq!(run(), run());
}

#[test]
fn per_tenant_telemetry_exported() {
    let (mut bed, _mc, _cli) = build();
    let ft = attach(&mut bed, FasTrakConfig::default());
    ft.start(&mut bed);
    bed.start();
    bed.run_until(SimTime::from_secs(5));
    ft.publish_telemetry(&mut bed);
    let reg = &bed.kernel.ctx.telemetry.registry;
    // The memcached workload offloads within 5 s, so tenant 1 must have
    // committed offload transitions and hold fast-path entries.
    let offloads = reg
        .counter_by_name("ctrl.tenant.offloads{tenant=1}")
        .unwrap_or(0);
    assert!(offloads >= 1, "tenant-1 offload transitions: {offloads}");
    let entries = reg
        .gauge_by_name("ctrl.tenant.offloaded_entries{tenant=1}")
        .unwrap_or(0.0);
    assert!(entries >= 1.0, "tenant-1 occupancy: {entries}");
    let share = reg
        .gauge_by_name("ctrl.tenant.occupancy_share{tenant=1}")
        .unwrap_or(0.0);
    assert!(share > 0.0 && share <= 1.0, "occupancy share: {share}");
}
