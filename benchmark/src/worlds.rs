//! The four scenario workloads: build a world from generated inputs through
//! the simulator's public API, run it, and read every layer's public
//! counters afterwards.
//!
//! Host time is taken around whole calls into a layer (spans, when a
//! [`Tracer`] is recording); nothing here reaches inside the simulator.

use std::collections::BTreeMap;
use std::time::Instant;

use fastrak::{attach, FasTrak, FasTrakConfig, Timing, TorController};
use fastrak_bench::experiments::table2::{mc_ips, offload_servers};
use fastrak_bench::scenarios::TENANT;
use fastrak_host::server::ServerConfig;
use fastrak_host::vm::VmSpec;
use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::ctrl::Dir;
use fastrak_net::event::Event;
use fastrak_net::flow::FlowKey;
use fastrak_net::packet::PathTag;
use fastrak_sim::fault::{FaultConfig, FaultLayer, LinkFaults};
use fastrak_sim::stats::Histogram;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_telemetry::export;
use fastrak_transport::cc::CcAlgo;
use fastrak_transport::tcp::TcpConfig;
use fastrak_workload::{
    add_churner, incast_worker, memcached_server, Churner, ChurnerConfig, EchoRangeServer,
    IncastAggregator, IncastConfig, Memcached, MemslapClient, MemslapConfig, RrClient,
    RrClientConfig, RrServer, RrServerConfig, TenantFleet, TenantFleetConfig, Testbed,
    TestbedConfig, VmRef,
};

use crate::inputs::{
    FlowScaleInputs, IncastInputs, RackInputs, FLOW_SCALE_BUDGET, FLOW_SCALE_SERVERS,
};
use crate::trace::Tracer;

/// Simulated time per `run_until` call: the grain at which completion is
/// polled and at which the traced run reports ns/event.
const SLICE: SimDuration = SimDuration::from_millis(10);

/// Non-binding rate limit installed on every VM (software token bucket or
/// ToR hardware limiter): the limiter code runs, the 10 Gb/s links bind first.
const NON_BINDING_BPS: u64 = 10_000_000_000;

/// Raw sums read from one or more worlds, keyed by the simulator's own
/// counter names (plus a few the benchmark derives from public state).
pub type Raw = BTreeMap<&'static str, f64>;

/// What one repetition of a scenario workload produced.
pub struct Outcome {
    pub raw: Raw,
    /// Application transaction latency (ns).
    pub lat: Histogram,
    /// Incast round completion time (ns).
    pub fct: Histogram,
    /// Host seconds: world construction through the last simulated event.
    pub wall_s: f64,
    /// Host seconds of world construction alone (inside `wall_s`).
    pub build_s: f64,
    pub publish_s: f64,
    pub export_s: f64,
    /// The controller's self-measured decision-engine host time.
    pub de_epoch_wall_ns: f64,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Output checks that did not hold (empty = correct).
    pub problems: Vec<String>,
    pub probe: ProbeInputs,
}

/// What the per-layer probes need to know about the workload that ran.
#[derive(Default, Clone)]
pub struct ProbeInputs {
    /// The busiest vswitch's flow keys at the end of the run.
    pub flow_keys: Vec<FlowKey>,
    /// Largest wildcard table the run ended with (vswitch rules or ToR ACL).
    pub rules_end: usize,
    /// Most connections on any one VM's stack.
    pub conns_per_vm_max: usize,
    /// Σ segs_tx and Σ segs_tx × (that VM's connections − 1), for pricing
    /// the per-connection scan.
    pub segs: f64,
    pub segs_x_extra_conns: f64,
    /// Flow aggregates the controller tracked (0 without a controller).
    pub aggregates: usize,
    /// Measurement-engine epochs the run's controllers executed.
    pub me_epochs: f64,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            raw: Raw::new(),
            lat: Histogram::new(),
            fct: Histogram::new(),
            wall_s: 0.0,
            build_s: 0.0,
            publish_s: 0.0,
            export_s: 0.0,
            de_epoch_wall_ns: 0.0,
            attempted: 0,
            completed: 0,
            failed: 0,
            problems: Vec::new(),
            probe: ProbeInputs::default(),
        }
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.raw.entry(key).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.raw.get(key).copied().unwrap_or(0.0)
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.problems.push(what.to_string());
        }
    }

    /// Fold a second world of the same repetition into this one: counts and
    /// times add, maxima stay maxima, probe inputs come from the larger.
    fn absorb(&mut self, other: Outcome) {
        for (k, v) in other.raw {
            if k == "conns_per_vm_max" {
                let e = self.raw.entry(k).or_insert(0.0);
                *e = e.max(v);
            } else {
                self.add(k, v);
            }
        }
        self.lat.merge(&other.lat);
        self.fct.merge(&other.fct);
        self.wall_s += other.wall_s;
        self.build_s += other.build_s;
        self.publish_s += other.publish_s;
        self.export_s += other.export_s;
        self.de_epoch_wall_ns += other.de_epoch_wall_ns;
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        let (a, b) = (&mut self.probe, other.probe);
        a.segs += b.segs;
        a.segs_x_extra_conns += b.segs_x_extra_conns;
        a.me_epochs += b.me_epochs;
        a.rules_end = a.rules_end.max(b.rules_end);
        a.conns_per_vm_max = a.conns_per_vm_max.max(b.conns_per_vm_max);
        a.aggregates = a.aggregates.max(b.aggregates);
        if b.flow_keys.len() > a.flow_keys.len() {
            a.flow_keys = b.flow_keys;
        }
    }
}

/// Run `bed` in [`SLICE`] steps until `done` or `horizon`, one
/// `sim.run_until` span per slice. `each_slice` sees the world after every
/// slice (convergence detection).
fn drive(
    bed: &mut Testbed,
    horizon: SimTime,
    tr: &mut Tracer,
    mut done: impl FnMut(&Testbed) -> bool,
    mut each_slice: impl FnMut(&Testbed),
) {
    let run = tr.begin("run");
    while bed.now() < horizon {
        let before = bed.kernel.events_processed();
        let s = tr.begin("sim.run_until");
        let next = (bed.now() + SLICE).min(horizon);
        bed.run_until(next);
        tr.end_with(s, Some(bed.kernel.events_processed() - before));
        each_slice(bed);
        if done(bed) {
            break;
        }
    }
    tr.end(run);
}

/// Sum a counter or gauge family over its label sets: `base` or `base{..}`.
fn family<'a>(items: impl Iterator<Item = (&'a str, f64)>, base: &str) -> f64 {
    items
        .filter(|(name, _)| {
            name.strip_prefix(base)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// Counter families copied verbatim from the registry into [`Raw`].
const COUNTER_FAMILIES: &[&str] = &[
    "sim.kernel.events_processed",
    "sim.kernel.cancels_requested",
    "sim.kernel.bursts_formed",
    "sim.kernel.burst_events",
    "host.tx_ring_drops",
    "host.rx_drops",
    "host.policy_drops",
    "host.hw_path_drops",
    "host.no_route_drops",
    "host.tx_frames.sw",
    "host.tx_frames.hw",
    "host.rx_frames",
    "host.vswitch.fast_path_hits",
    "host.vswitch.slow_path_hits",
    "host.dp.batch_pkts",
    "host.dp.scalar_pkts",
    "tor.acl_drops",
    "tor.fwd_drops",
    "tor.hw_frames",
    "tor.sw_frames",
    "tor.gre_encaps",
    "tor.install_batches_rejected",
    "tor.rules_installed",
    "tor.rules_removed",
    "tor.ecn_marked",
    "tcp.segs_tx",
    "tcp.acks_tx",
    "tcp.rtx_segs",
    "tcp.fast_retransmits",
    "tcp.timeouts",
    "tcp.dup_acks_rx",
    "tcp.ooo_segs_rx",
    "tcp.ecn_ce_rx",
    "tcp.bytes_delivered",
    "ctrl.de.epochs",
    "ctrl.de.deltas_ingested",
    "ctrl.tenant.offloads",
    "ctrl.tenant.demotes",
    "ctrl.install_retries",
    "ctrl.install_timeouts",
    "ctrl.installs_abandoned",
    "ctrl.reconcile_sweeps",
    "ctrl.reconcile_stale_removed",
    "ctrl.reconcile_lost_demoted",
    "ctrl.reconcile_counter_repairs",
    "ctrl.hw_suspensions",
];

const GAUGE_FAMILIES: &[&str] = &[
    "sim.kernel.pending_events",
    "sim.kernel.cancelled_backlog",
    "host.vswitch.datapath_entries",
    "tor.fastpath.used",
];

/// Publish, export and read back every layer's public counters. Timed
/// outside `wall_s`: users do not pay for it on every run.
fn collect(bed: &mut Testbed, ft: Option<&FasTrak>, tr: &mut Tracer, out: &mut Outcome) {
    let s = tr.begin("telemetry.publish");
    let t = Instant::now();
    bed.publish_telemetry();
    if let Some(ft) = ft {
        ft.publish_telemetry(bed);
    }
    out.publish_s = t.elapsed().as_secs_f64();
    tr.end(s);

    let reg = std::mem::take(&mut bed.kernel.ctx.telemetry.registry);
    let s = tr.begin("telemetry.export");
    let t = Instant::now();
    let bytes = export::metrics_jsonl(&reg).len() + export::prometheus_text(&reg).len();
    out.export_s = t.elapsed().as_secs_f64();
    tr.end(s);

    let s = tr.begin("collect");
    for &f in COUNTER_FAMILIES {
        out.add(f, family(reg.counters().map(|(n, v)| (n, v as f64)), f));
    }
    for &f in GAUGE_FAMILIES {
        out.add(f, family(reg.gauges(), f));
    }
    out.de_epoch_wall_ns = reg.counter_by_name("ctrl.de.epoch_ns").unwrap_or(0) as f64;
    out.add("telemetry.series", reg.len() as f64);
    out.add("telemetry.export_bytes", bytes as f64);

    let now = bed.now();
    out.add("sim_s", now.as_secs_f64());
    out.add("vms", bed.vms().len() as f64);
    let n_servers = bed.servers.len();
    out.add(
        "sim_cpu_cores",
        (0..n_servers).map(|i| bed.server(i).cpus_used(now)).sum(),
    );

    let mut conns_end = 0usize;
    let p = &mut out.probe;
    for v in bed.vms().to_vec() {
        let stack = &bed.server(v.server).vm(v.vm).stack;
        let segs: u64 = stack
            .conn_ids()
            .map(|id| stack.conn(id).stats.segs_tx)
            .sum();
        conns_end += stack.len();
        p.conns_per_vm_max = p.conns_per_vm_max.max(stack.len());
        p.segs += segs as f64;
        p.segs_x_extra_conns += segs as f64 * stack.len().saturating_sub(1) as f64;
    }
    p.rules_end = bed.tor().acl_rules();
    for i in 0..n_servers {
        let vs = bed.server(i).vswitch();
        p.rules_end = p.rules_end.max(vs.n_rules());
        if vs.datapath_len() > p.flow_keys.len() {
            p.flow_keys = vs.dump_flow_stats().into_iter().map(|e| e.key).collect();
        }
    }
    // The datapath is a hash map; sort so probes see one order every time.
    p.flow_keys
        .sort_by_key(|k| (k.tenant.0, k.src_ip.0, k.dst_ip.0, k.src_port, k.dst_port));
    let conns_max = p.conns_per_vm_max;
    out.add("conns_end", conns_end as f64);
    out.add("conns_per_vm_max", conns_max as f64);
    tr.end(s);
}

/// `rack_soft` / `rack_express`: the §6 rack, every client run to
/// completion.
pub fn run_rack(inp: &RackInputs, express: bool, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::new();
    let t0 = Instant::now();
    let world = tr.begin("build_world");
    let s = tr.begin("workload.testbed_build");
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 6,
        tunneling: !express,
        seed: inp.testbed_seed,
        ..TestbedConfig::default()
    });
    tr.end(s);

    let s = tr.begin("workload.place_vms");
    let mut servers = Vec::new();
    for (i, ip) in mc_ips().into_iter().enumerate() {
        // Two EC2-large and two EC2-medium memcached VMs, as in Table 2.
        let spec = if i < 2 {
            VmSpec::large(format!("mc{i}"), TENANT, ip)
        } else {
            VmSpec::medium(format!("mc{i}"), TENANT, ip)
        };
        servers.push(bed.add_vm(0, spec, Box::new(memcached_server())));
    }
    let mut clients = Vec::new();
    for (c, ci) in inp.clients.iter().enumerate() {
        let mut cfg = MemslapConfig::paper(mc_ips().to_vec(), Some(ci.requests));
        cfg.src_port_base = ci.src_port_base;
        cfg.start_delay = SimDuration::from_micros(ci.start_delay_us);
        clients.push(bed.add_vm(
            ci.server,
            VmSpec::large(format!("slap{c}"), TENANT, Ip::tenant_vm(10 + c as u16)),
            Box::new(MemslapClient::new(cfg)),
        ));
    }
    if express {
        offload_servers(&mut bed, &servers, &clients, servers.len());
    }
    for &v in servers.iter().chain(&clients) {
        for dir in [Dir::Egress, Dir::Ingress] {
            if express {
                bed.set_hw_rate(v, dir, NON_BINDING_BPS);
            } else {
                bed.set_vif_rate(v, dir, NON_BINDING_BPS);
            }
        }
    }
    tr.end(s);
    tr.end(world);
    out.build_s = t0.elapsed().as_secs_f64();

    bed.begin_cpu_windows();
    bed.start();
    let horizon = SimTime::from_millis(inp.horizon_ms);
    let all_done = |bed: &Testbed| {
        clients
            .iter()
            .all(|&c| bed.app::<MemslapClient>(c).finished_at.is_some())
    };
    drive(&mut bed, horizon, tr, all_done, |_| {});
    out.wall_s = t0.elapsed().as_secs_f64();

    collect(&mut bed, None, tr, &mut out);
    let mut finish = SimDuration::ZERO;
    for (&c, ci) in clients.iter().zip(&inp.clients) {
        let app = bed.app::<MemslapClient>(c);
        out.attempted += ci.requests;
        out.completed += app.completed();
        out.lat.merge(&app.latency);
        match app.finish_time() {
            Some(f) => finish = finish.max(f),
            None => out.problems.push(format!(
                "client on server {} did not finish before the horizon",
                ci.server
            )),
        }
    }
    out.failed = out.attempted - out.completed.min(out.attempted);
    out.add("finish_s", finish.as_secs_f64());
    out.check(drops(&out) == 0.0, "host.drops must be 0");
    out.check(
        out.get("tcp.timeouts") == 0.0,
        "transport.timeouts must be 0",
    );
    out.check(
        out.get("ctrl.de.epochs") == 0.0,
        "core.de_epochs must be 0 (no controller attached)",
    );
    if express {
        // Stands in for "≤ 1 % of rack_soft's hits": on rack_soft every
        // frame a server sends or receives is one vswitch lookup, and both
        // racks carry the same requests.
        let frames = out.get("host.tx_frames.hw") + out.get("host.rx_frames");
        out.check(
            out.get("host.vswitch.fast_path_hits") <= 0.01 * frames,
            "rack_express must bypass the vswitch",
        );
        out.check(
            out.get("tor.hw_frames") > 0.0,
            "switch.hw_frames must be > 0",
        );
    }
    out
}

/// Sum of the five host drop causes.
pub fn drops(out: &Outcome) -> f64 {
    [
        "host.tx_ring_drops",
        "host.rx_drops",
        "host.policy_drops",
        "host.hw_path_drops",
        "host.no_route_drops",
    ]
    .iter()
    .map(|k| out.get(k))
    .sum()
}

/// Response bytes per incast worker per round (~11 MSS: enough to burst).
const INCAST_RESP: u64 = 16_000;
/// RED/DCTCP marking threshold as queueing delay at 10 Gb/s.
const ECN_K: SimDuration = SimDuration::from_micros(60);
const BACKGROUND_PORT: u16 = 9100;

/// Cell (a)'s seeded random frame loss on the aggregator server's uplink
/// (requests and ACKs). Overflowing the ToR's drop-tail queue would be the
/// natural loss source, but losing several response segments of one window
/// costs this transport one exponentially backed-off RTO per segment (an RTO
/// resends only `snd_una`), and rounds then stall for simulated minutes.
/// Loss on the request direction always repairs within one RTO (small
/// segments coalesce into the retransmission) and still drives dup-ACKs,
/// SACK blocks, fast retransmit and the RTO/delayed-ACK timers.
const INCAST_LOSS: f64 = 0.01;
/// Data-centre RTO floor (the classic incast remedy); Linux's 200 ms would
/// only stretch simulated time, not add work.
const INCAST_MIN_RTO: SimDuration = SimDuration::from_millis(1);

/// One `incast_loss` cell: 32-worker fan-in + 2 long pipelined flows.
fn run_incast_cell(inp: &IncastInputs, dctcp_hw: bool, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::new();
    let t0 = Instant::now();
    let world = tr.begin("build_world");
    let s = tr.begin("workload.testbed_build");
    let mut template = ServerConfig::testbed("template", Ip::UNSPECIFIED);
    template.max_vfs = 64; // eight workers per server, one VF each
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: 5,
        tunneling: false,
        seed: inp.testbed_seed,
        server_template: template,
        ..TestbedConfig::default()
    });
    tr.end(s);

    let s = tr.begin("workload.place_vms");
    let tcp = TcpConfig {
        cc: if dctcp_hw {
            CcAlgo::Dctcp
        } else {
            CcAlgo::Cubic
        },
        ecn: dctcp_hw,
        sack: true,
        min_rto: INCAST_MIN_RTO,
        ..TcpConfig::default()
    };
    if dctcp_hw {
        bed.tor_mut().cfg.ecn_mark_threshold = Some(ECN_K);
        for i in 0..5 {
            bed.server_mut(i).cfg.ecn_mark_threshold = Some(ECN_K);
        }
    }
    let mut worker_ips = Vec::new();
    let mut vms = Vec::new();
    for (i, &server) in inp.worker_servers.iter().enumerate() {
        let ip = Ip::tenant_vm(i as u16 + 2);
        vms.push(bed.add_vm_tcp(
            server,
            VmSpec::medium(format!("w{i}"), TENANT, ip),
            Box::new(incast_worker(INCAST_RESP)),
            tcp,
        ));
        worker_ips.push(ip);
    }
    let agg = bed.add_vm_tcp(
        0,
        VmSpec::large("agg", TENANT, Ip::tenant_vm(1)),
        Box::new(IncastAggregator::new(IncastConfig {
            src_port_base: inp.src_port_base,
            start_delay: SimDuration::from_micros(inp.start_delay_us),
            ..IncastConfig::fan_in(worker_ips, INCAST_RESP, inp.rounds)
        })),
        tcp,
    );
    vms.push(agg);
    // Two pipelined background transfers into the aggregator's server keep a
    // standing queue on its downlink (the DCTCP evaluation's long/short
    // mix). `IncastConfig::long_flows` would do, but those run for as long
    // as the rounds take, so their work would grow with every RTO stall;
    // a fixed transaction count keeps the work per repetition constant.
    let mut background = Vec::new();
    for b in 0..2u16 {
        let ip = Ip::tenant_vm(100 + b);
        vms.push(bed.add_vm_tcp(
            1 + usize::from(b),
            VmSpec::medium(format!("bgsrv{b}"), TENANT, ip),
            Box::new(RrServer::new(RrServerConfig {
                port: BACKGROUND_PORT,
                req_size: IncastConfig::REQ_SIZE,
                resp_size: INCAST_RESP,
                service_cpu: SimDuration::from_micros(2),
            })),
            tcp,
        ));
        let client = bed.add_vm_tcp(
            0,
            VmSpec::medium(format!("bgcli{b}"), TENANT, Ip::tenant_vm(110 + b)),
            Box::new(RrClient::new(RrClientConfig {
                burst: 8,
                resp_size: INCAST_RESP,
                total_requests: Some(inp.background_requests),
                src_port_base: inp.src_port_base + 64 + b,
                ..RrClientConfig::closed_loop(ip, BACKGROUND_PORT, IncastConfig::REQ_SIZE)
            })),
            tcp,
        );
        vms.push(client);
        background.push(client);
    }
    if dctcp_hw {
        bed.authorize_hw_tenant(TENANT);
        for &v in &vms {
            bed.force_path(v, PathTag::SrIov);
        }
    } else {
        let uplink = (bed.servers[0], bed.tor);
        bed.kernel.set_fault_layer(FaultLayer::new(
            FaultConfig {
                seed: inp.testbed_seed,
                links: vec![(uplink, LinkFaults::loss(INCAST_LOSS))],
                ..FaultConfig::default()
            },
            |ev| matches!(ev, Event::Frame { .. }),
            |_| None,
        ));
    }
    tr.end(s);
    tr.end(world);
    out.build_s = t0.elapsed().as_secs_f64();

    bed.begin_cpu_windows();
    bed.start();
    let horizon = SimTime::from_secs(60);
    let done = |bed: &Testbed| {
        bed.app::<IncastAggregator>(agg).finished_at.is_some()
            && background
                .iter()
                .all(|&c| bed.app::<RrClient>(c).finished_at.is_some())
    };
    drive(&mut bed, horizon, tr, done, |_| {});
    out.wall_s = t0.elapsed().as_secs_f64();

    collect(&mut bed, None, tr, &mut out);
    let app = bed.app::<IncastAggregator>(agg);
    out.attempted = inp.rounds;
    out.completed = app.completed_rounds;
    for &c in &background {
        let bg = bed.app::<RrClient>(c);
        out.attempted += inp.background_requests;
        out.completed += bg.completed();
        out.lat.merge(&bg.latency);
    }
    out.failed = out.attempted - out.completed.min(out.attempted);
    out.fct.merge(&app.fct);
    out.add(
        "finish_s",
        app.finish_time().map_or(0.0, |d| d.as_secs_f64()),
    );
    let cell = if dctcp_hw { "b" } else { "a" };
    out.check(
        out.completed > 0,
        &format!("cell ({cell}): no round completed"),
    );
    if dctcp_hw {
        out.check(
            out.get("tcp.ecn_ce_rx") > 0.0,
            "cell (b): transport.ecn_ce_rx must be > 0",
        );
    } else {
        out.check(
            out.get("tcp.rtx_segs") > 0.0,
            "cell (a): transport.rtx_segs must be > 0",
        );
    }
    out.check(
        out.get("ctrl.de.epochs") == 0.0,
        "core.de_epochs must be 0 (no controller attached)",
    );
    out
}

/// `incast_loss`: cell (a) CUBIC + SACK on the software path, then cell (b)
/// DCTCP + ECN marking on the SR-IOV path, from the same inputs.
pub fn run_incast(inp: &IncastInputs, tr: &mut Tracer) -> Outcome {
    let mut out = run_incast_cell(inp, false, tr);
    out.absorb(run_incast_cell(inp, true, tr));
    out
}

/// The churner tenant (victims are tenants 1..=N).
const CHURN_TENANT: TenantId = TenantId(99);
const CHURN_BURST: usize = 1;
const CHURN_HOT_PORTS: u16 = 4;

/// `flow_scale`: victim fleet + a ~1 000-connection churner, FasTrak
/// attached with a small fast-path budget.
pub fn run_flow_scale(inp: &FlowScaleInputs, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::new();
    let t0 = Instant::now();
    let world = tr.begin("build_world");
    let s = tr.begin("workload.testbed_build");
    let mut template = ServerConfig::testbed("template", Ip::UNSPECIFIED);
    template.max_vfs = 64;
    // Room for the churner's connect storm (1 024 SYNs in one instant): with
    // the default 5 ms receive backlog ~900 of them are dropped and retried
    // on 1 s timers, and which ones decides how the whole run unfolds.
    template.max_rx_backlog = SimDuration::from_millis(100);
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: FLOW_SCALE_SERVERS,
        tunneling: true,
        seed: inp.testbed_seed,
        server_template: template,
        ..TestbedConfig::default()
    });
    tr.end(s);

    let s = tr.begin("workload.place_vms");
    let fleet = TenantFleet::build(
        &mut bed,
        &TenantFleetConfig {
            n_tenants: inp.victims,
            clients_per_tenant: 1,
            zipf_s: inp.zipf_s,
            peak_burst: 4,
            start_stagger: SimDuration::from_micros(inp.fleet_stagger_us),
            ..TenantFleetConfig::default()
        },
    );
    let churn = add_churner(
        &mut bed,
        CHURN_TENANT,
        inp.churn_server_slot,
        inp.churn_client_slot,
        ChurnerConfig {
            n_ports: inp.churn_ports,
            hot_ports: CHURN_HOT_PORTS,
            phase: SimDuration::from_millis(CHURN_PHASE_MS),
            burst: CHURN_BURST,
            conns_per_port: inp.churn_conns_per_port,
            src_port_base: inp.churn_src_port_base,
            start_delay: SimDuration::from_micros(inp.churn_start_delay_us),
            ..ChurnerConfig::aggressive(Ip::tenant_vm(90))
        },
    );
    tr.end(s);

    let s = tr.begin("core.attach");
    let timing = Timing {
        sample_gap: SimDuration::from_millis(5),
        epoch: SimDuration::from_millis(ME_EPOCH_MS),
        epochs_per_interval: 2,
        history_intervals: 2,
    };
    let ft = attach(
        &mut bed,
        FasTrakConfig {
            budget: FLOW_SCALE_BUDGET,
            timing,
            ..FasTrakConfig::default()
        },
    );
    tr.end(s);
    tr.end(world);
    out.build_s = t0.elapsed().as_secs_f64();

    bed.begin_cpu_windows();
    ft.start(&mut bed);
    bed.start();
    let horizon = SimTime::from_millis(inp.horizon_ms);
    let mut converged_at: Option<SimTime> = None;
    drive(
        &mut bed,
        horizon,
        tr,
        |_| false,
        |bed| {
            if converged_at.is_none() && !ft.offloaded(bed).is_empty() {
                converged_at = Some(bed.now());
            }
        },
    );
    out.wall_s = t0.elapsed().as_secs_f64();

    collect(&mut bed, Some(&ft), tr, &mut out);
    out.add(
        "offload_convergence_ms",
        converged_at.map_or(0.0, |t| t.as_secs_f64() * 1e3),
    );
    let offloaded_end = ft.offloaded(&bed).len();
    out.add("offloaded_end", offloaded_end as f64);
    let ctrl = bed.kernel.node::<TorController>(ft.tor_ctrl);
    out.add(
        "ctrl_tor_drift",
        ctrl.entries_used as f64 - bed.tor().acl_rules() as f64,
    );
    out.probe.aggregates = usize::from(inp.churn_ports) + 2 * inp.victims as usize;
    out.probe.me_epochs = (inp.horizon_ms / ME_EPOCH_MS) as f64 * FLOW_SCALE_SERVERS as f64;

    // Transactions. A client's issue counter is private, so the requests
    // its server answered stand in for "issued": answered-but-unfinished
    // ones must fit the client's configured in-flight window.
    let mut window = 0u64;
    let mut served = 0u64;
    for t in &fleet.tenants {
        served += bed.app::<Memcached>(t.server).served;
        for &c in &t.clients {
            let app = bed.app::<MemslapClient>(c);
            out.completed += app.completed();
            out.lat.merge(&app.latency);
            window += (2 * t.burst) as u64; // conns_per_target × burst
        }
    }
    served += bed.app::<EchoRangeServer>(churn.server).served;
    out.completed += bed.app::<Churner>(churn.client).completed;
    window +=
        u64::from(CHURN_HOT_PORTS) * u64::from(inp.churn_conns_per_port) * CHURN_BURST as u64 * 2; // the previous hot set may still be draining
    out.attempted = served.max(out.completed);
    out.failed = (out.attempted - out.completed).saturating_sub(window);
    let broken = count_broken_conns(&bed, churn.client);
    out.failed += broken;
    out.check(
        broken == 0,
        &format!("{broken} churner connections reset or closed"),
    );

    let want_conns = usize::from(inp.churn_ports) * usize::from(inp.churn_conns_per_port);
    let conns_max = out.probe.conns_per_vm_max;
    out.check(
        conns_max >= want_conns,
        &format!("transport.conns_per_vm_max {conns_max} < {want_conns}"),
    );
    out.check(
        offloaded_end <= FLOW_SCALE_BUDGET,
        "core.offloaded_end exceeds the budget",
    );
    let capacity = bed.tor().cfg.fastpath_capacity as f64;
    out.check(
        out.get("tor.fastpath.used") <= capacity,
        "switch.fastpath_used_end exceeds the ToR capacity",
    );
    out.check(
        out.get("ctrl.installs_abandoned") == 0.0,
        "core.installs_abandoned must be 0",
    );
    out.check(
        out.get("ctrl.de.epochs") > 0.0,
        "core.de_epochs must be > 0 (controller in the loop)",
    );
    out.check(
        !inp.expect_demotes || out.get("ctrl.tenant.demotes") > 0.0,
        "core.demotes must be > 0 (the churn must bite)",
    );
    out
}

/// Churner hot-set rotation period and measurement epoch (ms). The phase
/// must outlast the ME's median window (2 × 2 epochs) or rotations are
/// filtered out and never rank.
pub const CHURN_PHASE_MS: u64 = 100;
pub const ME_EPOCH_MS: u64 = 20;

/// Connections of `vm` that were reset or closed: their pending
/// transactions can never complete.
fn count_broken_conns(bed: &Testbed, vm: VmRef) -> u64 {
    let stack = &bed.server(vm.server).vm(vm.vm).stack;
    stack
        .conn_ids()
        .filter(|&id| stack.conn(id).is_closed())
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{self, Size};
    use crate::metrics::{digest, simulated};
    use std::time::Instant;

    fn untraced() -> Tracer {
        Tracer::new(Instant::now())
    }

    /// Digest of one quick repetition of each seeded scenario workload.
    fn digests(seed: u64) -> [u64; 3] {
        let tr = &mut untraced();
        let rack = inputs::rack(seed, Size::Quick);
        let outs = [
            run_rack(&rack, false, tr),
            run_rack(&rack, true, tr),
            run_incast(&inputs::incast(seed, Size::Quick), tr),
        ];
        outs.map(|o| {
            assert_eq!(o.problems, Vec::<String>::new());
            assert_eq!(o.failed, 0);
            assert!(o.attempted > 0 && o.completed > 0);
            digest(&simulated(&o))
        })
    }

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        let (a, again, b) = (digests(1), digests(1), digests(2));
        assert_eq!(a, again, "a seed must reproduce every simulated statistic");
        for (w, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_ne!(x, y, "scenario workload {w} ignores the seed");
        }
    }

    #[test]
    fn a_truncated_run_counts_its_unfinished_requests_as_failed() {
        let mut inp = inputs::rack(1, Size::Quick);
        inp.horizon_ms = 20; // the full quick run needs ~300 simulated ms
        let out = run_rack(&inp, false, &mut untraced());
        assert_eq!(out.attempted, 5 * inputs::RACK_REQUESTS_PER_CLIENT / 20);
        assert!(out.completed > 0 && out.completed < out.attempted);
        assert_eq!(out.failed, out.attempted - out.completed);
        assert!(out.problems.iter().any(|p| p.contains("did not finish")));
    }

    #[test]
    fn layer_isolation_holds_at_quick_size() {
        let tr = &mut untraced();
        let rack = inputs::rack(3, Size::Quick);
        let (soft, express) = (run_rack(&rack, false, tr), run_rack(&rack, true, tr));
        assert_eq!(soft.get("tor.hw_frames"), 0.0);
        assert!(soft.get("host.vswitch.fast_path_hits") > 0.0);
        assert!(express.get("tor.hw_frames") > 0.0);
        assert_eq!(soft.attempted, express.attempted);
        let scale = run_flow_scale(&inputs::flow_scale(Size::Quick), tr);
        assert_eq!(scale.problems, Vec::<String>::new());
        assert!(scale.get("ctrl.de.epochs") > 0.0);
        assert_eq!(scale.probe.conns_per_vm_max, 64);
        let again = run_flow_scale(&inputs::flow_scale(Size::Quick), tr);
        assert_eq!(digest(&simulated(&scale)), digest(&simulated(&again)));
    }
}
