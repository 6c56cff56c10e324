//! Per-layer probes: host time of one layer's public entry point, called in
//! isolation on inputs taken from the workload that just ran (its flow
//! keys, rule count, connection count, aggregate count). A probe prices one
//! unit of a layer's work; `count × price ÷ wall_s` is that layer's
//! estimated share of a repetition.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use fastrak::de::DeConfig;
use fastrak::{AggDemand, IncrementalDecisionEngine, MeasurementEngine};
use fastrak_host::vswitch::{Vswitch, VswitchConfig};
use fastrak_net::addr::{Ip, Mac, TenantId, VlanId};
use fastrak_net::ctrl::{FlowStatEntry, TorRule};
use fastrak_net::event::{Event, NetCtx};
use fastrak_net::flow::{FlowAggregate, FlowKey, FlowSpec, Proto};
use fastrak_net::packet::{Encap, L4Meta, Packet};
use fastrak_net::rules::Action;
use fastrak_net::tables::{ExactMatchTable, WildcardTable};
use fastrak_sim::kernel::{Api, Kernel, Node, NodeId};
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_switch::tor::{HwDest, Tor, TorConfig};
use fastrak_transport::stack::TcpStack;
use fastrak_transport::tcp::{TcpConfig, TSO_LIMIT};

use crate::stats::median;
use crate::trace::Tracer;
use crate::worlds::ProbeInputs;

/// Every probe's result, in the catalogue's units.
#[derive(Default)]
pub struct ProbeCosts {
    pub kernel_frame_ns_per_event: f64,
    pub event_bytes: f64,
    pub packet_bytes: f64,
    pub exact_hit_ns: f64,
    pub wildcard_scan_ns: f64,
    pub wire_codec_ns_per_pkt: f64,
    pub vswitch_tx_ns_per_pkt: f64,
    pub tor_fwd_ns_per_pkt: f64,
    pub ack_clock_ns_per_seg: f64,
    pub ack_clock_1conn_ns_per_seg: f64,
    pub me_epoch_ms: f64,
    pub de_decide_ms: f64,
}

/// Host ns per operation: calibrate how many calls fill ~5 ms, then take
/// the median of seven such samples. `ops_per_call` operations per call.
fn ns_per_op(ops_per_call: u64, mut call: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(5);
    let t = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t.elapsed() < budget {
        call();
        calls += 1;
    }
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                call();
            }
            t.elapsed().as_nanos() as f64 / (calls * ops_per_call) as f64
        })
        .collect();
    median(&samples)
}

fn fallback_key() -> FlowKey {
    FlowKey {
        tenant: TenantId(1),
        src_ip: Ip::tenant_vm(10),
        dst_ip: Ip::tenant_vm(1),
        proto: Proto::Tcp,
        src_port: 43_000,
        dst_port: 11_211,
    }
}

fn data_packet(flow: FlowKey) -> Packet {
    let l4 = L4Meta::Tcp {
        seq: 1,
        ack: 2,
        flags: 0x18,
    };
    Packet::new(1, flow, l4, 1448, SimTime::ZERO)
}

/// Bounces a real `Event::Frame(Packet)` to its peer until `left` hits 0.
struct FramePing {
    peer: NodeId,
    left: u64,
}

impl Node<Event, NetCtx> for FramePing {
    fn on_event(&mut self, ev: Event, api: &mut Api<'_, Event, NetCtx>) {
        if self.left > 0 {
            self.left -= 1;
            api.send(self.peer, SimDuration::from_micros(1), ev);
        }
    }
}

fn kernel_frame(flow: FlowKey) -> f64 {
    const EVENTS: u64 = 20_000;
    let mut k = Kernel::new(NetCtx::new(), 1);
    let a = k.add_node(FramePing { peer: 1, left: 0 });
    let b = k.add_node(FramePing { peer: a, left: 0 });
    ns_per_op(EVENTS, || {
        k.node_mut::<FramePing>(a).left = EVENTS / 2;
        k.node_mut::<FramePing>(b).left = EVENTS / 2;
        let pkt = data_packet(flow);
        k.post(a, k.now(), Event::Frame { port: 0, pkt });
        k.run_to_completion();
    })
}

fn exact_hit(keys: &[FlowKey]) -> f64 {
    let mut t = ExactMatchTable::new();
    for (i, k) in keys.iter().enumerate() {
        t.insert(*k, i);
    }
    ns_per_op(keys.len() as u64, || {
        for k in keys {
            black_box(t.lookup(k, 1500).copied());
        }
    })
}

/// A lookup that scans `rules` non-matching wildcard rules: what every cold
/// flow pays in the slow path and every hardware frame pays at the ToR.
fn wildcard_scan(rules: usize, key: &FlowKey) -> f64 {
    let mut t = WildcardTable::new(rules);
    for i in 0..rules {
        let spec = FlowSpec {
            tenant: Some(key.tenant),
            dst_port: Some(key.dst_port.wrapping_add(1 + i as u16)),
            ..FlowSpec::ANY
        };
        t.install(spec, 10, i).expect("table sized to fit");
    }
    ns_per_op(1, || {
        black_box(t.lookup(key, 1500).copied());
    })
}

fn wire_codec(flow: FlowKey) -> f64 {
    let pkt = data_packet(flow);
    ns_per_op(1, || {
        let bytes = pkt.encode_wire(Mac::local(1), Mac::local(2));
        black_box(Packet::decode_wire(flow.tenant, &bytes).expect("round trip"));
    })
}

/// `process_tx_burst` over the workload's flow keys, round-robin in bursts
/// of 32 with every key already cached (the steady state of a run).
fn vswitch_tx(keys: &[FlowKey]) -> f64 {
    const BURST: usize = 32;
    let mut vs = Vswitch::new(VswitchConfig::default());
    vs.attach_vif(keys[0].tenant, keys[0].src_ip);
    for k in keys {
        vs.process_tx(k, 1500);
    }
    let pkts: Vec<(FlowKey, u64)> = keys
        .iter()
        .cycle()
        .take(BURST)
        .map(|k| (*k, 1500))
        .collect();
    let mut out = Vec::with_capacity(BURST);
    ns_per_op(BURST as u64, || {
        out.clear();
        vs.process_tx_burst(&pkts, &mut out);
        black_box(&out);
    })
}

struct Sink;

impl Node<Event, NetCtx> for Sink {
    fn on_event(&mut self, ev: Event, _api: &mut Api<'_, Event, NetCtx>) {
        black_box(ev);
    }
}

/// One `Tor` forwarding to a sink: VLAN-tagged frames through the VRF/ACL
/// pipeline with `rules` installed (`hw`), or plain frames L2-switched.
fn tor_fwd(hw: bool, rules: usize, flow: FlowKey) -> f64 {
    const FRAMES: u64 = 512;
    let mut k = Kernel::new(NetCtx::new(), 1);
    let mut cfg = TorConfig::testbed("tor", 0);
    cfg.fastpath_capacity = rules + 1;
    let tor = k.add_node(Tor::new(cfg));
    let sink = k.add_node(Sink);
    let vlan = VlanId::new(100);
    {
        let t = k.node_mut::<Tor>(tor);
        t.wire_port(0, sink, 0);
        t.wire_port(1, sink, 1);
        t.map_vlan(vlan, flow.tenant);
        t.add_hw_dest(flow.tenant, flow.dst_ip, HwDest { port: 1, vlan });
        t.add_l2_route(flow.tenant, flow.dst_ip, 0);
        // Rules that do not match first, so the lookup scans all of them.
        for i in 0..rules {
            let miss = i + 1 < rules;
            let spec = FlowSpec {
                tenant: Some(flow.tenant),
                dst_ip: Some(flow.dst_ip),
                dst_port: miss.then(|| flow.dst_port.wrapping_add(1 + i as u16)),
                ..FlowSpec::ANY
            };
            t.install_rule(&TorRule {
                tenant: flow.tenant,
                spec,
                priority: if miss { 10 } else { 5 },
                action: Action::Allow,
                tunnel: None,
                qos: None,
            })
            .expect("fast path sized to fit");
        }
    }
    let mut pkt = data_packet(flow);
    if hw {
        pkt.encap(Encap::Vlan(vlan.0));
    }
    ns_per_op(FRAMES, || {
        // 2 µs apart: slower than the 10 Gb/s port drains, so no backlog.
        let start = k.now();
        for i in 0..FRAMES {
            let at = start + SimDuration::from_micros(2 * i);
            k.post(
                tor,
                at,
                Event::Frame {
                    port: 0,
                    pkt: pkt.clone(),
                },
            );
        }
        k.run_to_completion();
    })
}

/// Mirror of the server's `pump_vm`: drain every segment `from` wants to
/// send into `to`, then re-arm (scan for the next timer).
fn pump(from: &mut TcpStack, to: &mut TcpStack, now: SimTime) {
    while let Some((id, plan)) = from.poll_transmit(now, TSO_LIMIT) {
        let l4 = L4Meta::Tcp {
            seq: plan.seq,
            ack: plan.ack,
            flags: plan.flags,
        };
        let mut pkt = Packet::new(0, from.conn(id).flow, l4, plan.len, now);
        pkt.ecn = plan.ecn;
        pkt.sack = plan.sack;
        to.on_packet(now, &pkt);
    }
    black_box(from.next_timer());
}

/// Two `TcpStack`s pumped back to back with `conns` connections open and
/// one of them carrying an ACK-clocked stream of full segments.
fn ack_clock(conns: usize, flow: FlowKey) -> f64 {
    let mut c = TcpStack::new(TcpConfig::default());
    let mut s = TcpStack::new(TcpConfig::default());
    s.listen(flow.dst_port);
    let mut now = SimTime::ZERO;
    let ids: Vec<_> = (0..conns)
        .map(|i| {
            c.connect(FlowKey {
                src_port: 20_000 + i as u16,
                ..flow
            })
        })
        .collect();
    for _ in 0..3 {
        pump(&mut c, &mut s, now);
        pump(&mut s, &mut c, now);
    }
    assert!(c.conn(ids[0]).is_established(), "handshake must complete");
    c.drain_events();
    s.drain_events();
    let active = ids[conns / 2];
    ns_per_op(1, || {
        now = SimTime(now.as_nanos() + 10_000);
        c.app_send(active, 1448);
        pump(&mut c, &mut s, now);
        pump(&mut s, &mut c, now);
        // Fire the delayed-ACK timer when it is what the window waits for.
        if let Some(t) = s.next_timer().filter(|&t| t <= now) {
            s.on_timer(t);
            pump(&mut s, &mut c, now);
        }
        c.drain_events();
        s.drain_events();
    })
}

/// One measurement-engine epoch (sample A, sample B, report) over `flows`
/// per-flow counters, in ms.
fn me_epoch(keys: &[FlowKey]) -> f64 {
    let dump = |scale: u64| -> Vec<FlowStatEntry> {
        keys.iter()
            .enumerate()
            .map(|(i, k)| FlowStatEntry {
                key: *k,
                packets: scale * (1_000 + i as u64 * 13),
                bytes: scale * (100_000 + i as u64 * 997),
            })
            .collect()
    };
    let (a, b) = (dump(1), dump(2));
    ns_per_op(1, || {
        let mut me = MeasurementEngine::new(0.005, 4);
        me.epoch_sample_a(black_box(&a));
        me.epoch_sample_b(black_box(&b));
        black_box(me.report());
    }) / 1e6
}

/// One incremental decision epoch (`ingest` a quarter of the aggregates
/// re-priced, then `decide`) at the workload's aggregate count, in ms.
fn de_decide(aggregates: usize, budget: usize, flow: FlowKey) -> f64 {
    let demand = |i: usize, f: f64| AggDemand {
        agg: FlowAggregate::dst_of(&FlowKey {
            dst_port: 7_000 + i as u16,
            ..flow
        }),
        pps: f * ((i as f64 * 17.0) % 50_000.0),
        bps: 1e6,
        n_active: 1 + (i % 6) as u32,
        m_pps: f * (1_000.0 + (i as f64 * 13.0) % 40_000.0),
        m_bps: 1e6,
    };
    let base: Vec<AggDemand> = (0..aggregates).map(|i| demand(i, 1.0)).collect();
    let mut de = IncrementalDecisionEngine::new(DeConfig::paper());
    de.ingest_snapshot(&base);
    let offloaded: HashSet<FlowAggregate> = de
        .decide(&HashSet::new(), budget)
        .target
        .into_iter()
        .collect();
    let churn = (aggregates / 4).max(1);
    let factors = [0.85, 1.1, 0.95, 1.2];
    let batches: Vec<Vec<AggDemand>> = factors
        .iter()
        .map(|&f| (0..churn).map(|i| demand(i, f)).collect())
        .collect();
    let mut epoch = 0usize;
    ns_per_op(1, || {
        epoch += 1;
        de.ingest(black_box(&batches[epoch % batches.len()]), &[]);
        black_box(de.decide(&offloaded, budget));
    }) / 1e6
}

/// Run every probe on the workload's inputs, one `probe.<layer>` span each.
pub fn run_all(inp: &ProbeInputs, tor_hw: bool, budget: usize, tr: &mut Tracer) -> ProbeCosts {
    let fallback = [fallback_key()];
    let keys: &[FlowKey] = if inp.flow_keys.is_empty() {
        &fallback
    } else {
        &inp.flow_keys
    };
    let flow = keys[0];
    let rules = inp.rules_end.max(1);
    let mut p = ProbeCosts::default();

    let s = tr.begin("probe.sim");
    p.kernel_frame_ns_per_event = kernel_frame(flow);
    p.event_bytes = std::mem::size_of::<Event>() as f64;
    p.packet_bytes = std::mem::size_of::<Packet>() as f64;
    tr.end(s);

    let s = tr.begin("probe.net");
    p.exact_hit_ns = exact_hit(keys);
    p.wildcard_scan_ns = wildcard_scan(rules, &flow);
    p.wire_codec_ns_per_pkt = wire_codec(flow);
    tr.end(s);

    let s = tr.begin("probe.host");
    p.vswitch_tx_ns_per_pkt = vswitch_tx(keys);
    tr.end(s);

    let s = tr.begin("probe.switch");
    p.tor_fwd_ns_per_pkt = tor_fwd(tor_hw, rules, flow);
    tr.end(s);

    let s = tr.begin("probe.transport");
    p.ack_clock_1conn_ns_per_seg = ack_clock(1, flow);
    p.ack_clock_ns_per_seg = if inp.conns_per_vm_max > 1 {
        ack_clock(inp.conns_per_vm_max, flow)
    } else {
        p.ack_clock_1conn_ns_per_seg
    };
    tr.end(s);

    let s = tr.begin("probe.core");
    if inp.aggregates > 0 {
        p.me_epoch_ms = me_epoch(keys);
        p.de_decide_ms = de_decide(inp.aggregates, budget, flow);
    }
    tr.end(s);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_returns_a_positive_cost() {
        let inp = ProbeInputs {
            conns_per_vm_max: 16,
            rules_end: 4,
            aggregates: 8,
            ..ProbeInputs::default()
        };
        let mut tr = Tracer::new(Instant::now());
        let p = run_all(&inp, true, 4, &mut tr);
        for (name, v) in [
            ("kernel_frame", p.kernel_frame_ns_per_event),
            ("event_bytes", p.event_bytes),
            ("packet_bytes", p.packet_bytes),
            ("exact_hit", p.exact_hit_ns),
            ("wildcard_scan", p.wildcard_scan_ns),
            ("wire_codec", p.wire_codec_ns_per_pkt),
            ("vswitch_tx", p.vswitch_tx_ns_per_pkt),
            ("tor_fwd", p.tor_fwd_ns_per_pkt),
            ("ack_clock", p.ack_clock_ns_per_seg),
            ("ack_clock_1conn", p.ack_clock_1conn_ns_per_seg),
            ("me_epoch", p.me_epoch_ms),
            ("de_decide", p.de_decide_ms),
        ] {
            assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
        }
        // Software-path variant exercises the L2 branch.
        assert!(tor_fwd(false, 1, fallback_key()) > 0.0);
    }
}
