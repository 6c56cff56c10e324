//! Benchmarks for the transport subsystem's hot paths: the established
//! ACK-clocked send/receive cycle (on a bare connection pair, and through
//! two per-VM stacks holding one busy connection among many idle ones), one
//! guest receive turn as the host runs it, and SACK scoreboard maintenance
//! under a lossy window.
//!
//! Run with `cargo bench -p fastrak-bench --bench transport` (add
//! `-- --quick` for a fast smoke pass). Set `FASTRAK_BENCH_JSON=<path>` to
//! collect machine-readable results.

use fastrak_bench::harness::{black_box, Suite};
use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::flow::{FlowKey, Proto};
use fastrak_net::packet::{L4Meta, Packet, SackBlocks};
use fastrak_sim::time::SimTime;
use fastrak_transport::sack::Scoreboard;
use fastrak_transport::tcp::{Segment, TcpConfig, TcpConn, TSO_LIMIT};
use fastrak_transport::{ConnId, SockEvent, TcpStack};

fn flow() -> FlowKey {
    FlowKey {
        tenant: TenantId(3),
        src_ip: Ip::new(10, 0, 0, 1),
        dst_ip: Ip::new(10, 0, 0, 2),
        proto: Proto::Tcp,
        src_port: 40_000,
        dst_port: 11_211,
    }
}

/// Drain every pending segment from `from` into `to` at `now` (both run
/// the default config).
fn pump(from: &mut TcpConn, to: &mut TcpConn, now: SimTime) {
    let cfg = TcpConfig::default();
    while let Some(p) = from.poll_transmit(&cfg, now, 64) {
        let seg = Segment {
            seq: p.seq,
            ack: p.ack,
            flags: p.flags,
            len: p.len as u64,
            ce: false,
            sack: p.sack,
        };
        to.on_segment(&cfg, now, seg);
    }
}

/// An established client/server pair (handshake already pumped).
fn established_pair() -> (TcpConn, TcpConn) {
    let cfg = TcpConfig::default();
    let mut c = TcpConn::client(flow(), &cfg);
    let mut s = TcpConn::listen(flow().reverse(), &cfg);
    let t0 = SimTime::ZERO;
    pump(&mut c, &mut s, t0); // SYN
    pump(&mut s, &mut c, t0); // SYN|ACK
    pump(&mut c, &mut s, t0); // ACK
    assert!(c.is_established() && s.is_established());
    (c, s)
}

/// What the host's `pump_vm` does to a VM's stack, with `to` standing in
/// for the wire and the peer's receive path: drain every segment `from`
/// wants to send, deliver each, then ask for the next timer to arm.
fn pump_stack(from: &mut TcpStack, to: &mut TcpStack, now: SimTime) {
    while let Some((id, plan)) = from.poll_transmit(now, TSO_LIMIT) {
        let l4 = L4Meta::Tcp {
            seq: plan.seq,
            ack: plan.ack,
            flags: plan.flags,
        };
        let mut pkt = Packet::new(0, from.conn(id).flow, l4, plan.len, now);
        pkt.sack = plan.sack;
        to.on_packet(now, &pkt);
    }
    black_box(from.next_timer());
}

/// Client and server stacks with `conns` established connections; returns
/// them with the id of the one connection the bench keeps busy.
fn established_stacks(conns: usize) -> (TcpStack, TcpStack, ConnId) {
    let mut c = TcpStack::new(TcpConfig::default());
    let mut s = TcpStack::new(TcpConfig::default());
    s.listen(flow().dst_port);
    let ids: Vec<_> = (0..conns)
        .map(|i| {
            c.connect(FlowKey {
                src_port: 20_000 + i as u16,
                ..flow()
            })
        })
        .collect();
    for _ in 0..2 {
        pump_stack(&mut c, &mut s, SimTime::ZERO); // SYNs, then ACKs
        pump_stack(&mut s, &mut c, SimTime::ZERO); // SYN|ACKs
    }
    assert!(ids.iter().all(|&id| c.conn(id).is_established()));
    c.drain_events();
    s.drain_events();
    (c, s, ids[conns / 2])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut su = Suite::new("transport");
    if quick {
        su = su.quick();
    }

    // One ACK-clocked transaction: the sender queues one MSS, emits it,
    // the receiver consumes it and (every other segment or on the delack
    // timer) acks, and the ack returns. This is the per-segment cost every
    // simulated byte of every experiment pays.
    {
        let (mut c, mut s) = established_pair();
        let mut now = SimTime::ZERO;
        su.bench("tcp_ack_clock", || {
            now = SimTime(now.as_nanos() + 10_000);
            c.app_send(1448);
            pump(&mut c, &mut s, now);
            // Flush the delayed ACK so the window never stalls.
            if let Some((_, w)) = s.next_timer() {
                s.on_timer(now, w);
            }
            pump(&mut s, &mut c, now);
            black_box(c.flight());
        });
        assert_eq!(c.flight(), 0, "ack clock must keep the pipe drained");
    }

    // The same transaction through two per-VM stacks, pumped the way the
    // host pumps them, with one busy connection among `conns` established
    // ones. The idle connections must cost nothing: the 512 point is held
    // near the 1 point by a perf_gate ceiling, so a per-connection scan on
    // the pump path cannot come back unnoticed.
    for conns in [1usize, 512] {
        let (mut c, mut s, active) = established_stacks(conns);
        let mut now = SimTime::ZERO;
        su.bench(&format!("tcp_stack_pump/conns/{conns}"), || {
            now = SimTime(now.as_nanos() + 10_000);
            c.app_send(active, 1448);
            pump_stack(&mut c, &mut s, now);
            pump_stack(&mut s, &mut c, now);
            // Flush the delayed ACK when it is what the window waits for.
            if s.next_timer().is_some_and(|t| t <= now) {
                s.on_timer(now);
                pump_stack(&mut s, &mut c, now);
            }
            black_box((c.drain_events(), s.drain_events()));
        });
        assert!(c.conn(active).flight() <= 1448, "the pipe stays drained");
    }

    // One receive turn of a guest as `Server` runs it, on the server side of
    // a request/response exchange: the request is fed to `on_packet`, its one
    // `Delivered` event is popped and answered with `app_send`, the reply is
    // polled out, and the re-arm question is put to the timer index (O(1)
    // floor check first, the exact minimum only when that cannot say no).
    // One connection of `conns` is active; the 512 point is held by a
    // perf_gate ceiling, so the question cannot turn into a per-turn scan.
    for conns in [8usize, 512] {
        let (c, mut s, active) = established_stacks(conns);
        let request = c.conn(active).flow;
        let reply = s.conn_by_flow(&request.reverse()).expect("accepted");
        let ack = fastrak_net::headers::tcp_flags::ACK;
        let l4 = |done: u64| L4Meta::Tcp {
            seq: 1 + 100 * done,
            ack: 1 + 100 * done,
            flags: ack,
        };
        let mut pkt = Packet::new(0, request, l4(0), 100, SimTime::ZERO);
        let mut turns = 0u64;
        let mut armed: Option<SimTime> = None;
        su.bench(&format!("guest_turn/conns/{conns}"), || {
            let now = SimTime(10_000 * (turns + 1));
            if armed.is_some_and(|at| at <= now) {
                armed = None;
                s.on_timer(now);
            }
            // The request acknowledges every earlier reply.
            pkt.l4 = l4(turns);
            turns += 1;
            s.on_packet(now, &pkt);
            while let Some(ev) = s.pop_event() {
                if let SockEvent::Delivered { conn, bytes } = ev {
                    s.app_send(conn, bytes);
                }
            }
            while let Some(seg) = s.poll_transmit(now, TSO_LIMIT) {
                black_box(seg);
            }
            if !s.has_timers() {
                armed = None;
            } else if armed.is_none_or(|at| at > s.timer_floor()) {
                let earliest = s.next_timer().expect("a connection holds a timer");
                if armed.is_none_or(|at| at > earliest) {
                    armed = Some(earliest);
                }
            }
            black_box(armed);
        });
        let stats = s.conn(reply).stats;
        assert_eq!(stats.bytes_delivered, 100 * turns, "every request landed");
        assert_eq!(stats.rtx_segs + stats.timeouts, 0, "and every reply");
    }

    // Scoreboard maintenance under a lossy window: fold three-block SACK
    // reports into the range map and walk the first repairable hole — the
    // per-dup-ACK cost during every recovery episode.
    {
        let mss = 1448u64;
        let mut i = 0u64;
        let mut sb = Scoreboard::default();
        su.bench("sack_scoreboard_update", || {
            // A sliding lossy window: every 16th segment is a hole.
            let base = i * mss;
            let mut blocks = SackBlocks::EMPTY;
            blocks.push(base + mss, base + 4 * mss);
            blocks.push(base + 5 * mss, base + 9 * mss);
            blocks.push(base + 10 * mss, base + 15 * mss);
            sb.on_ack(base, base + 16 * mss, &blocks);
            black_box(sb.next_hole(base, base + 16 * mss));
            i += 1;
            if i.is_multiple_of(1024) {
                sb.clear();
            }
        });
    }

    su.finish();
}
