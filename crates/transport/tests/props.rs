//! Randomized-input tests for TCP: under arbitrary loss and reordering of a
//! lossy channel, every byte the application wrote is eventually delivered,
//! in order, exactly once — the invariant Fig. 12 quietly relies on when
//! flow migration scrambles the path. Inputs are drawn from the engine's
//! seeded [`fastrak_sim::Rng`] so every run replays the same case list.

use std::collections::VecDeque;

use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::flow::{FlowKey, Proto};
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_sim::Rng;
use fastrak_transport::tcp::{Segment, SegmentPlan, TcpConfig, TcpConn, TcpTimer};

fn flow() -> FlowKey {
    FlowKey {
        tenant: TenantId(1),
        src_ip: Ip::new(10, 0, 0, 1),
        dst_ip: Ip::new(10, 0, 0, 2),
        proto: Proto::Tcp,
        src_port: 40_000,
        dst_port: 5001,
    }
}

/// Hand `p` to `to` as the wire would: no CE mark, no SACK blocks (off here:
/// every connection here runs the default config).
fn deliver(to: &mut TcpConn, now: SimTime, p: SegmentPlan) {
    let seg = Segment {
        seq: p.seq,
        ack: p.ack,
        flags: p.flags,
        len: p.len as u64,
        ..Segment::default()
    };
    to.on_segment(&TcpConfig::default(), now, seg);
}

/// A lossy, optionally reordering channel driven by a script of events.
struct Channel {
    queue: VecDeque<SegmentPlan>,
}

impl Channel {
    fn new() -> Channel {
        Channel {
            queue: VecDeque::new(),
        }
    }
}

/// Simulate a transfer of `writes` through a channel that drops segment n
/// when `drops` contains n, and swaps adjacent deliveries when `swaps`
/// contains the delivery index. Returns bytes delivered in order at the
/// receiver.
fn run_transfer(writes: &[u16], drops: &[u8], swaps: &[u8]) -> (u64, u64) {
    let cfg = TcpConfig::default();
    let mut a = TcpConn::client(flow(), &cfg);
    let mut b = TcpConn::server(flow().reverse(), &cfg);

    // Handshake.
    let mut now = SimTime::ZERO;
    let syn = a.poll_transmit(&cfg, now, 65_000).unwrap();
    deliver(&mut b, now, syn);
    let synack = b.poll_transmit(&cfg, now, 65_000).unwrap();
    deliver(&mut a, now, synack);
    let ack = a.poll_transmit(&cfg, now, 65_000).unwrap();
    deliver(&mut b, now, ack);

    let total: u64 = writes.iter().map(|&w| w as u64 + 1).sum();
    for w in writes {
        assert!(a.app_send(*w as u64 + 1));
    }

    let mut a2b = Channel::new();
    let mut b2a = Channel::new();
    let mut seg_count: u64 = 0;
    let mut deliver_count: u64 = 0;
    let step = SimDuration::from_micros(50);

    // Drive until everything delivered or the iteration budget runs out.
    for _round in 0..400_000 {
        now += step;
        // Pump transmissions.
        while let Some(p) = a.poll_transmit(&cfg, now, 65_000) {
            seg_count += 1;
            if !drops.iter().any(|&d| d as u64 == seg_count % 37) {
                a2b.queue.push_back(p);
            }
        }
        while let Some(p) = b.poll_transmit(&cfg, now, 65_000) {
            b2a.queue.push_back(p);
        }
        // Optional adjacent swap at the head of the a->b queue.
        if a2b.queue.len() >= 2 && swaps.iter().any(|&s| s as u64 == deliver_count % 17) {
            a2b.queue.swap(0, 1);
        }
        // Deliver one from each direction per round.
        if let Some(p) = a2b.queue.pop_front() {
            deliver_count += 1;
            deliver(&mut b, now, p);
        }
        if let Some(p) = b2a.queue.pop_front() {
            deliver(&mut a, now, p);
        }
        // Fire due timers.
        for (c, _name) in [(&mut a, "a"), (&mut b, "b")] {
            while let Some((t, which)) = c.next_timer() {
                if t > now {
                    break;
                }
                c.on_timer(now, which);
                if which == TcpTimer::Rto {
                    break;
                }
            }
        }
        if b.stats.bytes_delivered >= total
            && a2b.queue.is_empty()
            && b2a.queue.is_empty()
            && a.flight() == 0
        {
            break;
        }
    }
    (b.stats.bytes_delivered, total)
}

#[test]
fn all_bytes_delivered_in_order_under_loss_and_reorder() {
    let check = |writes: &[u16], drops: &[u8], swaps: &[u8]| {
        let (delivered, total) = run_transfer(writes, drops, swaps);
        // Delivery is cumulative/in-order by construction of bytes_delivered:
        // equality means no byte was lost, duplicated, or reordered past the
        // reassembly queue.
        assert_eq!(
            delivered, total,
            "writes={writes:?} drops={drops:?} swaps={swaps:?}"
        );
    };
    // A shrunk case that once stalled the transfer, pinned ahead of the
    // random sweep.
    let mut pinned = vec![1u16; 13];
    pinned.extend([247, 979, 1666]);
    check(&pinned, &[19, 17, 16, 13], &[4]);
    let mut r = Rng::new(0x7C9_1055);
    for _ in 0..48 {
        let writes: Vec<u16> = (0..r.range(1, 19))
            .map(|_| r.range(1, 2999) as u16)
            .collect();
        let drops: Vec<u8> = (0..r.below(6)).map(|_| r.below(37) as u8).collect();
        let swaps: Vec<u8> = (0..r.below(6)).map(|_| r.below(17) as u8).collect();
        check(&writes, &drops, &swaps);
    }
}

#[test]
fn lossless_channel_needs_no_retransmits() {
    let mut r = Rng::new(0x1055_1e55);
    for _ in 0..48 {
        let writes: Vec<u16> = (0..r.range(1, 19))
            .map(|_| r.range(1, 2999) as u16)
            .collect();
        let cfg = TcpConfig::default();
        let mut a = TcpConn::client(flow(), &cfg);
        let mut b = TcpConn::server(flow().reverse(), &cfg);
        let mut now = SimTime::ZERO;
        let syn = a.poll_transmit(&cfg, now, 65_000).unwrap();
        deliver(&mut b, now, syn);
        let synack = b.poll_transmit(&cfg, now, 65_000).unwrap();
        deliver(&mut a, now, synack);
        let ack = a.poll_transmit(&cfg, now, 65_000).unwrap();
        deliver(&mut b, now, ack);

        let total: u64 = writes.iter().map(|&w| w as u64).sum();
        let mut all_accepted = true;
        for w in &writes {
            all_accepted &= a.app_send(*w as u64);
        }
        if !all_accepted {
            continue; // send buffer full: case not applicable, like prop_assume
        }
        for _ in 0..50_000 {
            now += SimDuration::from_micros(20);
            let mut moved = false;
            while let Some(p) = a.poll_transmit(&cfg, now, 65_000) {
                deliver(&mut b, now, p);
                moved = true;
            }
            while let Some(p) = b.poll_transmit(&cfg, now, 65_000) {
                deliver(&mut a, now, p);
                moved = true;
            }
            if !moved {
                // Let delayed-ack timers fire.
                if let Some((t, w)) = b.next_timer() {
                    if w == TcpTimer::DelAck {
                        b.on_timer(t.max(now), w);
                        continue;
                    }
                }
                if b.stats.bytes_delivered >= total {
                    break;
                }
            }
        }
        assert_eq!(b.stats.bytes_delivered, total, "writes={writes:?}");
        assert_eq!(a.stats.timeouts, 0);
        assert_eq!(a.stats.fast_retransmits, 0);
    }
}
