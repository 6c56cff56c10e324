//! The receive half of a connection: reassembly, what is owed to the peer
//! as an ACK, and the peer's FIN.
//!
//! [`Receiver`] owns `rcv_nxt`, the out-of-order buffer, the delayed-ACK
//! counters and deadline, the ECN echo latches and the peer-FIN pair.
//!
//! Invariants: every buffered range starts above `rcv_nxt`; the delayed-ACK
//! deadline is armed only while received data is unacknowledged, and any
//! segment that carries the cumulative ACK pays the whole debt
//! ([`Receiver::clear_ack_state`]); the peer's FIN is consumed exactly once,
//! when everything before it has arrived.
//!
//! The ACK rule: an out-of-order segment, an old one and one that fills all
//! or part of a hole are ACKed at once; in-order data that arrives with
//! nothing buffered behind it waits for the delayed ACK, up to
//! [`ACK_EVERY_SEGS`] segments or [`ACK_EVERY_BYTES`].

use std::collections::BTreeMap;

use fastrak_net::headers::tcp_flags;
use fastrak_net::packet::{SackBlocks, MSS};
use fastrak_sim::time::SimTime;

use crate::tcp::{Segment, TcpConfig, TcpStats, UNARMED};
use crate::CcAlgo;

/// A pure ACK is owed after this many unacknowledged data segments ...
const ACK_EVERY_SEGS: u32 = 2;
/// ... or bytes (Linux acks every other full-sized segment; an LRO
/// aggregate is acknowledged promptly).
const ACK_EVERY_BYTES: u64 = 2 * MSS as u64;

/// `fin_seq` before the peer's FIN is seen (no sequence reaches it).
const NO_FIN: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub(crate) struct Receiver {
    /// Next in-order sequence expected.
    pub rcv_nxt: u64,
    /// Out-of-order data: start → length.
    ooo: BTreeMap<u64, u64>,
    segs_since_ack: u32,
    bytes_since_ack: u64,
    /// [`UNARMED`] while no delayed ACK is pending.
    pub delack_deadline: SimTime,
    pub need_ack_now: bool,
    /// Classic ECN: echo ECE until the sender's CWR.
    ece_latched: bool,
    /// DCTCP: CE state of the most recent data segment.
    rcv_ce_state: bool,
    /// Sequence of a peer FIN seen but not yet consumable (data still
    /// missing); [`NO_FIN`] before one is seen.
    fin_seq: u64,
    /// Peer FIN consumed.
    fin_rcvd: bool,
}

impl Default for Receiver {
    fn default() -> Receiver {
        Receiver {
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            segs_since_ack: 0,
            bytes_since_ack: 0,
            delack_deadline: UNARMED,
            need_ack_now: false,
            ece_latched: false,
            rcv_ce_state: false,
            fin_seq: NO_FIN,
            fin_rcvd: false,
        }
    }
}

impl Receiver {
    /// The payload of `seg` (`len > 0`) arrived on a connection whose ECN
    /// negotiation ended as `ecn_active`. Returns the bytes newly
    /// deliverable in order.
    pub fn on_data(
        &mut self,
        now: SimTime,
        seg: &Segment,
        cfg: &TcpConfig,
        ecn_active: bool,
        stats: &mut TcpStats,
    ) -> u64 {
        let Segment { seq, len, ce, .. } = *seg;
        stats.ecn_ce_rx += ce as u64;
        if ecn_active && cfg.cc == CcAlgo::Dctcp {
            // RFC 8257 §3.2: echo the exact CE state; ack immediately when
            // it changes.
            if ce != self.rcv_ce_state {
                self.rcv_ce_state = ce;
                self.need_ack_now = true;
            }
        } else if ecn_active && ce {
            self.ece_latched = true;
        }
        let seg_end = seq + len;
        if seg_end <= self.rcv_nxt {
            // Entirely old: ack it again.
            self.need_ack_now = true;
            return 0;
        }
        if seq > self.rcv_nxt {
            // Out of order: buffer and dup-ack immediately. A shorter
            // retransmission at the same sequence must not shrink an
            // already-buffered longer segment.
            stats.ooo_segs_rx += 1;
            let e = self.ooo.entry(seq).or_insert(0);
            *e = (*e).max(len);
            self.need_ack_now = true;
            return 0;
        }
        // In order (possibly partially old): take it and whatever buffered
        // data is now contiguous. A segment that fills all or part of a hole
        // is ACKed at once (RFC 5681 §4.2), so each repair of a recovery
        // costs a round trip, not a delayed-ACK interval.
        let fills_hole = !self.ooo.is_empty();
        self.rcv_nxt = seg_end;
        stats.segs_rx += 1;
        while let Some((&s, &l)) = self.ooo.first_key_value() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.remove(&s);
            self.rcv_nxt = self.rcv_nxt.max(s + l);
        }
        let delivered = self.rcv_nxt - stats.bytes_delivered - 1; // data starts at seq 1
        stats.bytes_delivered += delivered;
        self.segs_since_ack += 1;
        self.bytes_since_ack += delivered;
        let due = self.segs_since_ack >= ACK_EVERY_SEGS || self.bytes_since_ack >= ACK_EVERY_BYTES;
        if fills_hole || due {
            self.need_ack_now = true;
        } else if self.delack_deadline == UNARMED {
            self.delack_deadline = now + cfg.delack;
        }
        delivered
    }

    /// The sender set CWR: stop echoing ECE (classic ECN).
    pub fn on_cwr(&mut self) {
        self.ece_latched = false;
    }

    /// End-of-segment FIN bookkeeping: `fin` is the sequence a FIN on this
    /// segment occupies. Returns true when the peer's FIN was consumed just
    /// now — by this segment, or by data that filled the hole before an
    /// earlier one.
    pub fn on_fin(&mut self, fin: Option<u64>) -> bool {
        if self.fin_rcvd {
            // FIN retransmission: re-ACK it.
            self.need_ack_now |= fin.is_some();
            return false;
        }
        if let Some(seq) = fin {
            self.fin_seq = seq;
        }
        let consumed = self.fin_seq == self.rcv_nxt;
        if consumed {
            self.fin_rcvd = true;
            self.rcv_nxt += 1;
        }
        // Consumed, or a FIN ahead of missing data: (dup-)ack at once.
        self.need_ack_now |= consumed || fin.is_some();
        consumed
    }

    /// The delayed-ACK timer fired; true when an ACK was in fact owed.
    pub fn on_delack_timer(&mut self) -> bool {
        let owed = self.segs_since_ack > 0;
        self.need_ack_now |= owed;
        owed
    }

    /// ECE to carry on outgoing segments (receiver-side congestion echo).
    pub fn echo_flags(&self) -> u8 {
        // Each latch is only ever set on an ECN connection of its own kind.
        if self.rcv_ce_state || self.ece_latched {
            tcp_flags::ECE
        } else {
            0
        }
    }

    /// SACK blocks describing the out-of-order buffer (≤ 3, coalesced), for
    /// a connection that advertises them.
    pub fn sack_blocks(&self) -> SackBlocks {
        let mut blocks = SackBlocks::EMPTY;
        let mut cur: Option<(u64, u64)> = None;
        for (&s, &l) in &self.ooo {
            let e = s + l;
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    blocks.push(cs, ce);
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            blocks.push(cs, ce);
        }
        blocks
    }

    /// A segment carrying the cumulative ACK went out: nothing is owed.
    pub fn clear_ack_state(&mut self) {
        self.need_ack_now = false;
        self.segs_since_ack = 0;
        self.bytes_since_ack = 0;
        self.delack_deadline = UNARMED;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: u64, len: u64) -> Segment {
        Segment {
            seq,
            len,
            ..Segment::default()
        }
    }

    fn receiver() -> (Receiver, TcpConfig, TcpStats) {
        let rx = Receiver {
            rcv_nxt: 1, // the peer's SYN consumed
            ..Receiver::default()
        };
        (rx, TcpConfig::default(), TcpStats::default())
    }

    #[test]
    fn sack_blocks_coalesce_what_abuts_and_report_the_rest_in_order() {
        let (mut rx, cfg, mut stats) = receiver();
        let now = SimTime::ZERO;
        // Segment 0 is missing; 1, 2 | 4 | 6, 7 arrived, out of order.
        for seq in [2_001, 1_001, 6_001, 4_001, 7_001] {
            assert_eq!(
                rx.on_data(now, &data(seq, 1_000), &cfg, false, &mut stats),
                0
            );
            assert!(rx.need_ack_now, "each one is dup-acked at once");
        }
        let blocks: Vec<_> = rx.sack_blocks().iter().collect();
        assert_eq!(blocks, [(1_001, 3_001), (4_001, 5_001), (6_001, 8_001)]);
        // The hole fills: everything up to the next gap is delivered.
        assert_eq!(
            rx.on_data(now, &data(1, 1_000), &cfg, false, &mut stats),
            3_000
        );
        let blocks: Vec<_> = rx.sack_blocks().iter().collect();
        assert_eq!(blocks, [(4_001, 5_001), (6_001, 8_001)]);
        assert_eq!((stats.ooo_segs_rx, stats.segs_rx), (5, 1));
    }

    #[test]
    fn a_hole_fill_is_acked_at_once_and_in_order_data_alone_waits() {
        let (mut rx, cfg, mut stats) = receiver();
        let now = SimTime::ZERO;
        // One small in-order segment, nothing buffered: under both
        // thresholds, so it arms the delayed ACK.
        assert_eq!(rx.on_data(now, &data(1, 64), &cfg, false, &mut stats), 64);
        assert!(!rx.need_ack_now);
        assert_eq!(rx.delack_deadline, now + cfg.delack);
        rx.clear_ack_state();
        // 65 and 129 are lost and 193 arrives: buffered and dup-ACKed.
        rx.on_data(now, &data(193, 64), &cfg, false, &mut stats);
        assert!(rx.need_ack_now);
        rx.clear_ack_state();
        // The retransmissions fill the hole, each one segment under both
        // thresholds, and each is ACKed at once.
        assert_eq!(rx.on_data(now, &data(65, 64), &cfg, false, &mut stats), 64);
        assert!(rx.need_ack_now, "a partial fill is ACKed at once");
        rx.clear_ack_state();
        assert_eq!(
            rx.on_data(now, &data(129, 64), &cfg, false, &mut stats),
            128
        );
        assert!(rx.need_ack_now, "the fill that closes the hole too");
        assert_eq!(rx.delack_deadline, UNARMED);
    }
}
