//! SACK scoreboard (RFC 6675, simplified): the sender-side record of which
//! byte ranges above the cumulative ACK the receiver has reported holding.
//!
//! During fast recovery the scoreboard replaces NewReno's
//! one-retransmission-per-partial-ACK guessing with hole-directed repair:
//! [`Scoreboard::next_hole`] walks the first unSACKed, not-yet-retransmitted
//! gap in `[snd_una, snd_nxt)`, so a window with several losses repairs in
//! one round trip instead of one RTT per loss. `high_rtx` tracks how far
//! retransmission has advanced within the current recovery episode so a
//! burst of duplicate ACKs never retransmits the same hole twice.

use fastrak_net::packet::{SackBlocks, MSS};
use std::collections::BTreeMap;

/// Sender-side SACK state: received blocks merged into maximal ranges.
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    /// SACKed ranges above the cumulative ACK: start → end (exclusive),
    /// non-overlapping, non-adjacent.
    sacked: BTreeMap<u64, u64>,
    /// Highest sequence retransmitted in the current recovery episode.
    high_rtx: u64,
}

impl Scoreboard {
    /// Fold a cumulative ACK plus its SACK blocks into the scoreboard.
    /// Ranges at or below `cum_ack` are dropped — they are delivered. A
    /// block ending above `snd_nxt` reports data never sent (a straggler
    /// from an earlier incarnation of the flow key) and is ignored, RFC
    /// 2018 §5: kept, it would make every byte below it look lost.
    pub fn on_ack(&mut self, cum_ack: u64, snd_nxt: u64, blocks: &SackBlocks) {
        for (s, e) in blocks.iter() {
            if e > cum_ack && e <= snd_nxt {
                self.insert(s.max(cum_ack), e);
            }
        }
        while let Some((&s, &e)) = self.sacked.first_key_value() {
            if e <= cum_ack {
                self.sacked.remove(&s);
            } else if s < cum_ack {
                self.sacked.remove(&s);
                self.sacked.insert(cum_ack, e);
            } else {
                break;
            }
        }
    }

    fn insert(&mut self, mut s: u64, mut e: u64) {
        // Merge every existing range that overlaps or abuts [s, e).
        while let Some((&rs, &re)) = self.sacked.range(..=e).next_back() {
            if re < s {
                break;
            }
            self.sacked.remove(&rs);
            s = s.min(rs);
            e = e.max(re);
        }
        self.sacked.insert(s, e);
    }

    /// Has the receiver reported holding the byte at `seq`?
    #[cfg(test)]
    fn is_sacked(&self, seq: u64) -> bool {
        self.sacked
            .range(..=seq)
            .next_back()
            .is_some_and(|(_, &e)| seq < e)
    }

    /// Total bytes currently SACKed (above the cumulative ACK).
    #[cfg(test)]
    fn sacked_bytes(&self) -> u64 {
        self.sacked.iter().map(|(s, e)| e - s).sum()
    }

    /// Begin a recovery episode: retransmission restarts from `snd_una`.
    pub fn start_recovery(&mut self, snd_una: u64) {
        self.high_rtx = snd_una;
    }

    /// Forget everything (connection reset / RTO — RFC 6675 allows keeping
    /// SACK state across an RTO, but discarding it is always safe).
    pub fn clear(&mut self) {
        self.sacked.clear();
        self.high_rtx = 0;
    }

    /// The next unSACKed, not-yet-retransmitted hole in
    /// `[max(snd_una, high_rtx), snd_nxt)`, clamped to one MSS and to the
    /// hole's extent. Only bytes *below the highest SACKed sequence* are
    /// known lost (RFC 6675: everything above the last block is merely in
    /// flight), so the walk stops there. Advances `high_rtx` past the
    /// returned range.
    pub fn next_hole(&mut self, snd_una: u64, snd_nxt: u64) -> Option<(u64, u32)> {
        let limit = self
            .sacked
            .last_key_value()
            .map(|(_, &e)| e)
            .unwrap_or(0)
            .min(snd_nxt);
        let mut seq = snd_una.max(self.high_rtx);
        loop {
            if seq >= limit {
                return None;
            }
            if let Some((&s, &e)) = self.sacked.range(..=seq).next_back() {
                if seq >= s && seq < e {
                    seq = e;
                    continue;
                }
            }
            let hole_end = self
                .sacked
                .range(seq..)
                .next()
                .map(|(&s, _)| s)
                .unwrap_or(limit)
                .min(limit);
            let len = (hole_end - seq).min(MSS as u64) as u32;
            self.high_rtx = seq + len as u64;
            return Some((seq, len));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(ranges: &[(u64, u64)]) -> SackBlocks {
        let mut b = SackBlocks::EMPTY;
        for &(s, e) in ranges {
            b.push(s, e);
        }
        b
    }

    #[test]
    fn blocks_merge_into_maximal_ranges() {
        let mut sb = Scoreboard::default();
        sb.on_ack(0, 10_000, &blocks(&[(10, 20), (30, 40)]));
        assert_eq!(sb.sacked_bytes(), 20);
        // Bridge the gap: one merged range.
        sb.on_ack(0, 10_000, &blocks(&[(20, 30)]));
        assert_eq!(sb.sacked_bytes(), 30);
        assert!(sb.is_sacked(10) && sb.is_sacked(25) && sb.is_sacked(39));
        assert!(!sb.is_sacked(9) && !sb.is_sacked(40));
    }

    #[test]
    fn a_block_above_snd_nxt_is_not_this_flights() {
        let mut sb = Scoreboard::default();
        sb.on_ack(
            0,
            5000,
            &blocks(&[(1000, 2000), (4000, 5001), (7000, 8000)]),
        );
        assert_eq!(sb.sacked_bytes(), 1000);
        sb.start_recovery(0);
        // Only what lies below the one real block is known lost.
        assert_eq!(sb.next_hole(0, 5000), Some((0, 1000)));
        assert_eq!(sb.next_hole(0, 5000), None);
    }

    #[test]
    fn cumulative_ack_retires_ranges() {
        let mut sb = Scoreboard::default();
        sb.on_ack(0, 10_000, &blocks(&[(10, 20), (30, 40)]));
        sb.on_ack(15, 10_000, &SackBlocks::EMPTY);
        assert!(!sb.is_sacked(12)); // below cum ack: gone
        assert!(sb.is_sacked(16));
        assert_eq!(sb.sacked_bytes(), 5 + 10); // [15,20) and [30,40)
        sb.on_ack(40, 10_000, &SackBlocks::EMPTY);
        assert_eq!(sb.sacked_bytes(), 0);
    }

    #[test]
    fn next_hole_walks_gaps_without_repeats() {
        let mut sb = Scoreboard::default();
        // Flight [0, 5000); receiver holds [1000,2000) and [3000,4000).
        sb.on_ack(0, 10_000, &blocks(&[(1000, 2000), (3000, 4000)]));
        sb.start_recovery(0);
        // Known-lost holes: [0,1000) and [2000,3000). [4000,5000) is above
        // the highest SACKed byte — merely in flight, not repairable.
        assert_eq!(sb.next_hole(0, 5000), Some((0, 1000)));
        assert_eq!(sb.next_hole(0, 5000), Some((2000, 1000)));
        assert_eq!(sb.next_hole(0, 5000), None);
    }

    #[test]
    fn next_hole_clamps_to_mss() {
        let mut sb = Scoreboard::default();
        sb.on_ack(0, 10_000, &blocks(&[(5000, 6000)]));
        sb.start_recovery(0);
        assert_eq!(sb.next_hole(0, 6000), Some((0, 1448)));
        assert_eq!(sb.next_hole(0, 6000), Some((1448, 1448)));
    }

    #[test]
    fn cumulative_ack_advances_past_high_rtx() {
        let mut sb = Scoreboard::default();
        sb.on_ack(0, 10_000, &blocks(&[(2000, 3000)]));
        sb.start_recovery(0);
        assert_eq!(sb.next_hole(0, 4000), Some((0, 1448)));
        assert_eq!(sb.next_hole(0, 4000), Some((1448, 552)));
        // Partial ACK past the repaired hole: nothing above the highest
        // SACKed byte is known lost, so recovery pauses.
        sb.on_ack(2000, 10_000, &SackBlocks::EMPTY);
        assert_eq!(sb.next_hole(2000, 4000), None);
        // A fresh SACK block above reveals the next hole.
        sb.on_ack(2000, 10_000, &blocks(&[(3500, 4000)]));
        assert_eq!(sb.next_hole(2000, 4000), Some((3000, 500)));
    }

    #[test]
    fn clear_resets_everything() {
        let mut sb = Scoreboard::default();
        sb.on_ack(0, 10_000, &blocks(&[(10, 20)]));
        sb.start_recovery(0);
        sb.next_hole(0, 100);
        sb.clear();
        assert_eq!(sb.sacked_bytes(), 0);
        // No SACK information: nothing is known lost.
        assert_eq!(sb.next_hole(0, 100), None);
    }
}
