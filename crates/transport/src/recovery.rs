//! Loss recovery: the sender-side record of what is believed lost and what
//! goes out again next.
//!
//! [`Recovery`] owns duplicate-ACK counting, the NewReno recovery window,
//! the SACK scoreboard, the retransmit queue and the go-back walk after a
//! timeout. The connection tells it what arrived ([`Recovery::on_new_ack`],
//! [`Recovery::on_dup_ack`], [`Recovery::on_rto`]) and maps the verdict
//! onto a congestion-control hook; *which* bytes to resend is decided in
//! two places: [`Recovery::queue_next`] queues what duplicate and partial
//! ACKs say is lost, and [`Recovery::pop`] hands out the queue, else the
//! next step of the walk.
//!
//! After an RTO nothing is known about the flight, so all of it goes again
//! (go-back-N, RFC 5681 §3.1): the walk resends `[snd_una, recover)` one
//! MSS at a time within the congestion window, skipping whatever cumulative
//! ACKs cover meanwhile, so a lost flight costs one timeout, not one per
//! segment. `snd_nxt` is not pulled back.
//!
//! Invariants: `in_recovery` implies `snd_una < recover <= snd_nxt`; outside
//! it, `snd_una < recover` only while an RTO's walk is unfinished, and
//! then a third duplicate ACK is a duplicate of resent data and does not
//! start fast recovery (RFC 6582 §3.2); the scoreboard exists exactly when
//! SACK was configured; a queued range may be stale (already acknowledged)
//! by the time it is popped — the emitter checks, the queue does not.

use std::collections::VecDeque;

use fastrak_net::packet::{SackBlocks, MSS};

use crate::sack::Scoreboard;

/// The send sequence space as loss recovery needs it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SendSeq {
    /// Oldest unacknowledged byte.
    pub una: u64,
    /// Next sequence to send (a sent FIN included).
    pub nxt: u64,
    /// End of sent *data* (a sent FIN sits at this sequence).
    pub data_nxt: u64,
}

/// What a cumulative ACK that advanced `snd_una` meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NewAck {
    /// Not in recovery: ordinary window growth applies.
    Open,
    /// Inside recovery, short of the recovery point: the next loss was
    /// queued for retransmission.
    Partial,
    /// Covers the recovery point: recovery is over.
    Exit,
}

/// What a duplicate ACK meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DupAck {
    /// First or second in a row: counted, nothing else.
    Counted,
    /// The third: fast retransmit queued, recovery entered.
    Enter,
    /// A further one inside recovery: the window inflates.
    Inflate,
}

#[derive(Debug, Clone)]
pub(crate) struct Recovery {
    dup_acks: u32,
    in_recovery: bool,
    /// `snd_nxt` when fast recovery was entered (the NewReno recovery
    /// point) or when the RTO last fired (the end of the go-back walk).
    recover: u64,
    /// The go-back walk's next byte; below `snd_una` it means `snd_una`.
    go_back: u64,
    /// Ranges queued for retransmission: (seq, len).
    rtx_q: VecDeque<(u64, u32)>,
    /// Present exactly when SACK is configured.
    scoreboard: Option<Scoreboard>,
}

impl Recovery {
    pub fn new(sack: bool) -> Recovery {
        Recovery {
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            go_back: 0,
            rtx_q: VecDeque::new(),
            scoreboard: sack.then(Scoreboard::default),
        }
    }

    /// Fold an acceptable ACK's SACK blocks into the scoreboard.
    pub fn on_sack(&mut self, cum_ack: u64, snd_nxt: u64, blocks: &SackBlocks) {
        if let Some(sb) = &mut self.scoreboard {
            sb.on_ack(cum_ack, snd_nxt, blocks);
        }
    }

    /// The cumulative ACK advanced to `s.una`.
    pub fn on_new_ack(&mut self, s: SendSeq) -> NewAck {
        self.dup_acks = 0;
        if !self.in_recovery {
            NewAck::Open
        } else if s.una >= self.recover {
            self.in_recovery = false;
            NewAck::Exit
        } else {
            // Without a scoreboard the byte at the new `snd_una` is the
            // best guess; with one, only what it knows to be lost goes.
            self.queue_next(s, self.scoreboard.is_none());
            NewAck::Partial
        }
    }

    /// An ACK that acknowledged nothing new while data is in flight.
    pub fn on_dup_ack(&mut self, s: SendSeq) -> DupAck {
        self.dup_acks += 1;
        if self.in_recovery {
            // It may have revealed a further hole; it is no evidence for
            // another guess.
            self.queue_next(s, false);
            DupAck::Inflate
        } else if self.dup_acks == 3 && s.una >= self.recover {
            self.in_recovery = true;
            self.recover = s.nxt;
            if let Some(sb) = &mut self.scoreboard {
                sb.start_recovery(s.una);
            }
            self.queue_next(s, true);
            DupAck::Enter
        } else {
            DupAck::Counted
        }
    }

    /// The retransmission timer fired: forget the episode (RFC 6675 allows
    /// keeping SACK state across an RTO; discarding it is always safe) and
    /// go back to `snd_una` — through the whole flight, or in a SYN state
    /// through the SYN's one sequence number, which completing the
    /// handshake acknowledges.
    pub fn on_rto(&mut self, s: SendSeq) {
        self.dup_acks = 0;
        self.in_recovery = false;
        self.rtx_q.clear();
        if let Some(sb) = &mut self.scoreboard {
            sb.clear();
        }
        self.recover = s.nxt;
        self.go_back = s.una;
    }

    /// Queue what a duplicate or partial ACK says is lost: the next hole
    /// the scoreboard knows, else — when the caller is sure something is
    /// lost, or has nothing better to go on — the NewReno guess, one MSS at
    /// `snd_una`.
    fn queue_next(&mut self, s: SendSeq, or_guess: bool) {
        let hole = self
            .scoreboard
            .as_mut()
            .and_then(|sb| sb.next_hole(s.una, s.data_nxt));
        let guess = (s.una, (s.nxt - s.una).min(MSS as u64) as u32);
        if let Some(range) = hole.or(or_guess.then_some(guess)) {
            self.rtx_q.push_back(range);
        }
    }

    /// The next retransmission: the oldest queued range, else the go-back
    /// walk's next MSS while it is short of `recover` and less than `wnd`
    /// ahead of `snd_una`. A walked range stops at the end of sent data, so
    /// a sent FIN goes out alone.
    pub fn pop(&mut self, s: SendSeq, wnd: u64) -> Option<(u64, u32)> {
        if let Some(range) = self.rtx_q.pop_front() {
            return Some(range);
        }
        let at = self.go_back.max(s.una);
        if self.in_recovery || at >= self.recover || at - s.una >= wnd {
            return None;
        }
        let end = if at < s.data_nxt {
            s.data_nxt.min(self.recover)
        } else {
            self.recover
        };
        let len = (end - at).min(MSS as u64);
        self.go_back = at + len;
        Some((at, len as u32))
    }

    /// Is anything queued? (The walk is not: whether it has a next step is
    /// a pure function of the send sequence and the window.)
    pub fn pending(&self) -> bool {
        !self.rtx_q.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: u64 = MSS as u64;

    fn seq(una: u64, nxt: u64) -> SendSeq {
        SendSeq {
            una,
            nxt,
            data_nxt: nxt,
        }
    }

    fn blocks(ranges: &[(u64, u64)]) -> SackBlocks {
        let mut b = SackBlocks::EMPTY;
        ranges.iter().for_each(|&(s, e)| b.push(s, e));
        b
    }

    fn drain(r: &mut Recovery) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| r.rtx_q.pop_front()).collect()
    }

    /// Everything [`Recovery::pop`] hands out at `s` with window `wnd`.
    fn drain_walk(r: &mut Recovery, s: SendSeq, wnd: u64) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| r.pop(s, wnd)).collect()
    }

    fn dup_acks(r: &mut Recovery, s: SendSeq, n: usize) {
        (0..n).for_each(|_| {
            r.on_dup_ack(s);
        });
    }

    #[test]
    fn third_dup_ack_enters_and_resends_snd_una() {
        let mut r = Recovery::new(false);
        let s = seq(1, 1 + 10 * M);
        assert_eq!(r.on_dup_ack(s), DupAck::Counted);
        assert_eq!(r.on_dup_ack(s), DupAck::Counted);
        assert!(!r.pending());
        assert_eq!(r.on_dup_ack(s), DupAck::Enter);
        assert_eq!(drain(&mut r), [(1, MSS)]);
        // Further ones inflate; without a scoreboard they resend nothing.
        assert_eq!(r.on_dup_ack(s), DupAck::Inflate);
        assert!(!r.pending());
    }

    #[test]
    fn a_new_ack_restarts_the_dup_ack_count() {
        let mut r = Recovery::new(false);
        let s = seq(1, 1 + 10 * M);
        r.on_dup_ack(s);
        r.on_dup_ack(s);
        assert_eq!(r.on_new_ack(seq(1 + M, s.nxt)), NewAck::Open);
        // Two more are again the first and second, not the third and fourth.
        let s = seq(1 + M, s.nxt);
        assert_eq!(r.on_dup_ack(s), DupAck::Counted);
        assert_eq!(r.on_dup_ack(s), DupAck::Counted);
        assert!(!r.pending());
        assert_eq!(r.on_dup_ack(s), DupAck::Enter);
    }

    #[test]
    fn newreno_partial_ack_guesses_the_new_snd_una_and_full_ack_exits() {
        let mut r = Recovery::new(false);
        let nxt = 1 + 10 * M;
        dup_acks(&mut r, seq(1, nxt), 3);
        drain(&mut r);
        assert_eq!(r.on_new_ack(seq(1 + 2 * M, nxt)), NewAck::Partial);
        assert_eq!(drain(&mut r), [(1 + 2 * M, MSS)]);
        // The tail of the flight is shorter than one MSS.
        assert_eq!(r.on_new_ack(seq(nxt - 100, nxt)), NewAck::Partial);
        assert_eq!(drain(&mut r), [(nxt - 100, 100)]);
        assert_eq!(r.on_new_ack(seq(nxt, nxt + M)), NewAck::Exit);
        assert_eq!(r.on_new_ack(seq(nxt + M, nxt + M)), NewAck::Open);
        assert!(!r.pending());
    }

    #[test]
    fn a_known_hole_beats_the_guess_and_no_hole_means_no_guess_on_a_partial_ack() {
        let mut r = Recovery::new(true);
        // Eight 1000-byte segments; 0 and 4 are missing, 1-3 and 5-6 arrived.
        let s = seq(1, 8_001);
        r.on_sack(1, s.nxt, &blocks(&[(1_001, 4_001), (5_001, 7_001)]));
        dup_acks(&mut r, s, 3);
        // The hole's extent, not the guess's full MSS.
        assert_eq!(drain(&mut r), [(1, 1_000)]);
        // A fourth dup ACK walks on to the second hole — not back to
        // `snd_una`, which is what the guess would resend.
        assert_eq!(r.on_dup_ack(s), DupAck::Inflate);
        assert_eq!(drain(&mut r), [(4_001, 1_000)]);
        // The first repair lands: a partial ACK up to the second hole, which
        // is already on its way. Nothing else is known lost, so nothing goes.
        let s = seq(4_001, 8_001);
        r.on_sack(s.una, s.nxt, &SackBlocks::EMPTY);
        assert_eq!(r.on_new_ack(s), NewAck::Partial);
        assert!(!r.pending());
    }

    #[test]
    fn entering_recovery_with_nothing_sacked_falls_back_to_the_guess() {
        let mut r = Recovery::new(true);
        let s = seq(1, 1 + 10 * M);
        dup_acks(&mut r, s, 3);
        assert_eq!(drain(&mut r), [(1, MSS)]);
    }

    #[test]
    fn rto_forgets_the_episode_and_goes_back_to_snd_una() {
        let mut r = Recovery::new(true);
        // Ten segments out; the third was SACKed and the fast retransmit of
        // the first is queued when the timer fires.
        let s = seq(1, 1 + 10 * M);
        r.on_sack(1, s.nxt, &blocks(&[(1 + 2 * M, 1 + 3 * M)]));
        dup_acks(&mut r, s, 4);
        assert!(r.pending());
        r.on_rto(s);
        assert!(!r.pending());
        // The walk starts at `snd_una` and stays inside the window: one MSS
        // of a one-MSS window, then two once its ACK opened a second.
        assert_eq!(r.pop(s, M), Some((1, MSS)));
        assert_eq!(r.pop(s, M), None);
        let s = seq(1 + M, s.nxt);
        assert_eq!(r.on_new_ack(s), NewAck::Open);
        assert_eq!(
            drain_walk(&mut r, s, 2 * M),
            [(1 + M, MSS), (1 + 2 * M, MSS)]
        );
        // Segments 3-5 had arrived: the cumulative ACK jumps past them and
        // the walk resumes at the new `snd_una`, ending at the recovery
        // point.
        let s = seq(1 + 6 * M, s.nxt);
        assert_eq!(r.on_new_ack(s), NewAck::Open);
        assert_eq!(
            drain_walk(&mut r, s, 8 * M),
            (6..10).map(|i| (1 + i * M, MSS)).collect::<Vec<_>>()
        );
        // RFC 6582: three duplicate ACKs while the walk is unacknowledged
        // are duplicates of resent data, not a loss, and start nothing;
        // neither does a fourth.
        dup_acks(&mut r, s, 4);
        assert!(!r.pending());
        assert_eq!(r.pop(s, 8 * M), None);
        // Past the recovery point, loss detection is back to normal.
        let s = seq(s.nxt, s.nxt + 4 * M);
        assert_eq!(r.on_new_ack(s), NewAck::Open);
        dup_acks(&mut r, s, 2);
        assert_eq!(r.on_dup_ack(s), DupAck::Enter);
        assert_eq!(drain(&mut r), [(s.una, MSS)]);
    }

    #[test]
    fn the_walk_sends_a_fin_alone_and_a_handshake_timeout_only_the_syn() {
        let mut r = Recovery::new(false);
        // 100 bytes of data, then a FIN at 101.
        let s = SendSeq {
            una: 1,
            nxt: 102,
            data_nxt: 101,
        };
        r.on_rto(s);
        assert_eq!(drain_walk(&mut r, s, 10 * M), [(1, 100), (101, 1)]);
        // In a SYN state the walk covers the SYN, which the completed
        // handshake acknowledges: nothing is left to walk.
        let mut r = Recovery::new(false);
        r.on_rto(seq(0, 1));
        assert_eq!(r.pop(seq(1, 1), 10 * M), None);
    }
}
