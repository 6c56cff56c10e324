//! Loss recovery: the sender-side record of what is believed lost and what
//! goes out again next.
//!
//! [`Recovery`] owns duplicate-ACK counting, the NewReno recovery window,
//! the SACK scoreboard and the retransmit queue. The connection tells it
//! what arrived ([`Recovery::on_new_ack`], [`Recovery::on_dup_ack`],
//! [`Recovery::on_rto`]) and maps the verdict onto a congestion-control
//! hook; *which* bytes to resend is decided in one place,
//! [`Recovery::queue_next`].
//!
//! Invariants: `in_recovery` implies `snd_una < recover <= snd_nxt`; the
//! scoreboard exists exactly when SACK was configured; a queued range may
//! be stale (already acknowledged) by the time it is popped — the emitter
//! checks, the queue does not.

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
    /// `snd_nxt` when recovery was entered (the NewReno recovery point).
    recover: u64,
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
        } else if self.dup_acks == 3 {
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
    /// keeping SACK state across an RTO; discarding it is always safe) and,
    /// if `resend`, go back to `snd_una`.
    pub fn on_rto(&mut self, s: SendSeq, resend: bool) {
        self.dup_acks = 0;
        self.in_recovery = false;
        self.rtx_q.clear();
        if let Some(sb) = &mut self.scoreboard {
            sb.clear();
        }
        if resend {
            self.queue_next(s, true);
        }
    }

    /// The one place a retransmission is chosen: the next hole the
    /// scoreboard knows, else — when the caller is sure something is lost,
    /// or has nothing better to go on — the NewReno guess, one MSS at
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

    /// Take the oldest queued range.
    pub fn pop(&mut self) -> Option<(u64, u32)> {
        self.rtx_q.pop_front()
    }

    /// Is anything queued?
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
        std::iter::from_fn(|| r.pop()).collect()
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
        let s = seq(1, 1 + 10 * M);
        r.on_sack(1, s.nxt, &blocks(&[(1 + 2 * M, 1 + 3 * M)]));
        dup_acks(&mut r, s, 4);
        assert!(r.pending());
        r.on_rto(s, true);
        assert_eq!(drain(&mut r), [(1, MSS)]);
        // Out of recovery, counting from zero, scoreboard empty.
        assert_eq!(r.on_new_ack(seq(1 + M, s.nxt)), NewAck::Open);
        assert_eq!(r.on_dup_ack(seq(1 + M, s.nxt)), DupAck::Counted);
        // A handshake timeout resends nothing from here.
        r.on_rto(seq(0, 1), false);
        assert!(!r.pending());
    }
}
