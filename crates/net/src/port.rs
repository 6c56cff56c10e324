//! One output port of a NIC or a switch and the link behind it: a FIFO
//! drained at line rate, with a drop-tail bound and RED-style ECN marking,
//! both expressed as time a frame would wait before its first bit leaves.
//!
//! Every link of the testbed is the same 10 GbE (§5.1), so the rate, the
//! drop bound and the wire latency are constants here, the one place both
//! ends of a link read them. The marking threshold is per offer: experiments
//! set it on nodes that are already built.

use fastrak_sim::time::{serialization_delay, SimDuration, SimTime};

use crate::headers::ecn;

/// Line rate of every port, bits/sec: the testbed's 10 GbE.
pub const LINK_RATE_BPS: u64 = 10_000_000_000;
/// A frame that would wait longer than this before its first bit leaves is
/// dropped. Server NIC rings and ToR ports share it, so neither end of a
/// link outqueues the other.
pub const MAX_BACKLOG: SimDuration = SimDuration::from_millis(12);
/// Propagation over one link.
pub const WIRE_LATENCY: SimDuration = SimDuration(300);

/// The queue of one output port.
#[derive(Debug, Clone, Copy, Default)]
pub struct EgressPort {
    /// When the last admitted frame's last bit leaves.
    free_at: SimTime,
    marked: u64,
}

impl EgressPort {
    /// Offer a frame of `wire_bytes` at `at`. A frame that would wait longer
    /// than [`MAX_BACKLOG`] is refused (`None`) and leaves the port untouched;
    /// an admitted ECT frame that would wait longer than `mark_threshold`
    /// has `ecn` set to CE. The drop test runs first, so a marked frame is
    /// never also a drop. Returns when the frame's last bit reaches the far
    /// end of the link.
    #[inline]
    pub fn admit(
        &mut self,
        at: SimTime,
        wire_bytes: u64,
        ecn: &mut u8,
        mark_threshold: Option<SimDuration>,
    ) -> Option<SimTime> {
        let start = at.max(self.free_at);
        let wait = start.since(at);
        if wait > MAX_BACKLOG {
            return None;
        }
        if mark_threshold.is_some_and(|th| wait > th) && ecn::is_ect(*ecn) {
            *ecn = ecn::CE;
            self.marked += 1;
        }
        self.free_at = start + serialization_delay(wire_bytes, LINK_RATE_BPS);
        Some(self.free_at + WIRE_LATENCY)
    }

    /// ECT frames this port CE-marked.
    pub fn marked(&self) -> u64 {
        self.marked
    }

    /// Forget the queued frames (the device power-cycled); what was marked
    /// stays counted.
    pub fn drain(&mut self) {
        self.free_at = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 250 bytes take 1 µs at 10 Gb/s.
    const FRAME: u64 = 1_250;
    const US: SimDuration = SimDuration::from_micros(1);
    /// Frames of one instant's burst that fit: waits of 0..=12 000 µs.
    const FIT: usize = 12_001;

    /// Offer `n` frames at one instant; the admitted ones' ECN fields.
    fn burst(port: &mut EgressPort, n: usize, ecn_in: u8, mark: Option<SimDuration>) -> Vec<u8> {
        let at = SimTime::from_micros(10);
        let mut admitted = Vec::new();
        for _ in 0..n {
            let mut ecn = ecn_in;
            if port.admit(at, FRAME, &mut ecn, mark).is_some() {
                admitted.push(ecn);
            }
        }
        admitted
    }

    #[test]
    fn frames_serialise_back_to_back_and_an_idle_port_starts_at_once() {
        let mut port = EgressPort::default();
        let mut ecn = ecn::NOT_ECT;
        let t = SimTime::from_micros(10);
        let a = port.admit(t, FRAME, &mut ecn, None);
        let b = port.admit(t, FRAME, &mut ecn, None);
        let w = WIRE_LATENCY;
        assert_eq!((a, b), (Some(t + US + w), Some(t + US * 2 + w)));
        // Long after the queue emptied: no wait, whatever came before.
        let late = SimTime::from_micros(100);
        let c = port.admit(late, FRAME * 2, &mut ecn, None);
        assert_eq!(c, Some(late + US * 2 + w));
        assert_eq!(ecn, ecn::NOT_ECT);
    }

    #[test]
    fn a_frame_that_would_wait_past_the_bound_is_refused_and_books_nothing() {
        let mut port = EgressPort::default();
        // Waits of 0..=12 ms are admitted, the next frames would wait longer.
        let admitted = burst(&mut port, FIT + 3, ecn::NOT_ECT, None);
        assert_eq!(admitted.len(), FIT);
        // The refused frames took no link time: one more fits as soon as
        // the head has left.
        let mut ecn = ecn::NOT_ECT;
        let end = port.admit(SimTime::from_micros(11), FRAME, &mut ecn, None);
        let last_bit = SimTime::from_micros(10 + FIT as u64 + 1);
        assert_eq!(end, Some(last_bit + WIRE_LATENCY));
    }

    #[test]
    fn a_marked_frame_is_never_also_a_drop() {
        let mut port = EgressPort::default();
        // Mark above 2 µs short of the drop bound: of a burst of ECT frames
        // all but the last two admitted pass clean, and the rest are refused.
        let admitted = burst(&mut port, FIT + 8, ecn::ECT0, Some(MAX_BACKLOG - US * 2));
        assert_eq!(admitted.len(), FIT);
        assert!(admitted[..FIT - 2].iter().all(|&e| e == ecn::ECT0));
        assert_eq!(admitted[FIT - 2..], [ecn::CE; 2]);
        assert_eq!(port.marked(), 2, "a refused frame was counted as marked");
        // A threshold above the drop bound never marks.
        let mut port = EgressPort::default();
        let admitted = burst(&mut port, FIT + 8, ecn::ECT0, Some(MAX_BACKLOG + US));
        assert!(admitted.iter().all(|&e| e == ecn::ECT0));
        assert_eq!(port.marked(), 0);
    }

    #[test]
    fn only_ect_frames_are_marked() {
        let mut port = EgressPort::default();
        let admitted = burst(&mut port, 4, ecn::NOT_ECT, Some(SimDuration::ZERO));
        assert_eq!(admitted, [ecn::NOT_ECT; 4]);
        assert_eq!(port.marked(), 0);
    }

    #[test]
    fn draining_empties_the_queue_and_keeps_the_count() {
        let mut port = EgressPort::default();
        burst(&mut port, 4, ecn::ECT0, Some(US));
        port.drain();
        assert_eq!(port.marked(), 2);
        let mut ecn = ecn::ECT0;
        let t = SimTime::from_micros(10);
        let end = port.admit(t, FRAME, &mut ecn, Some(US));
        assert_eq!((end, ecn), (Some(t + US + WIRE_LATENCY), ecn::ECT0));
    }
}
