//! One output port of a NIC or a switch: a FIFO drained at line rate, with a
//! drop-tail bound and RED-style ECN marking, both expressed as time a frame
//! would wait before its first bit leaves.
//!
//! The port keeps no copy of its bounds: experiments set the marking
//! threshold on nodes that are already built, so each offer names the rate,
//! the drop bound and the threshold in force.

use fastrak_sim::time::{serialization_delay, SimDuration, SimTime};

use crate::headers::ecn;

/// The queue of one output port.
#[derive(Debug, Clone, Copy, Default)]
pub struct EgressPort {
    /// When the last admitted frame's last bit leaves.
    free_at: SimTime,
    marked: u64,
}

impl EgressPort {
    /// Offer a frame of `wire_bytes` at `at`. A frame that would wait longer
    /// than `max_backlog` is refused (`None`) and leaves the port untouched;
    /// an admitted ECT frame that would wait longer than `mark_threshold`
    /// has `ecn` set to CE. The drop test runs first, so a marked frame is
    /// never also a drop. Returns when the frame's last bit leaves.
    #[inline]
    pub fn admit(
        &mut self,
        at: SimTime,
        wire_bytes: u64,
        ecn: &mut u8,
        rate_bps: u64,
        max_backlog: SimDuration,
        mark_threshold: Option<SimDuration>,
    ) -> Option<SimTime> {
        let start = at.max(self.free_at);
        let wait = start.since(at);
        if wait > max_backlog {
            return None;
        }
        if mark_threshold.is_some_and(|th| wait > th) && ecn::is_ect(*ecn) {
            *ecn = ecn::CE;
            self.marked += 1;
        }
        self.free_at = start + serialization_delay(wire_bytes, rate_bps);
        Some(self.free_at)
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

    const GBPS_10: u64 = 10_000_000_000;
    /// 1 250 bytes take 1 µs at 10 Gb/s.
    const FRAME: u64 = 1_250;
    const US: SimDuration = SimDuration::from_micros(1);

    /// Offer `n` frames at one instant; the admitted ones' ECN fields.
    fn burst(
        port: &mut EgressPort,
        n: usize,
        ecn_in: u8,
        max_backlog: SimDuration,
        mark: Option<SimDuration>,
    ) -> Vec<u8> {
        let at = SimTime::from_micros(10);
        let mut admitted = Vec::new();
        for _ in 0..n {
            let mut ecn = ecn_in;
            if (port.admit(at, FRAME, &mut ecn, GBPS_10, max_backlog, mark)).is_some() {
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
        let a = port.admit(t, FRAME, &mut ecn, GBPS_10, US * 5, None);
        let b = port.admit(t, FRAME, &mut ecn, GBPS_10, US * 5, None);
        assert_eq!((a, b), (Some(t + US), Some(t + US * 2)));
        // Long after the queue emptied: no wait, whatever came before.
        let late = SimTime::from_micros(100);
        let c = port.admit(late, FRAME * 2, &mut ecn, GBPS_10, US * 5, None);
        assert_eq!(c, Some(late + US * 2));
        assert_eq!(ecn, ecn::NOT_ECT);
    }

    #[test]
    fn a_frame_that_would_wait_past_the_bound_is_refused_and_books_nothing() {
        let mut port = EgressPort::default();
        // Waits of 0..=3 µs are admitted, the fifth frame would wait 4.
        let admitted = burst(&mut port, 8, ecn::NOT_ECT, US * 3, None);
        assert_eq!(admitted.len(), 4);
        // The refused frames took no link time: one more fits as soon as
        // the head has left.
        let mut ecn = ecn::NOT_ECT;
        let t = SimTime::from_micros(11);
        let end = port.admit(t, FRAME, &mut ecn, GBPS_10, US * 3, None);
        assert_eq!(end, Some(SimTime::from_micros(15)));
    }

    #[test]
    fn a_marked_frame_is_never_also_a_drop() {
        let mut port = EgressPort::default();
        // Mark above 1 µs of wait, drop above 3: of eight ECT frames the
        // first two pass clean, the next two are marked, the rest refused.
        let admitted = burst(&mut port, 8, ecn::ECT0, US * 3, Some(US));
        assert_eq!(admitted, [ecn::ECT0, ecn::ECT0, ecn::CE, ecn::CE]);
        assert_eq!(port.marked(), 2, "a refused frame was counted as marked");
        // A threshold above the drop bound never marks.
        let mut port = EgressPort::default();
        let admitted = burst(&mut port, 8, ecn::ECT0, US * 3, Some(US * 4));
        assert_eq!(admitted, [ecn::ECT0; 4]);
        assert_eq!(port.marked(), 0);
    }

    #[test]
    fn only_ect_frames_are_marked() {
        let mut port = EgressPort::default();
        let admitted = burst(&mut port, 4, ecn::NOT_ECT, US * 3, Some(SimDuration::ZERO));
        assert_eq!(admitted, [ecn::NOT_ECT; 4]);
        assert_eq!(port.marked(), 0);
    }

    #[test]
    fn draining_empties_the_queue_and_keeps_the_count() {
        let mut port = EgressPort::default();
        burst(&mut port, 4, ecn::ECT0, US * 3, Some(US));
        port.drain();
        assert_eq!(port.marked(), 2);
        let mut ecn = ecn::ECT0;
        let t = SimTime::from_micros(10);
        let end = port.admit(t, FRAME, &mut ecn, GBPS_10, US * 3, Some(US));
        assert_eq!((end, ecn), (Some(t + US), ecn::ECT0));
    }
}
