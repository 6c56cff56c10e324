//! RTT estimation (RFC 6298) with Karn's algorithm, extracted from the
//! connection state machine into a unit-testable component.
//!
//! One segment at a time is *probed*: when new data is transmitted and no
//! probe is outstanding, the segment's end sequence and send time are
//! recorded. When a cumulative ACK covers the probed sequence, the elapsed
//! time is one RTT sample — unless the probe was invalidated by any
//! retransmission in between (Karn's algorithm: a retransmitted segment's
//! ACK is ambiguous, so the sample must be discarded). Samples feed the
//! classic srtt/rttvar EWMAs; the RTO is `srtt + max(4·rttvar, 1µs)`
//! clamped below by the configured minimum (the connection's config, passed
//! with each ACK) and, across backoffs, above by [`MAX_RTO`].

use fastrak_sim::time::{SimDuration, SimTime};

/// Upper clamp for the exponentially backed-off RTO (RFC 6298 §5.5 allows
/// an upper bound of at least 60 seconds; Linux uses 120 s — the paper's
/// experiments never get near either).
pub const MAX_RTO: SimDuration = SimDuration::from_secs(60);

/// `srtt` before the first sample (a sample is never negative).
const NO_SAMPLE: f64 = -1.0;
/// `probe_end` while no segment is timed (an ACK never reaches it).
const NO_PROBE: u64 = u64::MAX;

/// RFC 6298 smoothed-RTT estimator with Karn probe tracking and
/// exponential RTO backoff. Absent values are sentinels, not `Option`s:
/// one sits in every connection, and the tags would cost it 16 bytes.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    /// Smoothed RTT in seconds; [`NO_SAMPLE`] until the first sample.
    srtt: f64,
    rttvar: f64,
    rto: SimDuration,
    /// Karn: end sequence of the segment currently timed, [`NO_PROBE`]
    /// when none is, ...
    probe_end: u64,
    /// ... and when it was sent.
    probe_at: SimTime,
    /// Retransmission invalidates outstanding probes.
    probe_invalid: bool,
}

impl Default for RttEstimator {
    /// A fresh estimator. Before the first sample the RTO is 200 ms (the
    /// Linux initial value the experiments were calibrated against),
    /// whatever the minimum the samples are clamped to.
    fn default() -> RttEstimator {
        RttEstimator {
            srtt: NO_SAMPLE,
            rttvar: 0.0,
            rto: SimDuration::from_millis(200),
            probe_end: NO_PROBE,
            probe_at: SimTime::ZERO,
            probe_invalid: false,
        }
    }
}

impl RttEstimator {
    /// Current smoothed RTT in seconds, if any sample has landed.
    pub fn srtt(&self) -> Option<f64> {
        (self.srtt != NO_SAMPLE).then_some(self.srtt)
    }

    /// Current RTT variance estimate in seconds.
    pub fn rttvar(&self) -> f64 {
        self.rttvar
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Time a newly transmitted segment ending at `seq_end` (exclusive).
    /// No-op while another probe is outstanding — one sample per flight.
    pub fn arm_probe(&mut self, seq_end: u64, now: SimTime) {
        if self.probe_end == NO_PROBE {
            self.probe_end = seq_end;
            self.probe_at = now;
            self.probe_invalid = false;
        }
    }

    /// Karn's algorithm: any retransmission makes the outstanding probe's
    /// eventual ACK ambiguous, so its sample must not be taken.
    pub fn invalidate_probe(&mut self) {
        self.probe_invalid = true;
    }

    /// A cumulative ACK up to `ack` arrived at `now`; take the RTT sample
    /// if it covers a valid probe. The RTO it sets is at least `min_rto`.
    pub fn on_ack(&mut self, now: SimTime, ack: u64, min_rto: SimDuration) {
        if self.probe_end == NO_PROBE || ack < self.probe_end {
            return;
        }
        if !self.probe_invalid {
            let rtt = now.since(self.probe_at).as_secs_f64();
            if self.srtt == NO_SAMPLE {
                self.srtt = rtt;
                self.rttvar = rtt / 2.0;
            } else {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - rtt).abs();
                self.srtt = 0.875 * self.srtt + 0.125 * rtt;
            }
            let rto = SimDuration::from_secs_f64(self.srtt + (4.0 * self.rttvar).max(0.000_001));
            self.rto = rto.max(min_rto);
        }
        self.probe_end = NO_PROBE;
        self.probe_invalid = false;
    }

    /// Exponential backoff on RTO expiry, clamped at [`MAX_RTO`].
    pub fn backoff(&mut self) {
        self.rto = (self.rto * 2).min(MAX_RTO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN_RTO: SimDuration = SimDuration::from_millis(200);

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Feed `n` samples of constant round-trip `rtt_us`, one probe per
    /// flight, returning the estimator.
    fn fed_constant(n: u64, rtt_us: u64) -> RttEstimator {
        let mut e = RttEstimator::default();
        for i in 0..n {
            let sent = t(i * 10_000);
            e.arm_probe(i + 1, sent);
            e.on_ack(sent + SimDuration::from_micros(rtt_us), i + 1, MIN_RTO);
        }
        e
    }

    #[test]
    fn first_sample_seeds_srtt_and_rttvar() {
        let e = fed_constant(1, 500);
        assert_eq!(e.srtt(), Some(0.0005));
        assert_eq!(e.rttvar(), 0.00025);
    }

    /// Property: under constant RTT the smoothed estimate converges to the
    /// sample and the variance decays toward zero.
    #[test]
    fn srtt_converges_and_rttvar_decays_under_constant_rtt() {
        let e = fed_constant(100, 500);
        let srtt = e.srtt().unwrap();
        assert!((srtt - 0.0005).abs() < 1e-6, "srtt {srtt}");
        assert!(e.rttvar() < 1e-6, "rttvar {}", e.rttvar());
        // With negligible variance the RTO sits on the min_rto floor.
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    /// Property: for any sample sequence, srtt stays within the running
    /// [min, max] envelope of the samples (it is a convex combination).
    #[test]
    fn srtt_bounded_by_sample_envelope() {
        let mut e = RttEstimator::default();
        let mut x = 0x9e3779b97f4a7c15u64; // deterministic LCG-ish stream
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for i in 0..200u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let rtt_us = 100 + (x >> 33) % 9_900; // 100 µs .. 10 ms
            lo = lo.min(rtt_us);
            hi = hi.max(rtt_us);
            let sent = t(i * 20_000);
            e.arm_probe(i + 1, sent);
            e.on_ack(
                sent + SimDuration::from_micros(rtt_us),
                i + 1,
                SimDuration::from_micros(1),
            );
            let srtt = e.srtt().unwrap();
            assert!(
                srtt >= lo as f64 / 1e6 - 1e-12 && srtt <= hi as f64 / 1e6 + 1e-12,
                "srtt {srtt} outside [{lo}, {hi}] µs after {i} samples"
            );
        }
    }

    /// Karn: a probe invalidated by a retransmission must not update the
    /// estimate, and the probe slot must free up for the next flight.
    #[test]
    fn invalidated_probe_takes_no_sample() {
        let mut e = RttEstimator::default();
        e.arm_probe(100, t(0));
        e.invalidate_probe();
        e.on_ack(t(700), 100, MIN_RTO); // would be a 700 µs sample
        assert_eq!(e.srtt(), None);
        // The slot is free: the next, clean probe samples normally.
        e.arm_probe(200, t(1_000));
        e.on_ack(t(1_400), 200, MIN_RTO);
        assert_eq!(e.srtt(), Some(0.0004));
    }

    #[test]
    fn one_probe_per_flight() {
        let mut e = RttEstimator::default();
        e.arm_probe(100, t(0));
        e.arm_probe(200, t(50)); // ignored: probe already armed
        e.on_ack(t(300), 150, MIN_RTO); // covers the *first* probe's end
        assert_eq!(e.srtt(), Some(0.0003));
    }

    #[test]
    fn partial_ack_keeps_probe_armed() {
        let mut e = RttEstimator::default();
        e.arm_probe(100, t(0));
        e.on_ack(t(200), 50, MIN_RTO); // does not cover seq 100
        assert_eq!(e.srtt(), None);
        // The probe armed at t=0 is still the one the covering ACK samples.
        e.arm_probe(300, t(250));
        e.on_ack(t(400), 100, MIN_RTO);
        assert_eq!(e.srtt(), Some(0.0004));
    }

    /// Property: backoff doubles monotonically and clamps at MAX_RTO, and
    /// the clamp is absorbing.
    #[test]
    fn backoff_doubles_and_clamps() {
        let mut e = RttEstimator::default();
        let mut prev = e.rto();
        for _ in 0..16 {
            e.backoff();
            let cur = e.rto();
            assert!(cur >= prev, "backoff must be monotone");
            assert!(cur <= MAX_RTO, "backoff must clamp at MAX_RTO");
            if prev < MAX_RTO {
                assert_eq!(cur, (prev * 2).min(MAX_RTO));
            }
            prev = cur;
        }
        assert_eq!(e.rto(), MAX_RTO);
    }

    /// A high-variance sample pushes the RTO off the floor; 4·rttvar
    /// dominates.
    #[test]
    fn rto_tracks_variance() {
        let mut e = RttEstimator::default();
        e.arm_probe(1, t(0));
        e.on_ack(t(100_000), 1, SimDuration::from_micros(1)); // 100 ms sample
                                                              // rto = srtt + 4 * rttvar = 0.1 + 4 * 0.05 = 0.3 s
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }
}
