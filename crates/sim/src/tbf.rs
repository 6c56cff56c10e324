//! Token-bucket rate limiter, modelling `tc` htb class behaviour.
//!
//! The paper configures interface rate limits with `tc` on OVS VIFs
//! (§2.2 "OVS+Rate limiting") and in NIC/ToR hardware for the SR-IOV path
//! (§4.1.4). Both are byte-rate token buckets; the software one additionally
//! charges CPU for enqueue/dequeue, which the host model accounts separately.
//!
//! The DES-friendly API is *conformance time*: given a packet of `bytes` at
//! `now`, [`TokenBucket::earliest_departure`] returns when the packet may be
//! released, and [`TokenBucket::commit`] consumes the tokens. Packets are
//! released in FIFO order (the internal `fifo_free` clamp enforces ordering
//! even when bursts empty the bucket).

use crate::time::{SimDuration, SimTime};

/// A byte-rate token bucket with a configurable burst allowance.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bps: u64,
    burst_bytes: u64,
    tokens: f64,
    last_refill: SimTime,
    fifo_free: SimTime,
}

impl TokenBucket {
    /// New bucket at `rate_bps` bits/sec with `burst_bytes` of depth.
    /// The bucket starts full.
    pub fn new(rate_bps: u64, burst_bytes: u64) -> Self {
        assert!(rate_bps > 0, "token bucket needs a positive rate");
        assert!(burst_bytes > 0, "token bucket needs a positive burst");
        TokenBucket {
            rate_bps,
            burst_bytes,
            tokens: burst_bytes as f64,
            last_refill: SimTime::ZERO,
            fifo_free: SimTime::ZERO,
        }
    }

    /// The bucket of a configured interface limit of `rate_bps` (any value:
    /// the rate is held to at least 1 bit/s): 10 ms of the rate as burst, and
    /// no less than 64 kB, so one TSO super-segment always conforms.
    pub fn for_rate(rate_bps: u64) -> Self {
        TokenBucket::new(rate_bps.max(1), (rate_bps / 8 / 100).max(64_000))
    }

    /// Configured rate in bits/sec.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last_refill {
            let dt = now.since(self.last_refill).as_secs_f64();
            self.tokens =
                (self.tokens + dt * self.rate_bps as f64 / 8.0).min(self.burst_bytes as f64);
            self.last_refill = now;
        }
    }

    /// When could a packet of `bytes` depart if offered at `now`?
    /// Does not consume tokens; call [`TokenBucket::commit`] to take them.
    pub fn earliest_departure(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.refill(now);
        let need = bytes as f64;
        let at = if self.tokens >= need {
            now
        } else {
            let deficit = need - self.tokens;
            let wait = deficit * 8.0 / self.rate_bps as f64;
            now + SimDuration::from_secs_f64(wait)
        };
        at.max(self.fifo_free)
    }

    /// Consume tokens for a packet of `bytes` departing at `at` (as returned
    /// by [`TokenBucket::earliest_departure`]). Maintains FIFO ordering of
    /// subsequent departures.
    pub fn commit(&mut self, at: SimTime, bytes: u64) {
        self.refill(at);
        self.tokens -= bytes as f64;
        // Even with a deep bucket, packets leave in order.
        self.fifo_free = self.fifo_free.max(at);
    }

    /// Convenience: reserve a departure slot for `bytes` at/after `now`,
    /// consuming tokens, and return the departure time.
    pub fn acquire(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let at = self.earliest_departure(now, bytes);
        self.commit(at, bytes);
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 Gbps bucket with a 12500-byte burst (100 us at line rate).
    fn bucket() -> TokenBucket {
        TokenBucket::new(1_000_000_000, 12_500)
    }

    #[test]
    fn a_configured_limit_gets_ten_ms_of_burst_but_no_less_than_64_kb() {
        let sized = |bps| {
            let b = TokenBucket::for_rate(bps);
            (b.rate_bps, b.burst_bytes)
        };
        assert_eq!(sized(10_000_000_000), (10_000_000_000, 12_500_000));
        assert_eq!(sized(1_000_000), (1_000_000, 64_000));
        // A zero limit is a bucket, not a panic.
        assert_eq!(sized(0), (1, 64_000));
    }

    #[test]
    fn burst_passes_at_line_rate() {
        let mut b = bucket();
        let now = SimTime::from_millis(1);
        // 8 x 1500B = 12000 bytes < burst: all depart immediately.
        for _ in 0..8 {
            let at = b.acquire(now, 1500);
            assert_eq!(at, now);
        }
    }

    #[test]
    fn sustained_rate_is_enforced() {
        let mut b = bucket();
        let mut now = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        // Offer 10 MB instantly; the tail must drain at ~1 Gbps.
        let pkts = 10_000_000 / 1500;
        for _ in 0..pkts {
            last = b.acquire(now, 1500);
            now = now.max(last);
        }
        let expect = 10_000_000.0 * 8.0 / 1e9; // seconds
        let got = last.as_secs_f64();
        assert!(
            (got - expect).abs() / expect < 0.01,
            "drain time {got}, expected ~{expect}"
        );
    }

    #[test]
    fn tokens_refill_while_idle() {
        let mut b = bucket();
        // Drain the bucket.
        let mut now = SimTime::ZERO;
        for _ in 0..9 {
            now = b.acquire(now, 1500);
        }
        // Wait 1ms: refills 125000 bytes, capped at burst 12500.
        let later = now + SimDuration::from_millis(1);
        let at = b.acquire(later, 1500);
        assert_eq!(at, later, "refilled bucket should pass immediately");
    }

    #[test]
    fn fifo_ordering_preserved() {
        let mut b = bucket();
        let now = SimTime::ZERO;
        let a1 = b.acquire(now, 12_000); // nearly drains the bucket
        let a2 = b.acquire(now, 1500); // must wait for tokens
        let a3 = b.acquire(now, 1); // tiny, but must not pass a2
        assert!(a1 <= a2, "{a1} vs {a2}");
        assert!(a2 <= a3, "{a2} vs {a3}");
    }

    #[test]
    fn earliest_departure_does_not_consume() {
        let mut b = bucket();
        let now = SimTime::ZERO;
        let a = b.earliest_departure(now, 1500);
        let b2 = b.earliest_departure(now, 1500);
        assert_eq!(a, b2);
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_rate_rejected() {
        let _ = TokenBucket::new(0, 1);
    }
}
