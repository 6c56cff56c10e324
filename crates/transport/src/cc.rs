//! Pluggable congestion control.
//!
//! The connection state machine ([`crate::tcp::TcpConn`]) owns loss
//! *detection* — dup-ACK counting, the NewReno recovery window, SACK
//! holes, RTO timers — and delegates every cwnd/ssthresh *decision* to a
//! [`CongestionControl`] implementation through a fixed set of hooks:
//!
//! | hook                  | fired when                                        |
//! |-----------------------|---------------------------------------------------|
//! | `on_ack`              | cumulative ACK advances outside recovery          |
//! | `on_loss`             | third duplicate ACK (enter fast recovery)         |
//! | `on_recovery_dup_ack` | further dup ACKs inside recovery (inflate)        |
//! | `on_partial_ack`      | partial ACK inside recovery (deflate + 1 MSS)     |
//! | `on_recovery_exit`    | full ACK of the recovery window                   |
//! | `on_rto`              | retransmission timeout                            |
//! | `on_ecn_ack`          | every cumulative ACK on an ECN-negotiated conn    |
//!
//! Three algorithms are provided. [`RenoCc`] is the pre-existing
//! Reno/NewReno arithmetic extracted verbatim — the test module keeps a
//! copy of the original inline expressions (`LegacyReno`) and
//! `reno_matches_legacy_inline_arithmetic_in_lockstep` asserts bit-for-bit
//! agreement after every hook of a seeded 20 k-call stream.
//! [`CubicCc`] is RFC 8312 CUBIC (concave/convex window curve, TCP-friendly
//! region, fast convergence). [`DctcpCc`] is RFC 8257 DCTCP: the receiver
//! echoes CE marks per segment and the sender estimates the marked-byte
//! fraction per window (`alpha = (1-g)·alpha + g·F`, g = 1/16), cutting
//! cwnd by `alpha/2` — gentle under low marking, Reno-like under heavy.
//!
//! All arithmetic is plain `f64` on simulated time — no wall clock, no
//! randomness — so every algorithm is deterministic and replayable.

use std::ops::{Deref, DerefMut};

use fastrak_net::packet::MSS;
use fastrak_sim::time::SimTime;

const MSS_F: f64 = MSS as f64;

/// Which congestion-control algorithm a connection runs. Carried by
/// `TcpConfig`; the default is the pre-existing Reno/NewReno behavior, so
/// existing scenarios are untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcAlgo {
    /// Reno/NewReno: slow start, AIMD congestion avoidance, halve on loss.
    #[default]
    Reno,
    /// RFC 8312 CUBIC: cubic window curve around the last loss point.
    Cubic,
    /// RFC 8257 DCTCP: ECN-fraction-proportional window reduction.
    Dctcp,
}

impl CcAlgo {
    /// Short lowercase name, used in experiment labels and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            CcAlgo::Reno => "reno",
            CcAlgo::Cubic => "cubic",
            CcAlgo::Dctcp => "dctcp",
        }
    }
}

/// The congestion-control contract. All window values are in **bytes**
/// (`f64`, matching the original inline arithmetic); the segment size is the
/// wire's [`MSS`]; `flight` is bytes outstanding at the event.
pub trait CongestionControl {
    /// Current congestion window in bytes.
    fn cwnd(&self) -> f64;
    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> f64;
    /// Cumulative ACK of `acked` new bytes outside recovery. Only called
    /// when the sender is actually window-limited (cwnd validation) and
    /// below the configured cwnd cap — those gates live in the state
    /// machine so every algorithm sees identical policy.
    fn on_ack(&mut self, now: SimTime, acked: u64, srtt: Option<f64>);
    /// Third duplicate ACK: fast retransmit, enter recovery.
    fn on_loss(&mut self, flight: u64);
    /// Duplicate ACK while already in recovery: inflate by one MSS.
    fn on_recovery_dup_ack(&mut self);
    /// NewReno partial ACK during recovery: deflate by the acked amount,
    /// add back one MSS.
    fn on_partial_ack(&mut self, acked: u64);
    /// Cumulative ACK covering the whole recovery window: leave recovery.
    fn on_recovery_exit(&mut self);
    /// Retransmission timeout. `flight` is already floored at one MSS by
    /// the caller (matching the original inline code).
    fn on_rto(&mut self, flight: u64);
    /// Every cumulative ACK on an ECN-negotiated connection, with `ece`
    /// reporting whether the peer echoed congestion. Returns `true` when
    /// the algorithm began a new window reduction and the sender should
    /// set CWR on its next data segment.
    fn on_ecn_ack(
        &mut self,
        now: SimTime,
        acked: u64,
        ece: bool,
        flight: u64,
        snd_una: u64,
        snd_nxt: u64,
    ) -> bool;
}

/// Reno/NewReno: the original transport behavior, extracted.
#[derive(Debug, Clone)]
pub struct RenoCc {
    cwnd: f64,
    ssthresh: f64,
    /// Classic-ECN CWR latch: at most one reduction per window of data.
    cwr_end: u64,
}

impl RenoCc {
    pub fn new(initial_cwnd: f64) -> RenoCc {
        RenoCc {
            cwnd: initial_cwnd,
            ssthresh: f64::MAX,
            cwr_end: 0,
        }
    }
}

impl CongestionControl for RenoCc {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn on_ack(&mut self, _now: SimTime, acked: u64, _srtt: Option<f64>) {
        if self.cwnd < self.ssthresh {
            // Slow start: one cwnd of growth per RTT of acked data.
            self.cwnd += acked as f64;
        } else {
            // Congestion avoidance: ~1 MSS per RTT.
            self.cwnd += (MSS_F * MSS_F) / self.cwnd;
        }
    }

    fn on_loss(&mut self, flight: u64) {
        self.ssthresh = (flight as f64 / 2.0).max(2.0 * MSS_F);
        self.cwnd = self.ssthresh + 3.0 * MSS_F;
    }

    fn on_recovery_dup_ack(&mut self) {
        self.cwnd += MSS_F;
    }

    fn on_partial_ack(&mut self, acked: u64) {
        self.cwnd = (self.cwnd - acked as f64 + MSS_F).max(MSS_F);
    }

    fn on_recovery_exit(&mut self) {
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, flight: u64) {
        self.ssthresh = (flight as f64 / 2.0).max(2.0 * MSS_F);
        self.cwnd = MSS_F;
    }

    fn on_ecn_ack(
        &mut self,
        _now: SimTime,
        _acked: u64,
        ece: bool,
        flight: u64,
        snd_una: u64,
        snd_nxt: u64,
    ) -> bool {
        // RFC 3168: react to ECE like fast retransmit (halve once per
        // window) but without retransmitting anything.
        if ece && snd_una >= self.cwr_end {
            self.cwr_end = snd_nxt;
            self.ssthresh = (flight as f64 / 2.0).max(2.0 * MSS_F);
            self.cwnd = self.ssthresh;
            return true;
        }
        false
    }
}

const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;

/// RFC 8312 CUBIC. The window follows `W(t) = C·(t-K)³ + W_max` (in
/// segments) from the last reduction, concave up to the previous loss
/// point `W_max`, then convex probing beyond it, with the TCP-friendly
/// lower envelope and fast convergence on repeated loss.
#[derive(Debug, Clone)]
pub struct CubicCc {
    cwnd: f64,
    ssthresh: f64,
    /// Window (segments) at the last reduction — plateau of the curve.
    w_max: f64,
    /// Time (seconds) for the curve to return to `w_max`.
    k: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
    cwr_end: u64,
}

impl CubicCc {
    pub fn new(initial_cwnd: f64) -> CubicCc {
        CubicCc {
            cwnd: initial_cwnd,
            ssthresh: f64::MAX,
            w_max: 0.0,
            k: 0.0,
            epoch_start: None,
            cwr_end: 0,
        }
    }

    /// Multiplicative decrease shared by loss, RTO, and ECN reductions:
    /// record the loss point (with fast convergence), restart the epoch,
    /// and set ssthresh to `β·cwnd`.
    fn reduce(&mut self) {
        let cwnd_segs = self.cwnd / MSS_F;
        // Fast convergence: a loss below the previous plateau means
        // capacity shrank — release the extra share to the newcomer.
        self.w_max = if cwnd_segs < self.w_max {
            cwnd_segs * (1.0 + CUBIC_BETA) / 2.0
        } else {
            cwnd_segs
        };
        self.k = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        self.epoch_start = None;
        self.ssthresh = (self.cwnd * CUBIC_BETA).max(2.0 * MSS_F);
    }
}

impl CongestionControl for CubicCc {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn on_ack(&mut self, now: SimTime, acked: u64, srtt: Option<f64>) {
        if self.cwnd < self.ssthresh {
            self.cwnd += acked as f64;
            return;
        }
        let cwnd_segs = self.cwnd / MSS_F;
        let epoch = match self.epoch_start {
            Some(e) => e,
            None => {
                // First CA ack of the epoch. If slow start already carried
                // us past the old plateau, the curve starts fresh from
                // here (K = 0: convex probing immediately).
                if self.w_max < cwnd_segs {
                    self.w_max = cwnd_segs;
                    self.k = 0.0;
                }
                self.epoch_start = Some(now);
                now
            }
        };
        let rtt = srtt.unwrap_or(0.0);
        let t = now.since(epoch).as_secs_f64() + rtt;
        let w_cubic = CUBIC_C * (t - self.k).powi(3) + self.w_max;
        // TCP-friendly region (RFC 8312 §4.2): never slower than AIMD
        // with the same β.
        let w_est = if rtt > 0.0 {
            self.w_max * CUBIC_BETA + 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA) * (t / rtt)
        } else {
            0.0
        };
        let target = w_cubic.max(w_est);
        if target > cwnd_segs {
            // Spread the climb to `target` over the next window of ACKs,
            // never faster than slow start.
            let inc = ((target - cwnd_segs) / cwnd_segs) * MSS_F;
            self.cwnd += inc.min(acked as f64);
        }
    }

    fn on_loss(&mut self, _flight: u64) {
        self.reduce();
        // NewReno-style inflation so the shared recovery machinery
        // (deflate-on-partial-ack, collapse-to-ssthresh on exit) behaves
        // identically across algorithms.
        self.cwnd = self.ssthresh + 3.0 * MSS_F;
    }

    fn on_recovery_dup_ack(&mut self) {
        self.cwnd += MSS_F;
    }

    fn on_partial_ack(&mut self, acked: u64) {
        self.cwnd = (self.cwnd - acked as f64 + MSS_F).max(MSS_F);
    }

    fn on_recovery_exit(&mut self) {
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, _flight: u64) {
        self.reduce();
        self.cwnd = MSS_F;
    }

    fn on_ecn_ack(
        &mut self,
        _now: SimTime,
        _acked: u64,
        ece: bool,
        _flight: u64,
        snd_una: u64,
        snd_nxt: u64,
    ) -> bool {
        // Classic ECN: one cubic reduction per window of data.
        if ece && snd_una >= self.cwr_end {
            self.cwr_end = snd_nxt;
            self.reduce();
            self.cwnd = self.ssthresh;
            return true;
        }
        false
    }
}

/// DCTCP EWMA gain (RFC 8257 recommends g = 1/16).
const DCTCP_G: f64 = 1.0 / 16.0;

/// RFC 8257 DCTCP. Growth is Reno's; the reaction to congestion is
/// proportional to the *fraction* of CE-marked bytes per window, estimated
/// from ECE-bearing ACKs: `alpha ← (1-g)·alpha + g·F`, `cwnd ← cwnd·(1 -
/// alpha/2)`. A fully marked window halves like Reno; a 5%-marked window
/// barely dents the sender — which is what keeps shallow ECN thresholds
/// (and therefore short switch queues) compatible with high throughput.
#[derive(Debug, Clone)]
pub struct DctcpCc {
    cwnd: f64,
    ssthresh: f64,
    /// EWMA of the per-window marked-byte fraction, in [0, 1].
    alpha: f64,
    /// Sequence marking the end of the current observation window.
    window_end: u64,
    acked_bytes: u64,
    marked_bytes: u64,
}

impl DctcpCc {
    pub fn new(initial_cwnd: f64) -> DctcpCc {
        DctcpCc {
            cwnd: initial_cwnd,
            ssthresh: f64::MAX,
            // Start conservative (RFC 8257 §4.2): assume full marking
            // until a real estimate accumulates.
            alpha: 1.0,
            window_end: 0,
            acked_bytes: 0,
            marked_bytes: 0,
        }
    }

    /// Current ECN-fraction estimate (test/telemetry hook).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl CongestionControl for DctcpCc {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn on_ack(&mut self, _now: SimTime, acked: u64, _srtt: Option<f64>) {
        // DCTCP keeps Reno's slow start and congestion avoidance.
        if self.cwnd < self.ssthresh {
            self.cwnd += acked as f64;
        } else {
            self.cwnd += (MSS_F * MSS_F) / self.cwnd;
        }
    }

    fn on_loss(&mut self, flight: u64) {
        self.ssthresh = (flight as f64 / 2.0).max(2.0 * MSS_F);
        self.cwnd = self.ssthresh + 3.0 * MSS_F;
    }

    fn on_recovery_dup_ack(&mut self) {
        self.cwnd += MSS_F;
    }

    fn on_partial_ack(&mut self, acked: u64) {
        self.cwnd = (self.cwnd - acked as f64 + MSS_F).max(MSS_F);
    }

    fn on_recovery_exit(&mut self) {
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, flight: u64) {
        self.ssthresh = (flight as f64 / 2.0).max(2.0 * MSS_F);
        self.cwnd = MSS_F;
    }

    fn on_ecn_ack(
        &mut self,
        _now: SimTime,
        acked: u64,
        ece: bool,
        _flight: u64,
        snd_una: u64,
        snd_nxt: u64,
    ) -> bool {
        self.acked_bytes += acked;
        if ece {
            self.marked_bytes += acked;
        }
        let mut cwr = false;
        if snd_una >= self.window_end {
            // One observation window (~1 RTT of data) completed.
            if self.acked_bytes > 0 {
                let f = self.marked_bytes as f64 / self.acked_bytes as f64;
                self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f;
                if self.marked_bytes > 0 {
                    self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(2.0 * MSS_F);
                    self.ssthresh = self.cwnd;
                    cwr = true;
                }
            }
            self.window_end = snd_nxt;
            self.acked_bytes = 0;
            self.marked_bytes = 0;
        }
        cwr
    }
}

/// Enum dispatch over the three algorithms (keeps `TcpConn: Clone` without
/// boxed trait objects on the per-ACK hot path).
#[derive(Debug, Clone)]
pub enum Cc {
    Reno(RenoCc),
    Cubic(CubicCc),
    Dctcp(DctcpCc),
}

impl Cc {
    pub fn new(algo: CcAlgo, initial_cwnd: f64) -> Cc {
        match algo {
            CcAlgo::Reno => Cc::Reno(RenoCc::new(initial_cwnd)),
            CcAlgo::Cubic => Cc::Cubic(CubicCc::new(initial_cwnd)),
            CcAlgo::Dctcp => Cc::Dctcp(DctcpCc::new(initial_cwnd)),
        }
    }
}

/// A `Cc` is used as the algorithm it holds: every [`CongestionControl`]
/// hook is called on it directly.
impl Deref for Cc {
    type Target = dyn CongestionControl;

    fn deref(&self) -> &Self::Target {
        match self {
            Cc::Reno(c) => c,
            Cc::Cubic(c) => c,
            Cc::Dctcp(c) => c,
        }
    }
}

impl DerefMut for Cc {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            Cc::Reno(c) => c,
            Cc::Cubic(c) => c,
            Cc::Dctcp(c) => c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// The pre-extraction inline Reno/NewReno arithmetic from `tcp.rs`, kept
    /// verbatim as the reference [`RenoCc`] is compared against.
    #[derive(Debug, Clone, Copy)]
    struct LegacyReno {
        cwnd: f64,
        ssthresh: f64,
    }

    impl LegacyReno {
        fn ack_growth(&mut self, acked: u64, mss: u32) {
            if self.cwnd < self.ssthresh {
                self.cwnd += acked as f64;
            } else {
                self.cwnd += (mss as f64 * mss as f64) / self.cwnd;
            }
        }

        fn enter_recovery(&mut self, flight: u64, mss: u32) {
            self.ssthresh = (flight as f64 / 2.0).max((2 * mss) as f64);
            self.cwnd = self.ssthresh + (3 * mss) as f64;
        }

        fn dup_ack_inflate(&mut self, mss: u32) {
            self.cwnd += mss as f64;
        }

        fn partial_ack(&mut self, acked: u64, mss: u32) {
            self.cwnd = (self.cwnd - acked as f64 + mss as f64).max(mss as f64);
        }

        fn exit_recovery(&mut self) {
            self.cwnd = self.ssthresh;
        }

        fn rto(&mut self, flight: u64, mss: u32) {
            self.ssthresh = (flight as f64 / 2.0).max((2 * mss) as f64);
            self.cwnd = mss as f64;
        }
    }

    #[test]
    fn reno_matches_legacy_inline_arithmetic_in_lockstep() {
        let mut rng = fastrak_sim::Rng::new(0x4E57_00CC);
        let init = (10 * MSS) as f64;
        let mut cc = RenoCc::new(init);
        let mut legacy = LegacyReno {
            cwnd: init,
            ssthresh: f64::MAX,
        };
        let mut snd_una = 0u64;
        let mut hooks = [0u32; 7];
        let mut ecn_cuts = 0u32;
        for step in 0..20_000u64 {
            let acked = rng.range(1, 10 * MSS as u64);
            let flight = rng.range(MSS as u64, 200 * MSS as u64);
            let hook = rng.below(7) as usize;
            hooks[hook] += 1;
            match hook {
                0 => {
                    cc.on_ack(t(step), acked, None);
                    legacy.ack_growth(acked, MSS);
                }
                1 => {
                    cc.on_loss(flight);
                    legacy.enter_recovery(flight, MSS);
                }
                2 => {
                    cc.on_recovery_dup_ack();
                    legacy.dup_ack_inflate(MSS);
                }
                3 => {
                    cc.on_partial_ack(acked);
                    legacy.partial_ack(acked, MSS);
                }
                4 => {
                    cc.on_recovery_exit();
                    legacy.exit_recovery();
                }
                5 => {
                    cc.on_rto(flight);
                    legacy.rto(flight, MSS);
                }
                _ => {
                    // ECN reductions post-date the legacy code: mirror them
                    // so the comparison keeps running afterwards.
                    snd_una += acked;
                    let ece = rng.chance(0.5);
                    if cc.on_ecn_ack(t(step), acked, ece, flight, snd_una, snd_una + flight) {
                        ecn_cuts += 1;
                        legacy.cwnd = cc.cwnd();
                        legacy.ssthresh = cc.ssthresh();
                    }
                }
            }
            assert!(
                cc.cwnd().to_bits() == legacy.cwnd.to_bits()
                    && cc.ssthresh().to_bits() == legacy.ssthresh.to_bits(),
                "step {step} hook {hook}: extracted cwnd={}/ssthresh={} vs legacy {}/{}",
                cc.cwnd(),
                cc.ssthresh(),
                legacy.cwnd,
                legacy.ssthresh,
            );
        }
        assert!(hooks.iter().all(|&n| n > 1_000), "hook mix {hooks:?}");
        assert!(
            ecn_cuts > 0,
            "no ECN reduction taken — mirror path untested"
        );
    }

    #[test]
    fn reno_slow_start_doubles_per_rtt_of_acks() {
        let mut cc = RenoCc::new((10 * MSS) as f64);
        cc.on_ack(t(0), (10 * MSS) as u64, None);
        assert_eq!(cc.cwnd(), (20 * MSS) as f64);
    }

    #[test]
    fn reno_congestion_avoidance_adds_one_mss_per_window() {
        let mut cc = RenoCc::new((10 * MSS) as f64);
        cc.on_loss((10 * MSS) as u64); // ssthresh = 5 MSS
        cc.on_recovery_exit(); // cwnd = ssthresh
        let start = cc.cwnd();
        // One full window of ACKs in CA grows cwnd by ~1 MSS.
        let mut acked = 0u64;
        while acked < start as u64 {
            cc.on_ack(t(acked), MSS as u64, None);
            acked += MSS as u64;
        }
        let grown = cc.cwnd() - start;
        assert!(
            (grown - MSS as f64).abs() < MSS as f64 * 0.2,
            "CA growth per RTT was {grown} bytes, expected ~{MSS}"
        );
    }

    #[test]
    fn reno_loss_halves_flight_with_two_mss_floor() {
        let mut cc = RenoCc::new((10 * MSS) as f64);
        cc.on_loss((10 * MSS) as u64);
        assert_eq!(cc.ssthresh(), (5 * MSS) as f64);
        assert_eq!(cc.cwnd(), (8 * MSS) as f64); // ssthresh + 3 MSS
        cc.on_loss(MSS as u64);
        assert_eq!(cc.ssthresh(), (2 * MSS) as f64); // floor
    }

    #[test]
    fn reno_ecn_reduction_is_once_per_window() {
        let mut cc = RenoCc::new((10 * MSS) as f64);
        let flight = (10 * MSS) as u64;
        // First ECE at snd_una=1000, window runs to snd_nxt=50_000.
        assert!(cc.on_ecn_ack(t(0), 1448, true, flight, 1_000, 50_000));
        let after_first = cc.cwnd();
        assert_eq!(after_first, (5 * MSS) as f64);
        // More ECE inside the same window: latched, no further cut.
        assert!(!cc.on_ecn_ack(t(10), 1448, true, flight, 10_000, 55_000));
        assert_eq!(cc.cwnd(), after_first);
        // Past the window end (with the now-smaller flight): cuts again.
        let flight2 = (5 * MSS) as u64;
        assert!(cc.on_ecn_ack(t(20), 1448, true, flight2, 50_000, 90_000));
        assert!(cc.cwnd() < after_first);
    }

    #[test]
    fn cubic_is_concave_below_plateau_then_convex_beyond() {
        // Loss at w_max = 1000 segments: K = cbrt(1000·0.3/0.4) ≈ 9.1 s.
        let mut cc = CubicCc::new((1000 * MSS) as f64);
        cc.on_loss((1000 * MSS) as u64);
        cc.on_recovery_exit();
        // Ack-clocked drive: each 100 ms RTT round delivers one window of
        // ACKs, so cwnd tracks the cubic target closely.
        let rtt = 0.1;
        let mut now_us = 0u64;
        let mut samples = Vec::new(); // cwnd (segments) after each round
        for _round in 0..180 {
            let segs = (cc.cwnd() / MSS as f64) as u64;
            for _ in 0..segs {
                cc.on_ack(t(now_us), MSS as u64, Some(rtt));
            }
            now_us += 100_000;
            samples.push(cc.cwnd() / MSS as f64);
        }
        // Concave toward the plateau, flat at it (~round 91), convex after.
        let early = samples[10] - samples[0];
        let mid = samples[95] - samples[85];
        let late = samples[179] - samples[169];
        assert!(
            early > mid,
            "concave region should flatten: early {early}, mid {mid}"
        );
        assert!(
            late > mid,
            "convex region should accelerate: late {late}, mid {mid}"
        );
        // The curve passes back through the old plateau.
        assert!(*samples.last().unwrap() > 1000.0);
    }

    #[test]
    fn cubic_fast_convergence_lowers_plateau_on_repeat_loss() {
        let mut cc = CubicCc::new((100 * MSS) as f64);
        cc.on_loss((100 * MSS) as u64);
        let w_max_1 = cc.w_max;
        assert_eq!(w_max_1, 100.0);
        // Lose again before regaining the plateau.
        cc.on_recovery_exit();
        cc.on_loss(cc.cwnd() as u64);
        assert!(
            cc.w_max < w_max_1 * CUBIC_BETA + 1.0,
            "fast convergence should shrink w_max: {} vs {}",
            cc.w_max,
            w_max_1
        );
    }

    #[test]
    fn cubic_beta_reduction_on_loss() {
        let mut cc = CubicCc::new((100 * MSS) as f64);
        cc.on_loss(0);
        assert_eq!(cc.ssthresh(), 100.0 * MSS as f64 * CUBIC_BETA);
    }

    #[test]
    fn dctcp_alpha_tracks_mark_fraction() {
        let mut cc = DctcpCc::new((10 * MSS) as f64);
        // Unmarked windows decay alpha from its conservative start.
        let mut snd_una = 1u64;
        for w in 0..60u64 {
            let acked = (10 * MSS) as u64;
            snd_una += acked;
            cc.on_ecn_ack(t(w * 100), acked, false, acked, snd_una, snd_una + acked);
        }
        assert!(cc.alpha() < 0.05, "alpha should decay: {}", cc.alpha());
        let cwnd_before = cc.cwnd();
        // A fully marked window: alpha climbs toward 1 but the cut is
        // proportional to the *current* (small) alpha — gentle.
        let acked = (10 * MSS) as u64;
        snd_una += acked;
        assert!(cc.on_ecn_ack(t(10_000), acked, true, acked, snd_una, snd_una + acked));
        let cut = 1.0 - cc.cwnd() / cwnd_before;
        assert!(cut < 0.05, "low-alpha cut should be gentle, was {cut}");
        // Sustained full marking converges alpha → 1 and the cut → 1/2.
        for w in 0..80u64 {
            snd_una += acked;
            cc.on_ecn_ack(
                t(20_000 + w * 100),
                acked,
                true,
                acked,
                snd_una,
                snd_una + acked,
            );
        }
        assert!(cc.alpha() > 0.95, "alpha should converge: {}", cc.alpha());
    }

    #[test]
    fn dctcp_no_reduction_without_marks() {
        let mut cc = DctcpCc::new((10 * MSS) as f64);
        let cwnd = cc.cwnd();
        let acked = (10 * MSS) as u64;
        assert!(!cc.on_ecn_ack(t(0), acked, false, acked, acked, 2 * acked));
        assert_eq!(cc.cwnd(), cwnd);
    }

    #[test]
    fn dispatch_enum_routes_to_algorithm() {
        let mut cc = Cc::new(CcAlgo::Cubic, (10 * MSS) as f64);
        assert!(matches!(cc, Cc::Cubic(_)));
        cc.on_loss((10 * MSS) as u64);
        assert_eq!(cc.ssthresh(), 10.0 * MSS as f64 * CUBIC_BETA);
        let reno = Cc::new(CcAlgo::Reno, (10 * MSS) as f64);
        assert!(matches!(reno, Cc::Reno(_)));
        assert_eq!(CcAlgo::Dctcp.name(), "dctcp");
    }
}
