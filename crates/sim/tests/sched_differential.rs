//! Differential test: the calendar queue against the binary-heap oracle.
//!
//! Seeded streams of mixed operations — schedules into the window, the ring
//! and the far heap (including ties), cancels of live, fired, and
//! already-cancelled handles, deadline-bounded pops (`run_until`-style) and
//! unbounded drains — are replayed through [`Calendar`] and
//! [`BinaryHeapSched`] in lockstep. Every pop must match exactly: time,
//! destination node, payload, and whether anything was due at all. The
//! observable counters (live entries at every step, backlog at quiescent
//! points, final drain) must agree too, and the calendar's own bookkeeping
//! is audited along the way. The kernel drives its scheduler only
//! through these operations, so equality here is equality of every
//! simulation run.

mod support;

use fastrak_sim::sched::{measured_delay, BUCKET_NS, SPAN_NS};
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_sim::{Calendar, EventHandle, Rng};
use support::BinaryHeapSched;

/// Both schedulers wrapped with the kernel's clamp + seq discipline, so the
/// test drives them exactly the way `Kernel` does.
struct Lockstep {
    cal: Calendar<u64>,
    oracle: BinaryHeapSched<u64>,
    now: SimTime,
    next_seq: u64,
    delivered: u64,
    handles: Vec<(EventHandle, u128)>,
    /// Largest time ever scheduled — the kernel's clock never rewinds, so
    /// the harness must not either (see the resume logic below).
    high_water: SimTime,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            cal: Calendar::default(),
            oracle: BinaryHeapSched::default(),
            now: SimTime::ZERO,
            next_seq: 0,
            delivered: 0,
            handles: Vec::new(),
            high_water: SimTime::ZERO,
        }
    }

    fn schedule(&mut self, at: SimTime) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let dst = (seq % 7) as usize;
        let h = self.cal.schedule(at, seq, dst, seq);
        let k = self.oracle.schedule(at, seq, dst, seq);
        self.handles.push((h, k));
        self.high_water = self.high_water.max(at);
    }

    fn cancel_nth(&mut self, n: usize) {
        if !self.handles.is_empty() {
            let (h, k) = self.handles[n % self.handles.len()];
            self.cal.cancel(h);
            self.oracle.cancel(k);
        }
    }

    /// Pop every event due at or before `deadline` from both, pop by pop,
    /// advancing the clock the way `Kernel::run_until` does.
    fn run_until(&mut self, deadline: SimTime, at: &str) {
        loop {
            let got = self.cal.pop_due(deadline);
            assert_eq!(got, self.oracle.pop_due(deadline), "pop diverged {at}");
            let Some((t, _, _)) = got else { break };
            assert!(t >= self.now, "clock went backwards {at}");
            assert!(t <= deadline, "pop_due ignored the deadline {at}");
            self.now = t;
            self.delivered += 1;
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Raw `len()` includes cancelled-but-unreclaimed entries, and the two
    /// implementations reclaim at different moments (the calendar when a
    /// dead entry's bucket opens, the heap when a tombstone surfaces at the
    /// head) — but the *live* count must agree at every step.
    fn check_live(&self, at: &str) {
        assert_eq!(
            self.cal.len() - self.cal.cancelled_backlog(),
            self.oracle.len() - self.oracle.cancelled_backlog(),
            "live-entry counts diverged {at}"
        );
    }
}

/// How a stream draws the time of each schedule (from the clock) and how
/// far ahead each bounded run looks.
struct Stream {
    at: fn(&mut Rng, SimTime) -> SimTime,
    ahead: fn(&mut Rng) -> SimDuration,
    /// Whether the stream occasionally drains everything (to `SimTime::MAX`)
    /// and resumes from the last scheduled time.
    full_drains: bool,
}

/// Drive both schedulers through the same seeded operation stream and
/// assert identical observable behaviour throughout.
fn differential_run(seed: u64, ops: usize, stream: &Stream) {
    let mut rng = Rng::new(seed);
    let mut s = Lockstep::new();

    for op in 0..ops {
        let at = format!("at op {op} (seed {seed})");
        match rng.below(100) {
            0..=59 => {
                let t = (stream.at)(&mut rng, s.now);
                s.schedule(t);
            }
            // Cancel a handle: sometimes live, sometimes long-fired,
            // sometimes cancelled twice — all must be no-op-safe.
            60..=79 => s.cancel_nth(rng.below(u64::MAX) as usize),
            80..=94 => {
                let deadline = s.now + (stream.ahead)(&mut rng);
                s.run_until(deadline, &at);
                s.cal.debug_audit();
            }
            _ => {
                assert_eq!(
                    s.cal.next_time(),
                    s.oracle.next_time(),
                    "next_time diverged {at}"
                );
                if stream.full_drains && rng.chance(0.2) {
                    s.run_until(SimTime::MAX, &at);
                    // MAX deadline leaves the clock at MAX; resume from the
                    // highest time ever *scheduled* so the run can continue
                    // meaningfully. Resuming below that would break the
                    // kernel contract: the clock never rewinds below an
                    // already-delivered event time.
                    s.now = s.high_water;
                    assert_eq!(s.cal.len(), 0);
                    assert_eq!(s.oracle.len(), 0);
                    assert_eq!(s.cal.cancelled_backlog(), 0);
                    assert_eq!(s.oracle.cancelled_backlog(), 0);
                }
            }
        }
        s.check_live(&at);
        // The audit walks all 4 096 ring buckets: after every bounded run
        // (above) and every 16th operation is enough to pin a broken
        // invariant to a short stretch of the stream.
        if op % 16 == 0 {
            s.cal.debug_audit();
        }
    }

    // Final full drain: everything still pending must come out identically.
    s.run_until(SimTime::MAX, &format!("in the final drain (seed {seed})"));
    assert_eq!(s.cal.cancelled_backlog(), 0);
    assert_eq!(s.oracle.cancelled_backlog(), 0);
    assert!(s.cal.is_empty() && s.oracle.len() == 0);
    assert!(
        s.delivered > (ops as u64) / 4,
        "run delivered too little to be meaningful: {}",
        s.delivered
    );
}

/// Delays spanning the window, the ring and the far heap, with deliberate
/// ties (delay 0 and a repeated exact delay).
fn mixed_delay(rng: &mut Rng, horizon_stress: bool) -> SimDuration {
    match rng.below(10) {
        0 => SimDuration::ZERO,
        1 => SimDuration(rng.below(64)),
        2 => SimDuration(rng.below(4096)),
        3 => SimDuration::from_micros(rng.below(260)),
        4 => SimDuration::from_millis(rng.below(16)),
        5 => SimDuration::from_millis(rng.below(1000)),
        6 => SimDuration::from_secs(rng.below(60)),
        7 => SimDuration::from_micros(10),
        8 if horizon_stress => SimDuration::from_secs(3600 + rng.below(7200)),
        _ => SimDuration(rng.below(1_000_000)),
    }
}

const MIXED: Stream = Stream {
    at: |rng, now| now + mixed_delay(rng, false),
    ahead: |rng| SimDuration(rng.below(2_000_000)),
    full_drains: true,
};

const MIXED_FAR: Stream = Stream {
    at: |rng, now| now + mixed_delay(rng, true),
    ahead: |rng| SimDuration(rng.below(2_000_000)),
    full_drains: true,
};

#[test]
fn wheel_matches_heap_oracle_over_100k_mixed_ops() {
    differential_run(0xfa5_72a4, 100_000, &MIXED);
}

#[test]
fn wheel_matches_heap_oracle_with_far_future_overflow() {
    differential_run(0x0600_d5eed, 40_000, &MIXED_FAR);
}

#[test]
fn wheel_matches_heap_oracle_across_seeds() {
    for seed in 1..=8 {
        let stream = if seed % 2 == 0 { &MIXED_FAR } else { &MIXED };
        differential_run(seed, 8_000, stream);
    }
}

#[test]
fn calendar_matches_oracle_on_the_measured_delay_mix() {
    // The kernel's own shape: short deadlines against the mix, so the
    // window, the ring and same-bucket neighbours carry the stream.
    let stream = Stream {
        at: |rng, now| now + measured_delay(rng),
        ahead: |rng| SimDuration(rng.below(200_000)),
        full_drains: true,
    };
    differential_run(0x3ea5_03ed, 60_000, &stream);
}

#[test]
fn calendar_matches_oracle_across_idle_gaps_that_wrap_the_ring() {
    // Bursts of short delays separated by idle gaps of one to eight ring
    // spans: the queue empties, the window jumps, and ring positions are
    // reused by buckets a whole span or more later. Some events land
    // exactly on the next bucket boundary, the first instant the current
    // window does not own.
    let stream = Stream {
        at: |rng, now| match rng.below(8) {
            0 => now + SimDuration(SPAN_NS * (1 + rng.below(4)) + rng.below(SPAN_NS)),
            1 => now + SimDuration(SPAN_NS - 1 - rng.below(512)),
            2 => SimTime((now.as_nanos() / BUCKET_NS + 1) * BUCKET_NS),
            _ => now + SimDuration(rng.below(4_000)),
        },
        ahead: |rng| match rng.below(4) {
            0 => SimDuration(SPAN_NS * (1 + rng.below(8))),
            _ => SimDuration(rng.below(8_000)),
        },
        full_drains: true,
    };
    differential_run(0x1d1e_6a95, 40_000, &stream);
}

#[test]
fn calendar_matches_oracle_with_rto_class_and_max_timers() {
    // Armed-and-cancelled timers in the far heap (200 ms–3 s RTOs, 40 ms
    // delayed ACKs, 1 s epochs) and never-firing `SimTime::MAX` timers
    // beside the measured traffic. Full drains are left out: they would
    // deliver the MAX timers and park the clock at the end of time.
    let stream = Stream {
        at: |rng, now| match rng.below(10) {
            0 => now + SimDuration::from_millis(200 + rng.below(2_800)),
            1 => now + SimDuration::from_millis(40),
            2 => now + SimDuration::from_secs(1),
            3 => SimTime::MAX,
            _ => now + measured_delay(rng),
        },
        ahead: |rng| match rng.below(10) {
            0 => SimDuration::from_millis(rng.below(500)),
            _ => SimDuration(rng.below(200_000)),
        },
        full_drains: false,
    };
    differential_run(0x0a7e_7135, 60_000, &stream);
}
