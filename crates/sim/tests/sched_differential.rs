//! Differential test: the timing wheel against the binary-heap oracle.
//!
//! A seeded stream of mixed operations — schedules across every wheel level
//! (including far-future overflow and ties), cancels of live, fired, and
//! already-cancelled handles, deadline-bounded pops (`run_until`-style) and
//! unbounded drains — is replayed through [`TimingWheel`] and
//! [`BinaryHeapSched`] in lockstep. Every delivery must match exactly:
//! time, destination node, payload, and the relative order. The observable
//! counters (`len`, backlog at quiescent points, final drain) must agree
//! too. The kernel drives its scheduler only through these operations, so
//! equality here is equality of every simulation run on either.

use fastrak_sim::sched::{BinaryHeapSched, Scheduler, TimingWheel};
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_sim::{EventHandle, Rng};

/// One scheduler wrapped with the kernel's clamp + seq discipline, so the
/// test drives both implementations exactly the way `Kernel` does.
struct Harness<S: Scheduler<u64>> {
    sched: S,
    now: SimTime,
    next_seq: u64,
    delivered: u64,
    handles: Vec<EventHandle>,
    /// Largest time ever scheduled — the kernel's clock never rewinds, so
    /// the harness must not either (see the resume logic below).
    high_water: SimTime,
}

impl<S: Scheduler<u64>> Harness<S> {
    fn new() -> Self {
        Harness {
            sched: S::default(),
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
        let h = self.sched.schedule(at, seq, (seq % 7) as usize, seq);
        self.handles.push(h);
        self.high_water = self.high_water.max(at);
    }

    fn cancel_nth(&mut self, n: usize) {
        if !self.handles.is_empty() {
            let h = self.handles[n % self.handles.len()];
            self.sched.cancel(h);
        }
    }

    /// Pop every event due at or before `deadline`, advancing the clock the
    /// way `Kernel::run_until` does. Returns the delivery log.
    fn run_until(&mut self, deadline: SimTime) -> Vec<(u64, usize, u64)> {
        let mut log = Vec::new();
        while let Some((t, dst, ev)) = self.sched.pop_due(deadline) {
            assert!(t >= self.now, "clock went backwards");
            assert!(t <= deadline, "pop_due ignored the deadline");
            self.now = t;
            self.delivered += 1;
            log.push((t.as_nanos(), dst, ev));
        }
        if self.now < deadline {
            self.now = deadline;
        }
        log
    }
}

/// Drive both schedulers through the same seeded operation stream and
/// assert identical observable behavior throughout.
fn differential_run(seed: u64, ops: usize, horizon_stress: bool) {
    let mut rng = Rng::new(seed);
    let mut wheel = Harness::<TimingWheel<u64>>::new();
    let mut heap = Harness::<BinaryHeapSched<u64>>::new();

    for op in 0..ops {
        match rng.below(100) {
            // Schedule: delays spanning every wheel level, with deliberate
            // ties (delay 0 and repeated exact delays).
            0..=59 => {
                let delay = match rng.below(10) {
                    0 => SimDuration::ZERO,                         // tie on `now`
                    1 => SimDuration(rng.below(64)),                // level 0
                    2 => SimDuration(rng.below(4096)),              // level 1
                    3 => SimDuration::from_micros(rng.below(260)),  // level 2
                    4 => SimDuration::from_millis(rng.below(16)),   // level 3
                    5 => SimDuration::from_millis(rng.below(1000)), // level 4
                    6 => SimDuration::from_secs(rng.below(60)),     // level 5/6
                    7 => SimDuration::from_micros(10),              // repeated tie
                    8 if horizon_stress => {
                        // Far future: past the 2^42 ns (~73 min) wheel
                        // horizon, exercising overflow + promotion.
                        SimDuration::from_secs(3600 + rng.below(7200))
                    }
                    _ => SimDuration(rng.below(1_000_000)),
                };
                let at = wheel.now + delay;
                wheel.schedule(at);
                heap.schedule(at);
            }
            // Cancel a handle: sometimes live, sometimes long-fired,
            // sometimes cancelled twice — all must be no-op-safe.
            60..=79 => {
                let n = rng.below(u64::MAX) as usize;
                wheel.cancel_nth(n);
                heap.cancel_nth(n);
            }
            // Bounded run (run_until idiom).
            80..=94 => {
                let ahead = SimDuration(rng.below(2_000_000));
                let deadline = wheel.now + ahead;
                let wl = wheel.run_until(deadline);
                let hl = heap.run_until(deadline);
                assert_eq!(wl, hl, "delivery logs diverged at op {op} (seed {seed})");
                assert_eq!(wheel.now, heap.now, "clocks diverged at op {op}");
            }
            // Unbounded drain of a few events via a tight deadline ladder:
            // peek must agree, then drain-to-empty occasionally.
            _ => {
                assert_eq!(
                    wheel.sched.next_time(),
                    heap.sched.next_time(),
                    "next_time diverged at op {op} (seed {seed})"
                );
                if rng.chance(0.2) {
                    let wl = wheel.run_until(SimTime::MAX);
                    let hl = heap.run_until(SimTime::MAX);
                    assert_eq!(wl, hl, "full drain diverged at op {op} (seed {seed})");
                    // MAX deadline leaves both clocks at MAX; resume from
                    // the highest time ever *scheduled* so the run can
                    // continue meaningfully. Resuming below that (e.g. at
                    // the last delivered time) would break the kernel
                    // contract both schedulers rely on: the clock never
                    // rewinds below an already-consumed (delivered or
                    // cancelled-and-reclaimed) event time.
                    let resume = wheel.high_water;
                    wheel.now = resume;
                    heap.now = resume;
                    assert_eq!(wheel.sched.len(), 0);
                    assert_eq!(heap.sched.len(), 0);
                    assert_eq!(wheel.sched.cancelled_backlog(), 0);
                    assert_eq!(heap.sched.cancelled_backlog(), 0);
                }
            }
        }
        // Raw `len()` includes cancelled-but-unreclaimed entries, and the
        // two implementations reclaim at different moments (the wheel on
        // slot drains/cascades, the heap when tombstones surface at the
        // head) — but the *live* count must agree at every step.
        assert_eq!(
            wheel.sched.len() - wheel.sched.cancelled_backlog(),
            heap.sched.len() - heap.sched.cancelled_backlog(),
            "live-entry counts diverged at op {op} (seed {seed})"
        );
        wheel.sched.debug_audit();
    }

    // Final full drain: everything still pending must come out identically.
    let wl = wheel.run_until(SimTime::MAX);
    let hl = heap.run_until(SimTime::MAX);
    assert_eq!(wl, hl, "final drain diverged (seed {seed})");
    assert_eq!(wheel.delivered, heap.delivered, "events_processed diverged");
    assert_eq!(wheel.sched.cancelled_backlog(), 0);
    assert_eq!(heap.sched.cancelled_backlog(), 0);
    assert!(wheel.sched.is_empty() && heap.sched.is_empty());
    assert!(
        wheel.delivered > (ops as u64) / 4,
        "run delivered too little to be meaningful: {}",
        wheel.delivered
    );
}

#[test]
fn wheel_matches_heap_oracle_over_100k_mixed_ops() {
    differential_run(0xfa5_72a4, 100_000, false);
}

#[test]
fn wheel_matches_heap_oracle_with_far_future_overflow() {
    differential_run(0x0600_d5eed, 40_000, true);
}

#[test]
fn wheel_matches_heap_oracle_across_seeds() {
    for seed in 1..=8 {
        differential_run(seed, 8_000, seed % 2 == 0);
    }
}
