//! Scheduler micro-benches: the timing wheel against the binary-heap oracle,
//! head-to-head through the shared `Scheduler` trait (the kernel runs on
//! the wheel; the heap is the reference model).
//!
//! Four workload shapes bracket the kernel's real usage:
//!
//! * `uniform_hold` — the classic hold model: steady population, pop the
//!   earliest event, schedule a replacement at a uniform random delay.
//! * `bursty_tie_64` — 64 events at one identical timestamp, then drain
//!   them; stresses tie handling (slot FIFO vs heap sift).
//! * `timer_churn_cancel` — rto-style timers that are almost always
//!   cancelled and re-armed before firing; stresses the cancel path and
//!   dead-entry reclaim.
//! * `far_future_skew` — every event beyond the ~73 min wheel horizon;
//!   stresses the overflow heap and promotion.
//!
//! Run with `cargo bench -p fastrak-bench --bench scheduler` (add
//! `-- --quick` for a fast smoke pass). Set `FASTRAK_BENCH_JSON=<path>` to
//! collect machine-readable results.

use fastrak_bench::harness::{black_box, Suite};
use fastrak_sim::sched::{BinaryHeapSched, Scheduler, TimingWheel};
use fastrak_sim::time::SimTime;
use fastrak_sim::Rng;

fn bench_impl<S: Scheduler<u64>>(s: &mut Suite, label: &str) {
    // Hold model: 4096 pending, one pop + one schedule per iteration, so
    // the reported figure is ns per pop+schedule pair ("ns/event").
    {
        let mut sched = S::default();
        let mut rng = Rng::new(7);
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..4096 {
            let at = now + 1 + rng.below(1_000_000);
            sched.schedule(SimTime(at), seq, 0, seq);
            seq += 1;
        }
        s.bench(&format!("uniform_hold_{label}"), || {
            let (t, _, ev) = sched.pop_due(SimTime::MAX).expect("population is constant");
            black_box(ev);
            now = t.as_nanos();
            let at = now + 1 + rng.below(1_000_000);
            sched.schedule(SimTime(at), seq, 0, seq);
            seq += 1;
        });
    }

    // Tie burst: 64 same-timestamp schedules, then 64 pops, per iteration.
    {
        let mut sched = S::default();
        let mut seq = 0u64;
        let mut now = 0u64;
        s.bench(&format!("bursty_tie_64_{label}"), || {
            let at = SimTime(now + 1024);
            for _ in 0..64 {
                sched.schedule(at, seq, 0, seq);
                seq += 1;
            }
            for _ in 0..64 {
                let (t, _, ev) = sched.pop_due(SimTime::MAX).expect("just scheduled");
                black_box(ev);
                now = t.as_nanos();
            }
        });
    }

    // Timer churn: a ring of 64 armed timers; every iteration arms a new
    // one and cancels the oldest. Delays (8–64 us) far exceed the 64 ns
    // clock step times the ring length, so cancels always hit live timers —
    // nearly every event dies before delivery, and the cost measured is
    // schedule + cancel + dead-entry reclaim.
    {
        let mut sched = S::default();
        let mut rng = Rng::new(11);
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut ring: Vec<_> = (0..64)
            .map(|_| {
                let at = now + 8_192 + rng.below(57_344);
                let h = sched.schedule(SimTime(at), seq, 0, seq);
                seq += 1;
                h
            })
            .collect();
        let mut i = 0usize;
        s.bench(&format!("timer_churn_cancel_{label}"), || {
            now += 64;
            while let Some((_, _, ev)) = sched.pop_due(SimTime(now)) {
                black_box(ev);
            }
            let at = now + 8_192 + rng.below(57_344);
            let h = sched.schedule(SimTime(at), seq, 0, seq);
            seq += 1;
            sched.cancel(ring[i]);
            ring[i] = h;
            i = (i + 1) % ring.len();
        });
    }

    // Far-future skew: a 512-event population entirely beyond the wheel
    // horizon, replenished past the horizon on every pop.
    {
        const FAR: u64 = 1 << 42; // one full wheel horizon (~73 min)
        let mut sched = S::default();
        let mut rng = Rng::new(13);
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..512 {
            let at = now + FAR + rng.below(FAR);
            sched.schedule(SimTime(at), seq, 0, seq);
            seq += 1;
        }
        s.bench(&format!("far_future_skew_{label}"), || {
            let (t, _, ev) = sched.pop_due(SimTime::MAX).expect("population is constant");
            black_box(ev);
            now = t.as_nanos();
            let at = now + FAR + rng.below(FAR);
            sched.schedule(SimTime(at), seq, 0, seq);
            seq += 1;
        });
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut s = Suite::new("scheduler");
    if quick {
        s = s.quick();
    }
    bench_impl::<TimingWheel<u64>>(&mut s, "wheel");
    bench_impl::<BinaryHeapSched<u64>>(&mut s, "heap");
    s.finish();
}
