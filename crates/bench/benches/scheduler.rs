//! Scheduler micro-benches: the kernel's calendar queue under the shapes of
//! its real usage.
//!
//! * `measured_mix_hold/{64,256}` — the hold model on the delays the
//!   kernel actually schedules (`sched::MEASURED_MIX`, counted on
//!   `rack_soft`), at 64 and 256 pending events. The delays are drawn
//!   before timing, so the loop is one pop + one schedule.
//! * `uniform_hold` — the classic hold model: 4 096 pending, pop the
//!   earliest event, schedule a replacement at a uniform 0–1 ms delay.
//! * `bursty_tie_64` — 64 events at one identical timestamp, then drain
//!   them; stresses tie handling (one bucket sorted on opening).
//! * `timer_churn_cancel` — rto-style timers that are almost always
//!   cancelled and re-armed before firing; stresses the cancel path and
//!   dead-entry reclaim.
//! * `far_future_skew` — every event scheduled beyond the ring span;
//!   stresses the far heap and the moves into the ring.
//! * `far_rearm_cancel` — 64 live RTO timers 200 ms out; each iteration
//!   cancels one and re-arms it, as a server does with a superseded TCP
//!   timer. Times the far heap's reclaim of cancelled entries.
//!
//! Run with `cargo bench -p fastrak-bench --bench scheduler` (add
//! `-- --quick` for a fast smoke pass). Set `FASTRAK_BENCH_JSON=<path>` to
//! collect machine-readable results.

use fastrak_bench::harness::{black_box, Suite};
use fastrak_sim::sched::{measured_delay, SPAN_NS};
use fastrak_sim::time::SimTime;
use fastrak_sim::{Calendar, Rng};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut s = Suite::new("scheduler");
    if quick {
        s = s.quick();
    }

    // Measured-mix hold: a precomputed ring of delays in the measured
    // proportions, one pop + one schedule per iteration ("ns/event").
    {
        let mut rng = Rng::new(5);
        let delays: Vec<u64> = (0..1 << 16).map(|_| measured_delay(&mut rng).0).collect();
        for pending in [64u64, 256] {
            let mut sched = Calendar::default();
            let mut seq = 0u64;
            let mut now = 0u64;
            for _ in 0..pending {
                sched.schedule(SimTime(delays[seq as usize]), seq, 0, seq);
                seq += 1;
            }
            s.bench(&format!("measured_mix_hold/{pending}"), || {
                let (t, _, ev) = sched.pop_due(SimTime::MAX).expect("population is constant");
                black_box(ev);
                now = t.as_nanos();
                let at = now + delays[seq as usize & 0xffff];
                sched.schedule(SimTime(at), seq, 0, seq);
                seq += 1;
            });
        }
    }

    // Hold model: 4096 pending, one pop + one schedule per iteration.
    {
        let mut sched = Calendar::default();
        let mut rng = Rng::new(7);
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..4096 {
            let at = now + 1 + rng.below(1_000_000);
            sched.schedule(SimTime(at), seq, 0, seq);
            seq += 1;
        }
        s.bench("uniform_hold", || {
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
        let mut sched = Calendar::default();
        let mut seq = 0u64;
        let mut now = 0u64;
        s.bench("bursty_tie_64", || {
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
        let mut sched = Calendar::default();
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
        s.bench("timer_churn_cancel", || {
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

    // Far-future skew: a 512-event population scheduled one to two ring
    // spans ahead, replenished the same way on every pop, so every event
    // enters the far heap and moves into the ring before it is delivered.
    {
        let mut sched = Calendar::default();
        let mut rng = Rng::new(13);
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..512 {
            let at = now + SPAN_NS + rng.below(SPAN_NS);
            sched.schedule(SimTime(at), seq, 0, seq);
            seq += 1;
        }
        s.bench("far_future_skew", || {
            let (t, _, ev) = sched.pop_due(SimTime::MAX).expect("population is constant");
            black_box(ev);
            now = t.as_nanos();
            let at = now + SPAN_NS + rng.below(SPAN_NS);
            sched.schedule(SimTime(at), seq, 0, seq);
            seq += 1;
        });
    }

    // Far re-arm: 64 timers 200 ms out, each cancelled and re-armed in
    // turn while the clock creeps forward, so none ever comes due and the
    // dead ones are reclaimed only by compacting the far heap.
    {
        let mut sched = Calendar::default();
        let rto = 200_000_000;
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut timers: Vec<_> = (0..64)
            .map(|_| {
                seq += 1;
                sched.schedule(SimTime(rto), seq, 0, seq)
            })
            .collect();
        let mut i = 0usize;
        s.bench("far_rearm_cancel", || {
            now += 64;
            sched.cancel(timers[i]);
            seq += 1;
            timers[i] = sched.schedule(SimTime(now + rto), seq, 0, seq);
            i = (i + 1) % timers.len();
        });
        black_box(sched.len());
    }

    s.finish();
}
