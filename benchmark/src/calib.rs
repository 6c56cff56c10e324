//! The reference loop: a frozen, repo-independent piece of simulator-like
//! work (event heap, packet structs moved between queues, a hashed table)
//! timed between repetitions. The sandbox's speed drifts by tens of percent
//! for tens of seconds at a time (noisy neighbours); the loop drifts with
//! it, so dividing a run's host times by the loop's slowdown removes most of
//! that drift. It shares no code with the simulator, so a change to the
//! simulator cannot move it.
//!
//! Never edit the loop or [`NOMINAL_S`]: every recorded number is in their
//! units.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// The loop's duration on a quiet core of the reference box (2.1 GHz Xeon,
/// 2 vCPUs). It only fixes the scale of the normalised seconds.
pub const NOMINAL_S: f64 = 0.0052;

#[derive(Clone, Copy)]
struct Frame {
    key: [u64; 3],
    kind: u8,
    body: [u64; 16],
    hops: u32,
}

/// Host seconds one execution of the reference loop takes right now.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    let mut queues: Vec<VecDeque<Frame>> = (0..8).map(|_| VecDeque::new()).collect();
    let mut table = vec![(0u64, 0u64); 1 << 16];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    for i in 0..2048u64 {
        queues[(i % 8) as usize].push_back(Frame {
            key: [i, i * 31, i * 977],
            kind: (i % 5) as u8,
            body: [i; 16],
            hops: 0,
        });
        heap.push(Reverse((i * 7919 % 4096, (i % 8) as u32)));
    }
    let mut misses = 0u64;
    for _ in 0..60_000 {
        let Reverse((at, q)) = heap.pop().expect("one event per frame");
        let Some(mut f) = queues[q as usize].pop_front() else {
            continue;
        };
        let h = (f.key[0] ^ f.key[1].rotate_left(5) ^ f.key[2].rotate_left(11) ^ at)
            .wrapping_mul(0x517c_c1b7_2722_0a95);
        let slot = &mut table[(h >> 48) as usize];
        if slot.0 == h {
            slot.1 += 1;
        } else {
            *slot = (h, 1);
            misses += 1;
        }
        match f.kind {
            0 => f.body[0] += 1,
            1 => f.body[3] ^= h,
            2 => f.key[2] = f.key[2].wrapping_add(1),
            3 => f.body[15] = f.body[15].wrapping_mul(3),
            _ => f.hops += 2,
        }
        f.hops += 1;
        f.kind = ((u64::from(f.kind) + (h >> 60)) % 5) as u8;
        let dst = ((h >> 20) % 8) as u32;
        queues[dst as usize].push_back(f);
        heap.push(Reverse((at + 1 + (h & 1023), dst)));
    }
    black_box((misses, queues.len()));
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    #[test]
    fn reference_loop_takes_measurable_time() {
        assert!(super::reference_s() > 0.0);
    }
}
