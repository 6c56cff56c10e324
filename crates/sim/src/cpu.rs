//! Logical-CPU pool model.
//!
//! The paper's central cost argument is that hypervisor rule processing burns
//! host CPU on a per-packet basis (§3: 96% of host CPU in network I/O for
//! baseline OVS, vs 59% idle with SR-IOV). We model a server's logical CPUs
//! as a multi-server FIFO queue with *analytic enqueue*: submitting a work
//! item immediately returns the simulated time at which it will complete,
//! given everything already queued. The caller schedules its continuation at
//! that time. A pool has 1–16 logical CPUs, so their next-free times sit
//! in a flat array and a submission is one linear pass for the earliest:
//! O(C), zero allocation, and cheaper at these sizes than a heap's pop and
//! push.
//!
//! Utilization accounting mirrors the paper's "# of logical CPUs for test"
//! metric: `busy_time / elapsed` is exactly the average number of busy
//! logical CPUs over the window.

use crate::time::{SimDuration, SimTime};

/// A pool of identical logical CPUs servicing FIFO work.
#[derive(Debug, Clone)]
pub struct CpuPool {
    /// `free_at[i]` is when CPU *slot* i becomes free. Slots are
    /// interchangeable: only the multiset of times matters.
    free_at: Vec<SimTime>,
    busy: SimDuration,
    window_start: SimTime,
    window_busy: SimDuration,
    completed: u64,
}

impl CpuPool {
    /// A pool with `n_cpus` logical CPUs (must be > 0).
    pub fn new(n_cpus: usize) -> Self {
        assert!(n_cpus > 0, "CPU pool needs at least one CPU");
        CpuPool {
            free_at: vec![SimTime::ZERO; n_cpus],
            busy: SimDuration::ZERO,
            window_start: SimTime::ZERO,
            window_busy: SimDuration::ZERO,
            completed: 0,
        }
    }

    /// The slot that frees up first.
    fn earliest(&mut self) -> &mut SimTime {
        self.free_at
            .iter_mut()
            .min()
            .expect("pool always has slots")
    }

    /// Submit `cost` of CPU work at time `now`; returns the completion time.
    ///
    /// Work starts on the earliest-free CPU (or immediately if one is idle)
    /// and runs non-preemptively for `cost`.
    pub fn submit(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let slot = self.earliest();
        let done = (*slot).max(now) + cost;
        *slot = done;
        self.busy += cost;
        self.window_busy += cost;
        self.completed += 1;
        done
    }

    /// Like [`CpuPool::submit`] but refuses work that could not *start*
    /// within `max_queue_delay`; returns `None` in that case (models a
    /// bounded softirq backlog that drops instead of queueing unboundedly).
    pub fn try_submit(
        &mut self,
        now: SimTime,
        cost: SimDuration,
        max_queue_delay: SimDuration,
    ) -> Option<SimTime> {
        if *self.earliest() > now + max_queue_delay {
            return None;
        }
        Some(self.submit(now, cost))
    }

    /// Total CPU time consumed since construction.
    pub fn total_busy(&self) -> SimDuration {
        self.busy
    }

    /// Number of completed work items.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Begin a measurement window at `now` (resets windowed busy time).
    pub fn begin_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.window_busy = SimDuration::ZERO;
    }

    /// Average number of busy logical CPUs over the current window, i.e. the
    /// paper's "# of CPUs for test". Returns 0 for an empty window.
    pub fn cpus_used(&self, now: SimTime) -> f64 {
        let elapsed = now.since(self.window_start);
        if elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.window_busy.as_secs_f64() / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: SimDuration = SimDuration(1_000);

    #[test]
    fn idle_pool_starts_immediately() {
        let mut p = CpuPool::new(2);
        let done = p.submit(SimTime::from_micros(10), US);
        assert_eq!(done, SimTime::from_micros(11));
    }

    #[test]
    fn work_queues_when_all_cpus_busy() {
        let mut p = CpuPool::new(1);
        let t0 = SimTime::ZERO;
        let d1 = p.submit(t0, US * 5);
        assert_eq!(d1, SimTime::from_micros(5));
        // Second item must wait for the first.
        let d2 = p.submit(t0, US * 5);
        assert_eq!(d2, SimTime::from_micros(10));
    }

    #[test]
    fn two_cpus_run_in_parallel() {
        let mut p = CpuPool::new(2);
        let t0 = SimTime::ZERO;
        assert_eq!(p.submit(t0, US * 5), SimTime::from_micros(5));
        assert_eq!(p.submit(t0, US * 5), SimTime::from_micros(5));
        // Third queues behind whichever frees first.
        assert_eq!(p.submit(t0, US * 5), SimTime::from_micros(10));
    }

    #[test]
    fn idle_gaps_are_not_counted_busy() {
        let mut p = CpuPool::new(1);
        p.submit(SimTime::ZERO, US);
        // Gap from 1us to 100us.
        p.submit(SimTime::from_micros(100), US);
        assert_eq!(p.total_busy(), US * 2);
    }

    #[test]
    fn utilization_window() {
        let mut p = CpuPool::new(4);
        p.begin_window(SimTime::ZERO);
        // 2 CPUs busy for the whole 10us window.
        p.submit(SimTime::ZERO, US * 10);
        p.submit(SimTime::ZERO, US * 10);
        let used = p.cpus_used(SimTime::from_micros(10));
        assert!((used - 2.0).abs() < 1e-9, "cpus_used = {used}");
    }

    #[test]
    fn window_reset_clears_history() {
        let mut p = CpuPool::new(1);
        p.submit(SimTime::ZERO, US * 10);
        p.begin_window(SimTime::from_micros(10));
        assert_eq!(p.cpus_used(SimTime::from_micros(20)), 0.0);
    }

    #[test]
    fn try_submit_rejects_deep_backlog() {
        let mut p = CpuPool::new(1);
        p.submit(SimTime::ZERO, US * 100);
        // Would have to wait 100us; budget is 10us.
        assert!(p.try_submit(SimTime::ZERO, US, US * 10).is_none());
        // Accepted with a big enough budget.
        assert!(p.try_submit(SimTime::ZERO, US, US * 100).is_some());
    }

    #[test]
    fn empty_window_reports_zero() {
        let p = CpuPool::new(1);
        assert_eq!(p.cpus_used(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_rejected() {
        let _ = CpuPool::new(0);
    }
}
