//! Background load generator: the IOzone filesystem benchmark the paper runs
//! alongside memcached (§6.1.1) to show the SR-IOV benefit persists under
//! competing load.

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_sim::time::SimDuration;
use fastrak_transport::stack::SockEvent;

const TIMER_TICK: u64 = 1;

/// IOzone-like disk benchmark: periodic bursts of vCPU work (buffer cache
/// churn + IO submission) with idle gaps for disk waits.
#[derive(Clone)]
pub struct IoZone {
    /// Tick interval.
    pub interval: SimDuration,
    /// vCPU work per tick.
    pub work_per_tick: SimDuration,
    /// Ticks executed.
    pub ticks: u64,
}

impl IoZone {
    /// Defaults: every 1 ms burn 400 µs across the pool (~0.4 vCPU).
    pub fn paper_default() -> IoZone {
        IoZone {
            interval: SimDuration::from_millis(1),
            work_per_tick: SimDuration::from_micros(400),
            ticks: 0,
        }
    }
}

impl GuestApp for IoZone {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        api.set_timer(self.interval, TIMER_TICK);
    }

    fn on_timer(&mut self, tag: u64, api: &mut GuestApi<'_>) {
        if tag == TIMER_TICK {
            self.ticks += 1;
            api.burn_cpu(self.work_per_tick);
            api.set_timer(self.interval, TIMER_TICK);
        }
    }

    fn on_event(&mut self, _ev: SockEvent, _api: &mut GuestApi<'_>) {}
}
