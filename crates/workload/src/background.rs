//! Background load generator: the IOzone filesystem benchmark the paper runs
//! alongside memcached (§6.1.1) to show the SR-IOV benefit persists under
//! competing load.

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_sim::time::SimDuration;
use fastrak_transport::stack::SockEvent;

const TIMER_TICK: u64 = 1;
/// Tick interval.
const INTERVAL: SimDuration = SimDuration::from_millis(1);
/// vCPU work per tick: 400 µs every 1 ms across the pool (~0.4 vCPU).
const WORK_PER_TICK: SimDuration = SimDuration::from_micros(400);

/// IOzone-like disk benchmark: periodic bursts of vCPU work (buffer cache
/// churn + IO submission) with idle gaps for disk waits.
#[derive(Clone)]
pub struct IoZone;

impl GuestApp for IoZone {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        api.set_timer(INTERVAL, TIMER_TICK);
    }

    fn on_timer(&mut self, tag: u64, api: &mut GuestApi<'_>) {
        if tag == TIMER_TICK {
            api.burn_cpu(WORK_PER_TICK);
            api.set_timer(INTERVAL, TIMER_TICK);
        }
    }

    fn on_event(&mut self, _ev: SockEvent, _api: &mut GuestApi<'_>) {}
}
