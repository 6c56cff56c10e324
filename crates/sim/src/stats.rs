//! Measurement primitives: counters, rate meters and an HDR-style
//! log-bucketed histogram for latency percentiles.
//!
//! The experiment harness reports the same statistics the paper does: mean
//! and 99th-percentile latency (Fig. 3/5), transactions per second, and mean
//! finish times (Tables 1-4). The histogram trades a bounded ~1.6% relative
//! error for O(1) record cost and fixed memory, which is the standard
//! engineering choice (HdrHistogram) for latency capture.

use crate::time::SimTime;

/// The log-bucketed histogram now lives in `fastrak-telemetry` (the metrics
/// registry owns histograms, and telemetry sits below this crate);
/// re-exported so `fastrak_sim::stats::Histogram` keeps working.
pub use fastrak_telemetry::hist::Histogram;

/// Monotonic event counter with byte accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter {
    /// Number of events (e.g. packets).
    pub count: u64,
    /// Accumulated bytes.
    pub bytes: u64,
}

impl Counter {
    /// Record one event carrying `bytes`.
    pub fn add(&mut self, bytes: u64) {
        self.count += 1;
        self.bytes += bytes;
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: Counter) {
        self.count += other.count;
        self.bytes += other.bytes;
    }

    /// Difference since an earlier snapshot (for Δp/Δb rate measurement, the
    /// paper's Measurement Engine primitive).
    pub fn delta(&self, earlier: Counter) -> Counter {
        Counter {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Outcome counters for the fault-injection plane ([`crate::fault`]): how
/// many messages were inspected and what happened to them, plus forced
/// hardware install failures. Experiments surface these next to controller
/// convergence metrics so a run's fault pressure is auditable.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultCounters {
    /// Messages that reached the sampling stage (fault-eligible, on a link
    /// with a non-zero fault probability).
    pub inspected: u64,
    /// Messages silently dropped.
    pub dropped: u64,
    /// Messages delivered with extra delay.
    pub delayed: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Hardware rule installs forced to fail by a scripted window.
    pub forced_install_failures: u64,
}

impl FaultCounters {
    /// Mirror these counters into a telemetry registry under `sim.fault.*`.
    ///
    /// The registry copies are snapshots of this struct (single source of
    /// truth), so `fault_matrix` output and telemetry exports cannot drift.
    pub fn publish_into(&self, reg: &mut fastrak_telemetry::Registry) {
        for (name, v) in [
            ("sim.fault.inspected", self.inspected),
            ("sim.fault.dropped", self.dropped),
            ("sim.fault.delayed", self.delayed),
            ("sim.fault.duplicated", self.duplicated),
            (
                "sim.fault.forced_install_failures",
                self.forced_install_failures,
            ),
        ] {
            let id = reg.counter(name, &[]);
            reg.set_counter(id, v);
        }
    }
}

/// Windowed throughput meter: events/sec and bits/sec over explicit windows.
#[derive(Debug, Clone, Default)]
pub struct MeterRate {
    total: Counter,
    window_start: SimTime,
    window_base: Counter,
}

impl MeterRate {
    /// Record one event carrying `bytes`.
    pub fn add(&mut self, bytes: u64) {
        self.total.add(bytes);
    }

    /// Restart the measurement window at `now`.
    pub fn begin_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.window_base = self.total;
    }

    /// Bits per second over the current window.
    pub fn bits_per_sec(&self, now: SimTime) -> f64 {
        let dt = now.since(self.window_start).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        self.total.delta(self.window_base).bytes as f64 * 8.0 / dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_delta() {
        let mut c = Counter::default();
        c.add(100);
        let snap = c;
        c.add(200);
        c.add(300);
        let d = c.delta(snap);
        assert_eq!(d.count, 2);
        assert_eq!(d.bytes, 500);
    }

    #[test]
    fn meter_rates() {
        let mut m = MeterRate::default();
        m.begin_window(SimTime::ZERO);
        for _ in 0..1000 {
            m.add(1250);
        }
        let now = SimTime::from_secs(1);
        assert!((m.bits_per_sec(now) - 10_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn meter_window_isolates() {
        let mut m = MeterRate::default();
        for _ in 0..500 {
            m.add(1);
        }
        m.begin_window(SimTime::from_secs(1));
        for _ in 0..100 {
            m.add(1);
        }
        assert!((m.bits_per_sec(SimTime::from_secs(2)) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn fault_counters_publish_snapshots_into_registry() {
        let mut reg = fastrak_telemetry::Registry::default();
        let mut fc = FaultCounters {
            inspected: 10,
            dropped: 3,
            delayed: 2,
            duplicated: 1,
            forced_install_failures: 4,
        };
        fc.publish_into(&mut reg);
        assert_eq!(reg.counter_by_name("sim.fault.dropped"), Some(3));
        // Re-publishing overwrites (snapshot semantics, no double counting).
        fc.dropped = 5;
        fc.publish_into(&mut reg);
        assert_eq!(reg.counter_by_name("sim.fault.dropped"), Some(5));
        assert_eq!(
            reg.counter_by_name("sim.fault.forced_install_failures"),
            Some(4)
        );
    }
}
