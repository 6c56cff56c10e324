//! # fastrak-sim
//!
//! Deterministic discrete-event simulation (DES) engine used by the FasTrak
//! reproduction to stand in for the paper's physical testbed (servers, NICs,
//! a ToR switch, and the Linux/kvm/OVS software stack).
//!
//! The engine is deliberately small and fully deterministic:
//!
//! * [`kernel::Kernel`] owns a set of [`kernel::Node`]s (one per physical
//!   server / switch / controller) and a time-ordered event queue. Events are
//!   delivered to one node at a time; nodes interact only through events, so
//!   every run with the same seed replays identically.
//! * [`time`] provides nanosecond-resolution simulated time.
//! * [`rng::Rng`] is a self-contained xoshiro256** PRNG with the handful of
//!   distributions the workloads need (deterministic across platforms, unlike
//!   hashing-based seeds).
//! * [`cpu::CpuPool`] models a pool of logical CPUs as a multi-server FIFO
//!   queue with *analytic enqueue*: callers ask "when will this work
//!   complete?" and schedule their own continuation, which keeps the hot path
//!   allocation-free.
//! * [`tbf::TokenBucket`] models `tc` htb-style rate limiting.
//! * [`stats`] provides counters and an HDR-style log-bucketed histogram for
//!   latency percentiles.
//!
//! The engine is synchronous and single-threaded by design: the paper's
//! experiments need reproducibility and causal ordering far more than wall
//! clock speed, and a single seeded run of the largest experiment finishes in
//! well under a second of host time.

pub mod chaos;
pub mod cpu;
pub mod fault;
pub mod kernel;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod tbf;
pub mod time;
pub mod trace;

pub use chaos::{ChaosConfig, ChaosCounters, ChaosPlane};
pub use cpu::CpuPool;
pub use fault::{FaultConfig, FaultDecision, FaultLayer, FaultPlane, LinkFaults};
// The fast deterministic hasher is defined in `fastrak-telemetry` (the
// bottom of the dependency stack); this is the one path simulator crates
// import it by.
pub use fastrak_telemetry::fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use kernel::{Api, EventHandle, Kernel, Node, NodeId};
pub use rng::Rng;
pub use sched::Calendar;
pub use stats::{Counter, FaultCounters, Histogram, MeterRate};
pub use tbf::TokenBucket;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceRecord, TraceRing};
