//! # fastrak-telemetry
//!
//! The reproduction's observability plane. FasTrak is measurement-driven —
//! the Measurement Engine samples per-flow Δp/Δb and the controller acts on
//! scores — so the simulator gets the same treatment: a first-class,
//! deterministic telemetry subsystem instead of ad-hoc counter structs.
//!
//! Four parts, all dependency-free and usable from any crate in the
//! workspace (this crate sits *below* `fastrak-sim`):
//!
//! * [`registry`] — a typed metrics registry. Hierarchical dotted names plus
//!   static label sets are interned **at registration** into dense ids
//!   ([`CounterId`] / [`GaugeId`] / [`HistId`]), so a hot-path record is an
//!   array index, not a hash lookup.
//! * [`span`] — sim-time span tracing for flow lifecycles (software path →
//!   offload transaction → hardware path → demote), with interned component
//!   ids so an enabled trace never allocates per record.
//! * [`recorder`] — a decision audit log (every offload/demote with score,
//!   FPS split, and fast-path occupancy).
//! * [`export`] — JSON-lines snapshot, Prometheus-style text, and Chrome
//!   trace-event JSON (Perfetto-loadable) renderers.
//!
//! ## Zero-cost contract
//!
//! A default-constructed [`Telemetry`] must cost nothing on the packet path
//! and must never perturb the event stream. Concretely:
//!
//! * nothing in this crate schedules events or consumes simulation RNG;
//! * spans and the audit log are off by default behind a precomputed
//!   `enabled()` branch (the fault plane's `idle` precedent);
//! * registered counters are plain array slots — components that mirror
//!   their own cheap counters into the registry do so at *snapshot* time
//!   (pull model), not per packet.
//!
//! The perf gate holds `telemetry_disabled_kernel_100k` within noise of the
//! hook-free kernel bench, and the determinism suite asserts bit-identical
//! runs with telemetry off.

pub mod export;
pub mod fxhash;
pub mod hist;
pub mod intern;
pub mod recorder;
pub mod registry;
pub mod span;

pub use hist::Histogram;
pub use intern::{Interner, Istr};
pub use recorder::{AuditLog, DecisionKind, DecisionRecord};
pub use registry::{CounterId, GaugeId, HistId, Registry};
pub use span::{CompId, Span, SpanId, SpanLog};

/// The full observability plane, as embedded in the simulation context.
///
/// `Default` yields a fully disabled plane: empty registry, spans off,
/// audit log off.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Typed metrics registry (counters / gauges / histograms).
    pub registry: Registry,
    /// Flow-lifecycle span log (sim-time, interned components).
    pub spans: SpanLog,
    /// Offload/demote decision audit log.
    pub audit: AuditLog,
}

impl Telemetry {
    /// Enable every recording part (registry needs no switch: it only costs
    /// what callers register).
    pub fn enable_all(&mut self) {
        self.spans.set_enabled(true);
        self.audit.set_enabled(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_disabled() {
        let t = Telemetry::default();
        assert!(!t.spans.enabled());
        assert!(!t.audit.enabled());
        assert!(t.registry.is_empty());
    }

    #[test]
    fn enable_all_flips_every_part() {
        let mut t = Telemetry::default();
        t.enable_all();
        assert!(t.spans.enabled());
        assert!(t.audit.enabled());
    }
}
