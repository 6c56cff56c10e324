//! Deterministic, seeded fault injection for inter-node messages.
//!
//! The control plane the FasTrak controller runs over is modelled as a
//! lossless channel by default, but real multi-tenant SDN control channels
//! drop, delay, and duplicate messages, and hardware rule installs fail.
//! This module lets a harness attach a [`FaultLayer`] to the kernel that
//! perturbs the send path *deterministically*: the plane owns a private
//! [`Rng`] stream (seeded from [`FaultConfig::seed`]), so faulted runs are
//! bit-reproducible and runs with all probabilities at zero draw no random
//! numbers at all — attaching a zero-probability plane leaves the event
//! stream identical to not attaching one.
//!
//! Three ingredients:
//!
//! * [`LinkFaults`] — per-(src, dst) drop/delay/duplication probabilities.
//! * [`FaultConfig`] — the seed, a default link spec, per-link overrides,
//!   and scripted rule-install failure windows.
//! * [`FaultLayer`] — the plane plus two event-type-specific hooks
//!   (`classify` selects which events are subject to faults, `duplicate`
//!   clones an event for duplication faults), kept as plain `fn` pointers so
//!   the layer stays `'static` and cheap to consult.
//!
//! Injection happens only on [`crate::kernel::Api::send_at`] (a node sending
//! to *another* node); self-sends (timers) and harness-level
//! [`crate::kernel::Kernel::post`] calls are never faulted.

use crate::chaos::{ChaosConfig, ChaosPlane};
use crate::kernel::NodeId;
use crate::rng::Rng;
use crate::stats::FaultCounters;
use crate::time::{SimDuration, SimTime};
use crate::FxHashMap;

/// Fault probabilities for one directed link (message stream src → dst).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently dropped.
    pub drop: f64,
    /// Probability a delivered message is delayed by an extra
    /// `delay_min..=delay_max` (uniform).
    pub delay: f64,
    /// Minimum extra delay for delayed (and duplicated) messages.
    pub delay_min: SimDuration,
    /// Maximum extra delay for delayed (and duplicated) messages.
    pub delay_max: SimDuration,
    /// Probability a delivered message is delivered twice; the copy arrives
    /// `delay_min..=delay_max` after the original.
    pub duplicate: f64,
}

impl LinkFaults {
    /// A fault-free link (the default everywhere).
    pub const NONE: LinkFaults = LinkFaults {
        drop: 0.0,
        delay: 0.0,
        delay_min: SimDuration::ZERO,
        delay_max: SimDuration::ZERO,
        duplicate: 0.0,
    };

    /// Pure loss at probability `p`, no delay or duplication.
    pub fn loss(p: f64) -> LinkFaults {
        LinkFaults {
            drop: p,
            ..LinkFaults::NONE
        }
    }

    /// True when every probability is zero — the plane skips the link
    /// without drawing any random numbers.
    pub fn is_none(&self) -> bool {
        self.drop <= 0.0 && self.delay <= 0.0 && self.duplicate <= 0.0
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

/// Configuration for a [`FaultPlane`].
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Seed for the plane's private RNG stream. Independent of the kernel
    /// seed so fault decisions never perturb workload randomness.
    pub seed: u64,
    /// Fault spec applied to every link without an explicit override.
    pub default_link: LinkFaults,
    /// Per-directed-link overrides.
    pub links: Vec<((NodeId, NodeId), LinkFaults)>,
    /// Scripted windows `[start, end)` during which hardware rule installs
    /// are forced to fail (consulted by the ToR via
    /// [`crate::kernel::Api::fault_forces_install_failure`]). Checked
    /// against the clock only — no randomness involved.
    pub install_fail_windows: Vec<(SimTime, SimTime)>,
    /// Scripted component-lifecycle outages (ToR reboots, SR-IOV failures,
    /// link flaps, controller restarts) — see [`crate::chaos`]. Clock-driven
    /// like the install windows, so chaos scripts never perturb the
    /// probabilistic fault RNG stream.
    pub chaos: ChaosConfig,
}

/// What the plane decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver unchanged.
    Deliver,
    /// Silently drop.
    Drop,
    /// Deliver with this extra delay on top of the scheduled time.
    Delay(SimDuration),
    /// Deliver on time, plus a duplicate copy this much later.
    DeliverAndDuplicate(SimDuration),
}

/// The seeded fault decision engine. Owned by the kernel (inside a
/// [`FaultLayer`]); experiments read [`FaultPlane::stats`] afterwards.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    rng: Rng,
    default_link: LinkFaults,
    links: FxHashMap<(NodeId, NodeId), LinkFaults>,
    install_fail_windows: Vec<(SimTime, SimTime)>,
    /// Every link spec is all-zero: link-fault decisions can never fire, so
    /// the per-message hook short-circuits before any lookup or RNG draw.
    /// Precomputed because the hook sits on the kernel's send hot path.
    idle: bool,
    /// Outcome counters (inspected/dropped/delayed/duplicated/forced
    /// install failures).
    pub stats: FaultCounters,
    /// The component-lifecycle outage engine (see [`crate::chaos`]). An
    /// empty script is idle and costs nothing on the send path.
    pub chaos: ChaosPlane,
}

impl FaultPlane {
    /// Build a plane from its configuration.
    pub fn new(cfg: FaultConfig) -> FaultPlane {
        let idle = cfg.default_link.is_none() && cfg.links.iter().all(|(_, l)| l.is_none());
        FaultPlane {
            rng: Rng::new(cfg.seed),
            default_link: cfg.default_link,
            links: cfg.links.into_iter().collect(),
            install_fail_windows: cfg.install_fail_windows,
            idle,
            stats: FaultCounters::default(),
            chaos: ChaosPlane::new(cfg.chaos),
        }
    }

    /// True when no link-fault probability anywhere is non-zero (scripted
    /// install-failure windows may still be active).
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.idle
    }

    fn spec_for(&self, src: NodeId, dst: NodeId) -> LinkFaults {
        *self.links.get(&(src, dst)).unwrap_or(&self.default_link)
    }

    /// Decide the fate of one message on link src → dst.
    ///
    /// Decisions are mutually exclusive and sampled in drop → delay →
    /// duplicate order; a message already chosen for drop is never also
    /// delayed, and so on. A link whose spec [`LinkFaults::is_none`]
    /// returns [`FaultDecision::Deliver`] without touching the RNG.
    pub fn decide(&mut self, src: NodeId, dst: NodeId) -> FaultDecision {
        if self.idle {
            return FaultDecision::Deliver;
        }
        let spec = self.spec_for(src, dst);
        if spec.is_none() {
            return FaultDecision::Deliver;
        }
        self.stats.inspected += 1;
        if spec.drop > 0.0 && self.rng.chance(spec.drop) {
            self.stats.dropped += 1;
            return FaultDecision::Drop;
        }
        if spec.delay > 0.0 && self.rng.chance(spec.delay) {
            self.stats.delayed += 1;
            return FaultDecision::Delay(self.extra_delay(&spec));
        }
        if spec.duplicate > 0.0 && self.rng.chance(spec.duplicate) {
            self.stats.duplicated += 1;
            return FaultDecision::DeliverAndDuplicate(self.extra_delay(&spec));
        }
        FaultDecision::Deliver
    }

    fn extra_delay(&mut self, spec: &LinkFaults) -> SimDuration {
        let (lo, hi) = (spec.delay_min.0, spec.delay_max.0);
        if hi <= lo {
            return SimDuration(lo);
        }
        SimDuration(lo + self.rng.below(hi - lo + 1))
    }

    /// True when a scripted failure window covers `now`: the hardware must
    /// reject the rule install. Purely clock-driven (no RNG), so scripted
    /// windows compose with probabilistic link faults without perturbing
    /// their random stream.
    pub fn install_should_fail(&mut self, now: SimTime) -> bool {
        let forced = self
            .install_fail_windows
            .iter()
            .any(|&(start, end)| now >= start && now < end);
        if forced {
            self.stats.forced_install_failures += 1;
        }
        forced
    }
}

/// A [`FaultPlane`] plus the event-type-specific hooks the kernel needs:
/// which events are fault candidates, and how to clone one for duplication.
/// Plain `fn` pointers keep the layer `Copy`-cheap and `'static`.
#[derive(Clone)]
pub struct FaultLayer<E> {
    /// The decision engine.
    pub plane: FaultPlane,
    /// True when this event is subject to fault injection (e.g. only
    /// control-plane messages).
    pub classify: fn(&E) -> bool,
    /// Clone an event for a duplication fault. Returning `None` opts the
    /// event out of duplication (it is still delivered once).
    pub duplicate: fn(&E) -> Option<E>,
    /// True when this event is a data-plane frame — the event class the
    /// chaos plane blackholes during ToR outages and link flaps. Control
    /// messages and timers are never chaos-blocked (the management network
    /// is out of band). Defaults to "nothing is a frame".
    pub is_frame: fn(&E) -> bool,
}

impl<E> FaultLayer<E> {
    /// Build a layer from a config and the two event hooks. The frame
    /// classifier defaults to "nothing is a frame"; harnesses that script
    /// component outages attach one via [`FaultLayer::with_frame_classifier`].
    pub fn new(cfg: FaultConfig, classify: fn(&E) -> bool, duplicate: fn(&E) -> Option<E>) -> Self {
        FaultLayer {
            plane: FaultPlane::new(cfg),
            classify,
            duplicate,
            is_frame: |_| false,
        }
    }

    /// Attach the data-plane frame classifier consulted by the chaos plane.
    pub fn with_frame_classifier(mut self, is_frame: fn(&E) -> bool) -> Self {
        self.is_frame = is_frame;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(p: f64, seed: u64) -> FaultPlane {
        FaultPlane::new(FaultConfig {
            seed,
            default_link: LinkFaults::loss(p),
            ..FaultConfig::default()
        })
    }

    #[test]
    fn zero_probability_never_draws() {
        let mut p = lossy(0.0, 42);
        for _ in 0..1000 {
            assert_eq!(p.decide(0, 1), FaultDecision::Deliver);
        }
        assert_eq!(p.stats.inspected, 0, "p=0 links must not even be counted");
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let mut p = lossy(0.1, 7);
        for _ in 0..10_000 {
            p.decide(0, 1);
        }
        assert_eq!(p.stats.inspected, 10_000);
        let rate = p.stats.dropped as f64 / 10_000.0;
        assert!((rate - 0.1).abs() < 0.02, "drop rate {rate} far from 0.1");
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let run = |seed| {
            let mut p = lossy(0.3, seed);
            (0..100).map(|_| p.decide(0, 1)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should diverge");
    }

    #[test]
    fn per_link_overrides_beat_default() {
        let mut p = FaultPlane::new(FaultConfig {
            seed: 1,
            default_link: LinkFaults::NONE,
            links: vec![((2, 3), LinkFaults::loss(1.0))],
            ..FaultConfig::default()
        });
        assert_eq!(p.decide(0, 1), FaultDecision::Deliver);
        assert_eq!(p.decide(3, 2), FaultDecision::Deliver);
        assert_eq!(p.decide(2, 3), FaultDecision::Drop);
    }

    #[test]
    fn delay_faults_stay_in_range() {
        let mut p = FaultPlane::new(FaultConfig {
            seed: 9,
            default_link: LinkFaults {
                delay: 1.0,
                delay_min: SimDuration(10),
                delay_max: SimDuration(20),
                ..LinkFaults::NONE
            },
            ..FaultConfig::default()
        });
        for _ in 0..1000 {
            match p.decide(0, 1) {
                FaultDecision::Delay(d) => assert!((10..=20).contains(&d.0), "delay {d:?}"),
                other => panic!("expected Delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn install_fail_windows_are_clock_driven() {
        let mut p = FaultPlane::new(FaultConfig {
            seed: 1,
            install_fail_windows: vec![(SimTime(10), SimTime(20)), (SimTime(50), SimTime(60))],
            ..FaultConfig::default()
        });
        assert!(!p.install_should_fail(SimTime(9)));
        assert!(p.install_should_fail(SimTime(10)));
        assert!(p.install_should_fail(SimTime(19)));
        assert!(!p.install_should_fail(SimTime(20)));
        assert!(p.install_should_fail(SimTime(55)));
        assert_eq!(p.stats.forced_install_failures, 3);
    }
}
