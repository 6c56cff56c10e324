//! Component-lifecycle fault injection ("chaos"): scripted outages of whole
//! components, layered under the per-message fault plane of [`crate::fault`].
//!
//! Where [`crate::fault::FaultPlane`] fails individual *messages*
//! (drop/delay/duplicate on control links), the [`ChaosPlane`] fails
//! *components*: a ToR reboots and loses its hardware state, a server's
//! SR-IOV path wedges, a data-plane link flaps, a controller process crashes
//! and restarts. The plane itself only answers clock-driven queries — the
//! component models own their failure semantics (what "rebooted" means for a
//! switch lives in the switch crate) and consult the plane through
//! [`crate::kernel::Api`] accessors, keeping the kernel ignorant of
//! component types.
//!
//! Every query is a pure function of the script and the clock: no randomness
//! is consumed, so a chaos script composes with probabilistic link faults
//! without perturbing their RNG stream, and an empty script ([`idle`]) is
//! short-circuited on the kernel send path — attaching an idle plane leaves
//! the event stream bit-identical to not attaching one (the same contract
//! the zero-probability fault plane honors).
//!
//! [`idle`]: ChaosPlane::is_idle

use crate::kernel::NodeId;
use crate::time::SimTime;

/// Scripted component outages. All windows are half-open `[start, end)`.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// ToR reboots: `(tor node, start, end)`. Data-plane frames to or from
    /// the node are dropped inside the window (ports dark), and the switch
    /// model wipes its hardware rule tables and flow counters when it
    /// observes its boot epoch change. Control messages still flow — the
    /// out-of-band management port stays up — so the switch can reject rule
    /// installs definitively instead of timing them out.
    pub tor_outages: Vec<(NodeId, SimTime, SimTime)>,
    /// SR-IOV failures: `(server node, start, end)`. The server's hardware
    /// path goes dark: VF transmits and receives are dropped at the NIC
    /// until the window closes.
    pub vf_outages: Vec<(NodeId, SimTime, SimTime)>,
    /// Data-plane link flaps: `(a, b, start, end)`. Frames between the two
    /// nodes — both directions — are dropped inside the window.
    pub link_flaps: Vec<(NodeId, NodeId, SimTime, SimTime)>,
    /// Controller crash+restart instants: `(controller node, at)`. The
    /// controller model wipes its volatile state when it observes its
    /// restart epoch change (an instantaneous fail-over to a cold standby
    /// that must rebuild state from the network, not from memory).
    pub controller_restarts: Vec<(NodeId, SimTime)>,
}

impl ChaosConfig {
    /// True when nothing is scripted.
    pub fn is_empty(&self) -> bool {
        self.tor_outages.is_empty()
            && self.vf_outages.is_empty()
            && self.link_flaps.is_empty()
            && self.controller_restarts.is_empty()
    }
}

/// Outcome counters for the chaos plane, published as `sim.chaos.*`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosCounters {
    /// Data-plane frames dropped because an endpoint was dark (ToR outage)
    /// or the link was inside a flap window.
    pub frames_blocked: u64,
}

impl ChaosCounters {
    /// Mirror these counters into a telemetry registry under `sim.chaos.*`
    /// (snapshot semantics, same contract as
    /// [`crate::stats::FaultCounters::publish_into`]).
    pub fn publish_into(&self, reg: &mut fastrak_telemetry::Registry) {
        let id = reg.counter("sim.chaos.frames_blocked", &[]);
        reg.set_counter(id, self.frames_blocked);
    }
}

/// The scripted component-outage engine. Owned by the kernel inside a
/// [`crate::fault::FaultPlane`]; component models query it via
/// [`crate::kernel::Api`].
#[derive(Debug, Clone)]
pub struct ChaosPlane {
    cfg: ChaosConfig,
    /// Nothing scripted: every query short-circuits. Precomputed because
    /// the frame-block hook sits on the kernel's send hot path.
    idle: bool,
    /// Outcome counters (frames blocked by outages/flaps).
    pub stats: ChaosCounters,
}

impl ChaosPlane {
    /// Build a plane from its script.
    pub fn new(cfg: ChaosConfig) -> ChaosPlane {
        let idle = cfg.is_empty();
        ChaosPlane {
            cfg,
            idle,
            stats: ChaosCounters::default(),
        }
    }

    /// True when nothing is scripted — all queries are free.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.idle
    }

    /// Is `node` a ToR currently inside a reboot outage window (ports dark)?
    pub fn tor_dark(&self, node: NodeId, now: SimTime) -> bool {
        !self.idle
            && self
                .cfg
                .tor_outages
                .iter()
                .any(|&(n, start, end)| n == node && now >= start && now < end)
    }

    /// The boot epoch of ToR `node` at `now`: the number of scripted reboots
    /// that have *started*. Epoch 0 is the initial boot; the switch model
    /// wipes hardware state whenever the epoch it observes exceeds the one
    /// it last recorded (the wipe happens at outage start — the moment power
    /// cycles — and the window models the dark time until forwarding
    /// resumes).
    pub fn tor_boot_epoch(&self, node: NodeId, now: SimTime) -> u64 {
        if self.idle {
            return 0;
        }
        self.cfg
            .tor_outages
            .iter()
            .filter(|&&(n, start, _)| n == node && now >= start)
            .count() as u64
    }

    /// Is server `node`'s SR-IOV hardware path currently dark?
    pub fn vf_down(&self, node: NodeId, now: SimTime) -> bool {
        !self.idle
            && self
                .cfg
                .vf_outages
                .iter()
                .any(|&(n, start, end)| n == node && now >= start && now < end)
    }

    /// The restart epoch of controller `node` at `now`: the number of
    /// scripted crash+restart instants that have passed. The controller
    /// model wipes volatile state when the epoch it observes exceeds the
    /// one it last recorded.
    pub fn ctrl_restart_epoch(&self, node: NodeId, now: SimTime) -> u64 {
        if self.idle {
            return 0;
        }
        self.cfg
            .controller_restarts
            .iter()
            .filter(|&&(n, at)| n == node && now >= at)
            .count() as u64
    }

    /// Should a data-plane frame from `src` to `dst` be dropped at `now`?
    /// True when either endpoint is a dark ToR or the (unordered) pair is
    /// inside a flap window. Counts blocked frames.
    pub fn frame_blocked(&mut self, src: NodeId, dst: NodeId, now: SimTime) -> bool {
        if self.idle {
            return false;
        }
        let blocked = self.tor_dark(src, now)
            || self.tor_dark(dst, now)
            || self.cfg.link_flaps.iter().any(|&(a, b, start, end)| {
                ((a == src && b == dst) || (a == dst && b == src)) && now >= start && now < end
            });
        if blocked {
            self.stats.frames_blocked += 1;
        }
        blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_script_is_idle_and_silent() {
        let mut p = ChaosPlane::new(ChaosConfig::default());
        assert!(p.is_idle());
        assert!(!p.tor_dark(0, SimTime(50)));
        assert!(!p.vf_down(1, SimTime(50)));
        assert!(!p.frame_blocked(0, 1, SimTime(50)));
        assert_eq!(p.tor_boot_epoch(0, SimTime::from_secs(100)), 0);
        assert_eq!(p.ctrl_restart_epoch(0, SimTime::from_secs(100)), 0);
        assert_eq!(p.stats.frames_blocked, 0);
    }

    #[test]
    fn tor_outage_windows_are_half_open() {
        let mut p = ChaosPlane::new(ChaosConfig {
            tor_outages: vec![(3, SimTime(100), SimTime(200))],
            ..ChaosConfig::default()
        });
        assert!(!p.is_idle());
        assert!(!p.tor_dark(3, SimTime(99)));
        assert!(p.tor_dark(3, SimTime(100)));
        assert!(p.tor_dark(3, SimTime(199)));
        assert!(!p.tor_dark(3, SimTime(200)));
        assert!(!p.tor_dark(4, SimTime(150)), "other nodes unaffected");
        // Frames touching the dark ToR are blocked in both directions.
        assert!(p.frame_blocked(0, 3, SimTime(150)));
        assert!(p.frame_blocked(3, 0, SimTime(150)));
        assert!(!p.frame_blocked(0, 1, SimTime(150)));
        assert_eq!(p.stats.frames_blocked, 2);
    }

    #[test]
    fn boot_epoch_counts_started_outages() {
        let p = ChaosPlane::new(ChaosConfig {
            tor_outages: vec![
                (3, SimTime(100), SimTime(200)),
                (3, SimTime(500), SimTime(600)),
                (7, SimTime(50), SimTime(60)),
            ],
            ..ChaosConfig::default()
        });
        assert_eq!(p.tor_boot_epoch(3, SimTime(99)), 0);
        assert_eq!(p.tor_boot_epoch(3, SimTime(100)), 1);
        assert_eq!(p.tor_boot_epoch(3, SimTime(450)), 1);
        assert_eq!(p.tor_boot_epoch(3, SimTime(500)), 2);
        assert_eq!(p.tor_boot_epoch(7, SimTime(500)), 1);
    }

    #[test]
    fn link_flaps_block_both_directions() {
        let mut p = ChaosPlane::new(ChaosConfig {
            link_flaps: vec![(1, 2, SimTime(10), SimTime(20))],
            ..ChaosConfig::default()
        });
        assert!(p.frame_blocked(1, 2, SimTime(15)));
        assert!(p.frame_blocked(2, 1, SimTime(15)));
        assert!(!p.frame_blocked(1, 2, SimTime(20)));
        assert!(!p.frame_blocked(1, 3, SimTime(15)));
    }

    #[test]
    fn vf_and_restart_queries_are_scoped() {
        let p = ChaosPlane::new(ChaosConfig {
            vf_outages: vec![(4, SimTime(10), SimTime(30))],
            controller_restarts: vec![(9, SimTime(25)), (9, SimTime(75))],
            ..ChaosConfig::default()
        });
        assert!(p.vf_down(4, SimTime(10)));
        assert!(!p.vf_down(4, SimTime(30)));
        assert!(!p.vf_down(5, SimTime(15)));
        assert_eq!(p.ctrl_restart_epoch(9, SimTime(24)), 0);
        assert_eq!(p.ctrl_restart_epoch(9, SimTime(25)), 1);
        assert_eq!(p.ctrl_restart_epoch(9, SimTime(75)), 2);
        assert_eq!(p.ctrl_restart_epoch(8, SimTime(75)), 0);
    }

    #[test]
    fn counters_publish_snapshots() {
        let mut reg = fastrak_telemetry::Registry::default();
        let c = ChaosCounters { frames_blocked: 11 };
        c.publish_into(&mut reg);
        assert_eq!(reg.counter_by_name("sim.chaos.frames_blocked"), Some(11));
    }
}
