//! What the controller believes about the ToR's hardware path: is it
//! reachable (liveness probes), which boot it is on (a generation bump
//! proves the table was wiped), and has it been failing installs (cooldown).
//! The one question the orchestrator asks is [`TorHealth::offloads_allowed`].

use fastrak_net::ctrl::CtrlRequest;
use fastrak_sim::time::SimTime;

use super::{Cx, Timer, Xids, HW_COOLDOWN, HW_FAILURE_THRESHOLD, INSTALL_TIMEOUT};

#[derive(Clone, Default)]
pub(crate) struct TorHealth {
    /// Highest ToR boot generation observed (probe replies and rule dumps
    /// carry it).
    generation: u64,
    /// The ToR is believed down (probe Error / timeout threshold) until a
    /// probe is answered again.
    down: bool,
    /// xid of the outstanding liveness probe.
    probe: Option<u64>,
    /// Unanswered probes in a row; resets on any reply.
    probe_failures: u32,
    /// Install failures in a row; resets on any Ack.
    install_failures: u32,
    /// While in the future, installs are not attempted (traffic stays on
    /// the software path).
    suspended_until: Option<SimTime>,
}

impl TorHealth {
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    pub(crate) fn is_down(&self) -> bool {
        self.down
    }

    pub(crate) fn offloads_allowed(&self, now: SimTime) -> bool {
        !self.down && self.suspended_until.is_none_or(|t| now >= t)
    }

    pub(crate) fn install_ok(&mut self) {
        self.install_failures = 0;
    }

    /// Count one install failure; past the threshold, suspend offloads for
    /// the cooldown (graceful degradation to the software path — demand
    /// keeps being served via the vswitch).
    pub(crate) fn install_failed(&mut self, cx: &mut Cx<'_>) {
        self.install_failures += 1;
        if self.install_failures >= HW_FAILURE_THRESHOLD {
            self.install_failures = 0;
            self.suspended_until = Some(cx.now + HW_COOLDOWN);
            cx.inc(cx.c.hw_suspensions);
        }
    }

    /// The probe period elapsed: probe, unless one is still outstanding.
    pub(crate) fn probe(&mut self, xids: &mut Xids, cx: &mut Cx<'_>) {
        if self.probe.is_some() {
            return;
        }
        let xid = xids.next();
        cx.query(CtrlRequest::Probe { xid });
        cx.arm(INSTALL_TIMEOUT, Timer::ProbeTimeout(xid));
        self.probe = Some(xid);
    }

    /// A probe's deadline passed. A timeout for a probe that was already
    /// answered or superseded is ignored.
    pub(crate) fn on_probe_timeout(&mut self, xid: u64, cx: &mut Cx<'_>) {
        if self.probe != Some(xid) {
            return;
        }
        self.probe = None;
        self.probe_failures += 1;
        cx.inc(cx.c.chaos_probe_timeouts);
        if self.probe_failures >= HW_FAILURE_THRESHOLD {
            self.down = true;
        }
    }

    /// An Error reply names `xid`. If it answers the outstanding probe it is
    /// the ToR agent itself saying "rebooting": down immediately, no
    /// timeout threshold needed. Returns whether the Error was the probe's.
    pub(crate) fn on_probe_error(&mut self, xid: u64, cx: &mut Cx<'_>) -> bool {
        if !self.answered(xid, cx) {
            return false;
        }
        self.down = true;
        true
    }

    /// A probe reply: the ToR is up. Returns whether it also revealed a
    /// reboot. A reply to a superseded or pre-restart probe is ignored.
    pub(crate) fn on_probe_reply(&mut self, xid: u64, generation: u64, cx: &mut Cx<'_>) -> bool {
        if !self.answered(xid, cx) {
            return false;
        }
        self.down = false;
        self.observe_generation(generation, cx)
    }

    /// If `xid` is the outstanding probe, settle it.
    fn answered(&mut self, xid: u64, cx: &mut Cx<'_>) -> bool {
        if self.probe != Some(xid) {
            return false;
        }
        self.probe = None;
        cx.disarm(Timer::ProbeTimeout(xid));
        self.probe_failures = 0;
        true
    }

    /// A reply carried the ToR's boot generation. A newer one means the
    /// hardware table was wiped by a reboot: count it and return true (the
    /// caller decides whether to re-sweep).
    pub(crate) fn observe_generation(&mut self, generation: u64, cx: &mut Cx<'_>) -> bool {
        if generation <= self.generation {
            return false;
        }
        self.generation = generation;
        cx.inc(cx.c.chaos_tor_reboots_seen);
        true
    }

    /// Take a generation as baseline without calling it a reboot.
    pub(crate) fn adopt_generation(&mut self, generation: u64) {
        self.generation = self.generation.max(generation);
    }

    /// Controller restart: beliefs die with the process. The generation
    /// stays — it is re-adopted from the recovery dump, and a stale dump
    /// must keep being refused meanwhile.
    pub(crate) fn reset(&mut self, cx: &mut Cx<'_>) {
        if let Some(xid) = self.probe {
            cx.disarm(Timer::ProbeTimeout(xid));
        }
        *self = TorHealth {
            generation: self.generation,
            ..TorHealth::default()
        };
    }

    #[cfg(test)]
    pub(crate) fn awaits_probe(&self) -> bool {
        self.probe.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::Bench;
    use super::super::CtrlOut;
    use super::*;
    use fastrak_sim::time::SimDuration;

    fn probed(b: &mut Bench, h: &mut TorHealth, xids: &mut Xids) -> u64 {
        h.probe(xids, &mut b.cx());
        let [CtrlOut::ToTor(_, CtrlRequest::Probe { xid }), CtrlOut::Arm(_, Timer::ProbeTimeout(t))] =
            b.out[..]
        else {
            panic!("expected a probe and its deadline, got {:?}", b.out)
        };
        assert_eq!(xid, t);
        xid
    }

    #[test]
    fn one_probe_outstanding_at_a_time() {
        let (mut b, mut h, mut xids) = (Bench::new(), TorHealth::default(), Xids(1));
        probed(&mut b, &mut h, &mut xids);
        h.probe(&mut xids, &mut b.cx());
        assert!(b.out.is_empty(), "the period elapsing again sends nothing");
    }

    #[test]
    fn an_error_to_the_probe_marks_down_at_once_and_any_other_error_is_not_ours() {
        let (mut b, mut h, mut xids) = (Bench::new(), TorHealth::default(), Xids(1));
        let xid = probed(&mut b, &mut h, &mut xids);
        assert!(!h.on_probe_error(xid + 1, &mut b.cx()));
        assert!(!h.is_down() && b.out.is_empty());
        assert!(h.on_probe_error(xid, &mut b.cx()));
        assert_eq!(b.out, [CtrlOut::Disarm(Timer::ProbeTimeout(xid))]);
        assert!(h.is_down() && !h.offloads_allowed(b.now));
        // The deadline of the answered probe fires anyway in some orders.
        h.on_probe_timeout(xid, &mut b.cx());
        assert_eq!(b.count("ctrl.chaos.probe_timeouts"), 0);
    }

    #[test]
    fn three_silent_probes_mark_down_and_one_reply_brings_it_back() {
        let (mut b, mut h, mut xids) = (Bench::new(), TorHealth::default(), Xids(1));
        for n in 1..=HW_FAILURE_THRESHOLD {
            let xid = probed(&mut b, &mut h, &mut xids);
            h.on_probe_timeout(xid, &mut b.cx());
            assert_eq!(h.is_down(), n == HW_FAILURE_THRESHOLD);
        }
        let xid = probed(&mut b, &mut h, &mut xids);
        assert!(!h.on_probe_reply(xid, 0, &mut b.cx()), "same boot");
        assert!(!h.is_down() && h.offloads_allowed(b.now));
    }

    #[test]
    fn a_reply_to_a_superseded_probe_is_ignored_and_a_newer_boot_is_a_reboot_once() {
        let (mut b, mut h, mut xids) = (Bench::new(), TorHealth::default(), Xids(1));
        let old = probed(&mut b, &mut h, &mut xids);
        h.on_probe_timeout(old, &mut b.cx());
        let xid = probed(&mut b, &mut h, &mut xids);
        assert!(!h.on_probe_reply(old, 5, &mut b.cx()));
        assert_eq!(h.generation(), 0, "a stray reply teaches nothing");
        assert!(h.on_probe_reply(xid, 1, &mut b.cx()));
        assert!(!h.observe_generation(1, &mut b.cx()));
        assert_eq!(b.count("ctrl.chaos.tor_reboots_seen"), 1);
    }

    #[test]
    fn the_third_install_failure_in_a_row_suspends_for_the_cooldown() {
        let (mut b, mut h) = (Bench::new(), TorHealth::default());
        h.install_failed(&mut b.cx());
        h.install_failed(&mut b.cx());
        h.install_ok();
        h.install_failed(&mut b.cx());
        h.install_failed(&mut b.cx());
        assert!(h.offloads_allowed(b.now), "an Ack resets the run");
        h.install_failed(&mut b.cx());
        assert_eq!(b.count("ctrl.hw_suspensions"), 1);
        assert!(!h.offloads_allowed(b.now + SimDuration::from_millis(1_999)));
        assert!(h.offloads_allowed(b.now + HW_COOLDOWN));
    }

    #[test]
    fn reset_keeps_only_the_generation() {
        let (mut b, mut h, mut xids) = (Bench::new(), TorHealth::default(), Xids(1));
        h.observe_generation(2, &mut b.cx());
        let xid = probed(&mut b, &mut h, &mut xids);
        h.on_probe_error(xid, &mut b.cx());
        let xid = probed(&mut b, &mut h, &mut xids);
        h.reset(&mut b.cx());
        assert_eq!(b.out, [CtrlOut::Disarm(Timer::ProbeTimeout(xid))]);
        assert!(!h.is_down() && !h.awaits_probe());
        assert_eq!(h.generation(), 2);
        h.adopt_generation(1);
        assert_eq!(h.generation(), 2, "adoption never goes backwards");
    }
}
