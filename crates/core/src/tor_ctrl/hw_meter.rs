//! Epoch-pair meter over the ToR's per-rule cumulative counters, plus the
//! blackhole evidence gathered from them. The Δcounter and history/median
//! logic is [`crate::meter`]'s — shared with the per-server measurement
//! engine so the two planes cannot drift, and so a rule removed +
//! reinstalled (GC/reconciliation churn restarts its counters) re-baselines
//! instead of reading as a zero-rate epoch.

use fastrak_net::ctrl::{CtrlRequest, TorStatEntry};
use fastrak_net::flow::FlowAggregate;
use fastrak_sim::{FxHashMap, FxHashSet};

use super::ledger::RuleId;
use super::{Cx, Xids};
use crate::me::AggDemand;
use crate::meter::{self, RateWindow};

/// The two counter samples of an epoch, `t` apart.
#[derive(Clone, Copy)]
pub(crate) enum Phase {
    A,
    B,
}

#[derive(Clone, Default)]
pub(crate) struct HwMeter {
    /// xid of the awaited sample-A and sample-B reply. A reply naming
    /// neither (a duplicate, or one addressed to a dead incarnation) is
    /// dropped: it must not close an epoch a second time.
    awaited: [Option<u64>; 2],
    sample_a: FxHashMap<FlowAggregate, (u64, u64)>,
    /// Per-aggregate rate history.
    hist: FxHashMap<FlowAggregate, RateWindow>,
    /// Rates measured in the most recently closed epoch only (cleared each
    /// sample B). Blackhole detection needs "did the counters move *this*
    /// epoch", which the history medians deliberately smooth away.
    last_rates: FxHashMap<FlowAggregate, (f64, f64)>,
    cap: usize,
    /// Consecutive measured zero-rate epochs per offloaded aggregate.
    zero_epochs: FxHashMap<FlowAggregate, u32>,
    /// Offloaded aggregates that have carried hardware traffic at least
    /// once — only those can be declared blackholed (a rule that never
    /// carried traffic has nothing to lose).
    hw_active: FxHashSet<FlowAggregate>,
}

fn fold(
    entries: &[TorStatEntry],
    spec_to_agg: &FxHashMap<RuleId, FlowAggregate>,
) -> FxHashMap<FlowAggregate, (u64, u64)> {
    let mut m: FxHashMap<FlowAggregate, (u64, u64)> = FxHashMap::default();
    for e in entries {
        if let Some(agg) = spec_to_agg.get(&(e.tenant, e.spec)) {
            let (p, b) = m.entry(*agg).or_insert((0, 0));
            *p += e.packets;
            *b += e.bytes;
        }
    }
    m
}

impl HwMeter {
    pub(crate) fn new(cap: usize) -> HwMeter {
        HwMeter {
            cap,
            ..HwMeter::default()
        }
    }

    /// Ask the ToR for one sample of its rule counters.
    pub(crate) fn request(&mut self, phase: Phase, xids: &mut Xids, cx: &mut Cx<'_>) {
        let xid = xids.next();
        self.awaited[phase as usize] = Some(xid);
        cx.query(CtrlRequest::DumpFlowStats { xid });
    }

    /// A counter dump arrived. Returns true when it was the awaited sample
    /// B, i.e. a measurement epoch just closed.
    pub(crate) fn on_stats(
        &mut self,
        xid: u64,
        entries: &[TorStatEntry],
        spec_to_agg: &FxHashMap<RuleId, FlowAggregate>,
        gap_secs: f64,
    ) -> bool {
        let Some(phase) = self.awaited.iter().position(|w| *w == Some(xid)) else {
            return false;
        };
        self.awaited[phase] = None;
        let folded = fold(entries, spec_to_agg);
        if phase == Phase::A as usize {
            self.sample_a = folded;
            return false;
        }
        self.last_rates.clear();
        for (agg, cur) in folded {
            // Unmeasurable epochs (no baseline, or counters restarted after
            // a rule reinstall) push nothing; see [`meter::epoch_rates`].
            let baseline = self.sample_a.get(&agg).copied();
            if let Some((pps, bps)) = meter::epoch_rates(baseline, cur, gap_secs) {
                self.hist.entry(agg).or_default().push(pps, bps, self.cap);
                self.last_rates.insert(agg, (pps, bps));
            }
        }
        true
    }

    pub(crate) fn demand(&self, agg: &FlowAggregate) -> Option<AggDemand> {
        self.hist.get(agg)?.demand(*agg)
    }

    /// The aggregate left the fast path: its measurements, and the
    /// blackhole evidence gathered on that offload, are void. (Keeping the
    /// evidence would let a later re-offload start "previously active" with
    /// a stale zero count, and be declared dark while merely idle.)
    pub(crate) fn forget(&mut self, agg: &FlowAggregate) {
        self.hist.remove(agg);
        self.sample_a.remove(agg);
        self.zero_epochs.remove(agg);
        self.hw_active.remove(agg);
    }

    /// Drop all state (controller restart: the meter is volatile and
    /// rebuilds over subsequent epochs).
    pub(crate) fn reset(&mut self) {
        *self = HwMeter::new(self.cap);
    }

    /// Which of `offloaded` (sorted) look blackholed after the epoch that
    /// just closed: hardware counters that used to move have read zero for
    /// `threshold` consecutive measured epochs while the software plane
    /// still remembers demand (`sw_demand_persists`).
    pub(crate) fn blackholed(
        &mut self,
        offloaded: &[FlowAggregate],
        threshold: u32,
        sw_demand_persists: impl Fn(&FlowAggregate) -> bool,
    ) -> Vec<FlowAggregate> {
        let mut victims = Vec::new();
        for agg in offloaded {
            match self.last_rates.get(agg) {
                Some(&(pps, bps)) if pps <= 0.0 && bps <= 0.0 => {
                    // Never carried traffic: nothing to lose. Demand
                    // genuinely stopped: idle, not dark.
                    if !self.hw_active.contains(agg) || !sw_demand_persists(agg) {
                        continue;
                    }
                    let n = self.zero_epochs.entry(*agg).or_insert(0);
                    *n += 1;
                    if *n >= threshold {
                        victims.push(*agg);
                    }
                }
                Some(_) => {
                    // Counters moved: healthy; remember it carried traffic.
                    self.hw_active.insert(*agg);
                    self.zero_epochs.remove(agg);
                }
                None => {} // unmeasurable epoch (reinstall churn): no evidence
            }
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{agg, rule, Bench, World};
    use super::super::{CtrlOut, CtrlPlaneConfig, Timer, DECIDE_DELAY};
    use super::*;

    const GAP: f64 = 0.1;

    fn map() -> FxHashMap<RuleId, FlowAggregate> {
        [agg(1), agg(2)].iter().map(|a| (rule(a), *a)).collect()
    }

    fn counters(packets: u64) -> Vec<TorStatEntry> {
        let (tenant, spec) = rule(&agg(1));
        vec![TorStatEntry {
            tenant,
            spec,
            packets,
            bytes: packets * 100,
        }]
    }

    fn asked(b: &Bench) -> u64 {
        let [CtrlOut::ToTor(_, CtrlRequest::DumpFlowStats { xid })] = b.out[..] else {
            panic!("expected one stats request, got {:?}", b.out)
        };
        xid
    }

    /// One full epoch: both samples requested and answered.
    fn epoch(b: &mut Bench, m: &mut HwMeter, xids: &mut Xids, from: u64, to: u64) {
        m.request(Phase::A, xids, &mut b.cx());
        let a = asked(b);
        assert!(!m.on_stats(a, &counters(from), &map(), GAP));
        m.request(Phase::B, xids, &mut b.cx());
        let x = asked(b);
        assert!(m.on_stats(x, &counters(to), &map(), GAP));
    }

    #[test]
    fn an_epoch_yields_delta_over_gap() {
        let (mut b, mut m, mut xids) = (Bench::new(), HwMeter::new(4), Xids(1));
        epoch(&mut b, &mut m, &mut xids, 1_000, 1_500);
        let d = m.demand(&agg(1)).expect("measured");
        assert_eq!((d.pps, d.bps), (5_000.0, 500_000.0));
        assert!(m.demand(&agg(2)).is_none(), "no counters, no demand");
    }

    /// The satellite bug: sample B's reply delivered twice (a duplicating
    /// link, or a copy from before a restart) used to close the epoch twice:
    /// a second history row from one counter pair, two `Decide` timers for
    /// one interval. Driven through the whole controller, since the cadence
    /// is what must not move.
    #[test]
    fn the_same_sample_b_reply_twice_closes_one_epoch_and_arms_one_decide() {
        let mut w = World::new(1, CtrlPlaneConfig::default());
        w.fire(Timer::Epoch);
        w.deliver(0); // sample A's request
        w.deliver(0); // ... and its reply
        w.fire(Timer::SampleB);
        w.deliver(0);
        let reply = w.wire[0].clone();
        assert_eq!(
            w.hand_over(reply.clone()),
            [CtrlOut::Arm(DECIDE_DELAY, Timer::Decide)]
        );
        assert_eq!(w.hand_over(reply), [], "the copy must not arm a second");
        assert_eq!(w.ctl.interval, 1, "one interval closed, not two");
        assert_eq!(w.timers.iter().filter(|t| **t == Timer::Decide).count(), 1);
    }

    #[test]
    fn a_reply_from_before_a_reset_is_dropped() {
        let (mut b, mut m, mut xids) = (Bench::new(), HwMeter::new(4), Xids(1));
        m.request(Phase::B, &mut xids, &mut b.cx());
        let x = asked(&b);
        m.reset();
        assert!(!m.on_stats(x, &counters(5), &map(), GAP));
    }

    fn dark(m: &mut HwMeter, threshold: u32) -> Vec<FlowAggregate> {
        m.blackholed(&[agg(1)], threshold, |_| true)
    }

    #[test]
    fn counters_that_stop_under_live_demand_are_a_blackhole_after_the_threshold() {
        let (mut b, mut m, mut xids) = (Bench::new(), HwMeter::new(4), Xids(1));
        epoch(&mut b, &mut m, &mut xids, 0, 500);
        assert!(dark(&mut m, 2).is_empty());
        epoch(&mut b, &mut m, &mut xids, 500, 500);
        assert!(dark(&mut m, 2).is_empty(), "one idle epoch is not enough");
        epoch(&mut b, &mut m, &mut xids, 500, 500);
        assert_eq!(dark(&mut m, 2), [agg(1)]);
        // Same counters, but software demand gone too: idle, not dark.
        assert!(m.blackholed(&[agg(1)], 1, |_| false).is_empty());
    }

    /// The conditional satellite: evidence must not outlive the offload it
    /// was gathered on. Demote (by any path) → re-offload → two idle epochs
    /// is an aggregate that never carried traffic on *this* offload.
    #[test]
    fn evidence_gathered_on_one_offload_does_not_convict_the_next() {
        let (mut b, mut m, mut xids) = (Bench::new(), HwMeter::new(4), Xids(1));
        epoch(&mut b, &mut m, &mut xids, 0, 500);
        assert!(dark(&mut m, 2).is_empty(), "carried traffic");
        epoch(&mut b, &mut m, &mut xids, 500, 500);
        assert!(dark(&mut m, 2).is_empty(), "one zero epoch so far");
        m.forget(&agg(1)); // demoted by decision
        epoch(&mut b, &mut m, &mut xids, 0, 0); // re-offloaded, idle
        assert!(dark(&mut m, 2).is_empty());
        epoch(&mut b, &mut m, &mut xids, 0, 0);
        assert!(
            dark(&mut m, 2).is_empty(),
            "idle since re-offload: no victim"
        );
    }
}
