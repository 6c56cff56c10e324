//! The Measurement Engine (paper §4.3.1).
//!
//! The ME "collects statistics on packets (p) and bytes (b) observed for
//! every active flow or flow aggregate, twice within an interval of t time
//! units": Δp/t and Δb/t give pps and bps per **epoch**; epochs repeat every
//! `T` for `N` epochs, and `N` epochs form one control interval `C`. Reports
//! carry the current rates plus the historical **median pps/bps over the
//! last M control intervals**.
//!
//! Flows are folded into per-VM-per-application aggregates
//! (`<src VM IP, src L4 port, tenant>` / `<dst VM IP, dst L4 port, tenant>`)
//! to bound state.
//!
//! **State is what was measured.** The engine holds a [`RateWindow`] only
//! for aggregates that carried traffic in the last `history_len` epochs,
//! plus one epoch's sample-A fold (the baselines). A flow the vswitch still
//! lists with frozen counters costs a baseline between the two samples and
//! nothing after sample B. The rules, which also cover the sample sequences
//! a lost dump reply causes (A, A, B and A, B, B):
//!
//! * sample A merges into the baselines: a later A overwrites the
//!   aggregates it lists and keeps the rest;
//! * sample B reads the baselines, then drops them all;
//! * an aggregate without a window gets one only when its first measured
//!   epoch has `pps > 0` (a window of zero epochs would be idle, and aged
//!   out at once).
//!
//! Between a B and the next A the engine holds no baselines at all, not
//! an emptied map's capacity, and sample A keeps its fold as the baselines
//! instead of copying it into them: a sample's map is among the largest
//! allocations of a 1 000-connection world.
//!
//! There is no delta feed. Each control interval the local controller sends
//! its full [`MeasurementEngine::report`], and the TOR controller merges the
//! latest report of every server (max per aggregate) into the snapshot its
//! decision engine ingests, so a lost report heals in the next round.

use fastrak_sim::FxHashMap;

pub use fastrak_net::ctrl::AggDemand;
use fastrak_net::ctrl::FlowStatEntry;
use fastrak_net::flow::FlowAggregate;

use crate::meter::{self, RateWindow};

/// The measurement engine: fed cumulative stat dumps, produces demand
/// reports.
#[derive(Debug, Clone)]
pub struct MeasurementEngine {
    /// Seconds between the two samples of one epoch (the paper's `t`).
    pub sample_gap_secs: f64,
    /// Epochs remembered: `N × M`.
    pub history_len: usize,
    /// Per-epoch pps/bps history of every aggregate with traffic in the
    /// remembered epochs.
    windows: FxHashMap<FlowAggregate, RateWindow>,
    /// Cumulative (packets, bytes) per aggregate at the epoch's sample A.
    baselines: FxHashMap<FlowAggregate, (u64, u64)>,
}

impl MeasurementEngine {
    /// Build with the paper's defaults: t = 100 ms, N×M epochs of history.
    pub fn new(sample_gap_secs: f64, history_len: usize) -> MeasurementEngine {
        assert!(sample_gap_secs > 0.0 && history_len > 0);
        MeasurementEngine {
            sample_gap_secs,
            history_len,
            windows: FxHashMap::default(),
            baselines: FxHashMap::default(),
        }
    }

    /// Fold a flow-stat dump into per-aggregate cumulative counters.
    fn fold(entries: &[FlowStatEntry]) -> FxHashMap<FlowAggregate, (u64, u64)> {
        let mut m: FxHashMap<FlowAggregate, (u64, u64)> = FxHashMap::default();
        for e in entries {
            for agg in [FlowAggregate::src_of(&e.key), FlowAggregate::dst_of(&e.key)] {
                let v = m.entry(agg).or_insert((0, 0));
                v.0 += e.packets;
                v.1 += e.bytes;
            }
        }
        m
    }

    /// First sample of an epoch (cumulative counters at epoch start).
    pub fn epoch_sample_a(&mut self, entries: &[FlowStatEntry]) {
        // The fold becomes the baselines; an earlier A's entries (its B
        // was lost) stay where this one lists nothing.
        let earlier = std::mem::replace(&mut self.baselines, Self::fold(entries));
        for (agg, baseline) in earlier {
            self.baselines.entry(agg).or_insert(baseline);
        }
    }

    /// Second sample, `t` after the first: closes the epoch, computing
    /// Δp/t and Δb/t per aggregate.
    pub fn epoch_sample_b(&mut self, entries: &[FlowStatEntry]) {
        let folded = Self::fold(entries);
        let (gap, cap) = (self.sample_gap_secs, self.history_len);
        // Aggregates present in this dump. An unmeasurable epoch (no
        // baseline, or the cumulative counters went backwards after a rule
        // reset — see [`meter::epoch_rates`]) pushes nothing: the window
        // keeps its history and the next sample A re-baselines.
        for (agg, cur) in &folded {
            let baseline = self.baselines.get(agg).copied();
            let Some((pps, bps)) = meter::epoch_rates(baseline, *cur, gap) else {
                continue;
            };
            // A zero-rate first epoch would open an idle window that the
            // age-out below drops again: skip it.
            match self.windows.get_mut(agg) {
                Some(win) => win.push(pps, bps, cap),
                None if pps > 0.0 => self.windows.entry(*agg).or_default().push(pps, bps, cap),
                None => {}
            }
        }
        // Aggregates we know but which vanished from the dump: zero epoch
        // (genuinely idle — distinct from a reset, where the flow is still
        // present but its counters restarted).
        for (agg, win) in self.windows.iter_mut() {
            if !folded.contains_key(agg) {
                win.push(0.0, 0.0, cap);
            }
        }
        // Drop aggregates idle across the whole remembered history.
        self.windows.retain(|_, win| !win.idle());
        self.baselines = FxHashMap::default();
    }

    /// Produce the demand report (one row per active aggregate), highest
    /// median pps first. The median convention (upper median on even
    /// windows) is documented on [`RateWindow`].
    pub fn report(&self) -> Vec<AggDemand> {
        let mut out: Vec<AggDemand> = self
            .windows
            .iter()
            .filter_map(|(agg, win)| win.demand(*agg))
            .collect();
        out.sort_by(|a, b| {
            b.m_pps
                .partial_cmp(&a.m_pps)
                .unwrap()
                .then_with(|| a.agg.cmp(&b.agg))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::addr::{Ip, TenantId};
    use fastrak_net::flow::{FlowKey, Proto};

    fn key(src: u16, dst: u16, sp: u16, dp: u16) -> FlowKey {
        FlowKey {
            tenant: TenantId(1),
            src_ip: Ip::tenant_vm(src),
            dst_ip: Ip::tenant_vm(dst),
            proto: Proto::Tcp,
            src_port: sp,
            dst_port: dp,
        }
    }

    fn entry(k: FlowKey, p: u64, b: u64) -> FlowStatEntry {
        FlowStatEntry {
            key: k,
            packets: p,
            bytes: b,
        }
    }

    #[test]
    fn epoch_rates_from_two_samples() {
        let mut me = MeasurementEngine::new(0.1, 6);
        let k = key(1, 2, 40_000, 11211);
        me.epoch_sample_a(&[entry(k, 1000, 100_000)]);
        me.epoch_sample_b(&[entry(k, 1500, 150_000)]);
        let report = me.report();
        // One flow folds into two aggregates (src-side + dst-side).
        assert_eq!(report.len(), 2);
        for d in &report {
            assert!((d.pps - 5000.0).abs() < 1e-9, "pps {}", d.pps);
            assert!((d.bps - 500_000.0).abs() < 1e-9);
            assert_eq!(d.n_active, 1);
        }
    }

    #[test]
    fn aggregation_folds_same_service() {
        // Two client flows to the same service port fold into one DstApp.
        let mut me = MeasurementEngine::new(0.1, 6);
        let k1 = key(1, 9, 40_000, 11211);
        let k2 = key(2, 9, 40_001, 11211);
        me.epoch_sample_a(&[entry(k1, 0, 0), entry(k2, 0, 0)]);
        me.epoch_sample_b(&[entry(k1, 100, 1000), entry(k2, 300, 3000)]);
        let report = me.report();
        let dst = report
            .iter()
            .find(|d| matches!(d.agg, FlowAggregate::DstApp { port: 11211, .. }))
            .unwrap();
        assert!((dst.pps - 4000.0).abs() < 1e-9, "folded pps {}", dst.pps);
    }

    #[test]
    fn median_over_history() {
        let mut me = MeasurementEngine::new(1.0, 5);
        let k = key(1, 2, 1, 2);
        let mut cum = 0;
        for add in [100u64, 200, 300, 400, 500] {
            me.epoch_sample_a(&[entry(k, cum, cum)]);
            cum += add;
            me.epoch_sample_b(&[entry(k, cum, cum)]);
        }
        let d = me
            .report()
            .into_iter()
            .find(|d| matches!(d.agg, FlowAggregate::SrcApp { .. }))
            .unwrap();
        assert!((d.m_pps - 300.0).abs() < 1e-9, "median {}", d.m_pps);
        assert_eq!(d.n_active, 5);
        assert!((d.pps - 500.0).abs() < 1e-9);
    }

    #[test]
    fn idle_aggregates_age_out() {
        let mut me = MeasurementEngine::new(1.0, 2);
        let k = key(1, 2, 1, 2);
        me.epoch_sample_a(&[entry(k, 0, 0)]);
        me.epoch_sample_b(&[entry(k, 100, 100)]);
        // Two idle epochs (flow vanished from dumps).
        me.epoch_sample_a(&[]);
        me.epoch_sample_b(&[]);
        me.epoch_sample_a(&[]);
        me.epoch_sample_b(&[]);
        assert!(me.report().is_empty(), "idle aggregates must age out");
    }

    /// Satellite regression (ISSUE 8): a ToR rule removed and reinstalled
    /// mid-epoch restarts its cumulative counters, so sample B reads below
    /// sample A. The old `saturating_sub` turned every such epoch into a
    /// zero-rate epoch — under-scoring the hot aggregate and, with repeated
    /// resets, letting the idle age-out evict it entirely. The fix skips the
    /// unmeasurable epoch and re-baselines, so demand must not collapse.
    #[test]
    fn counter_reset_rebaselines_instead_of_collapsing() {
        let mut me = MeasurementEngine::new(1.0, 2);
        let k = key(1, 2, 40_000, 11211);
        // Two clean epochs at 1000 pps: a genuinely hot flow.
        me.epoch_sample_a(&[entry(k, 0, 0)]);
        me.epoch_sample_b(&[entry(k, 1000, 1_400_000)]);
        me.epoch_sample_a(&[entry(k, 1000, 1_400_000)]);
        me.epoch_sample_b(&[entry(k, 2000, 2_800_000)]);
        // The rule is removed and reinstalled mid-epoch twice in a row
        // (demote→re-offload churn): counters restart below the baseline.
        me.epoch_sample_a(&[entry(k, 2000, 2_800_000)]);
        me.epoch_sample_b(&[entry(k, 300, 420_000)]);
        me.epoch_sample_a(&[entry(k, 300, 420_000)]);
        me.epoch_sample_b(&[entry(k, 150, 210_000)]);
        let rep = me.report();
        assert!(
            !rep.is_empty(),
            "hot aggregate must survive counter resets (age-out evicted it)"
        );
        for d in &rep {
            assert!(d.pps >= 900.0, "last-epoch rate collapsed: {}", d.pps);
            assert!(d.m_pps >= 900.0, "median rate collapsed: {}", d.m_pps);
        }
    }

    #[test]
    fn history_bounded() {
        let mut me = MeasurementEngine::new(1.0, 3);
        let k = key(1, 2, 1, 2);
        let mut cum = 0;
        for _ in 0..10 {
            me.epoch_sample_a(&[entry(k, cum, cum)]);
            cum += 100;
            me.epoch_sample_b(&[entry(k, cum, cum)]);
        }
        let d = &me.report()[0];
        assert_eq!(d.n_active, 3, "history must be bounded at N*M");
    }

    /// An idle connection the vswitch keeps listing (frozen counters in
    /// every dump) costs a baseline between the two samples and nothing
    /// after sample B; a flow that carried traffic once ages out of its
    /// window and then costs nothing either.
    #[test]
    fn a_listed_idle_flow_holds_no_state_after_sample_b() {
        let mut me = MeasurementEngine::new(1.0, 3);
        let hot = key(1, 2, 40_000, 11211);
        let idle = key(3, 4, 40_001, 80);
        me.epoch_sample_a(&[entry(hot, 0, 0), entry(idle, 500, 50_000)]);
        me.epoch_sample_b(&[entry(hot, 100, 100), entry(idle, 500, 50_000)]);
        assert_eq!(me.windows.len(), 2, "the hot flow's two aggregates only");
        let idle_aggs = [FlowAggregate::src_of(&idle), FlowAggregate::dst_of(&idle)];
        let dump = [entry(hot, 100, 100), entry(idle, 500, 50_000)];
        for epoch in 1..=1000 {
            me.epoch_sample_a(&dump);
            assert_eq!(me.baselines.len(), 4);
            me.epoch_sample_b(&dump);
            assert!(me.baselines.is_empty(), "epoch {epoch}: baselines kept");
            // The hot epoch leaves the 3-epoch window at the third idle one.
            let windows = if epoch < 3 { 2 } else { 0 };
            assert_eq!(me.windows.len(), windows, "epoch {epoch}");
            assert!(me.report().iter().all(|d| !idle_aggs.contains(&d.agg)));
        }
    }

    /// Sample A keeps its fold as the baselines, and sample B frees them:
    /// between epochs the engine holds no map capacity for them.
    #[test]
    fn sample_b_frees_the_baselines_and_sample_a_keeps_its_fold() {
        let mut me = MeasurementEngine::new(1.0, 3);
        let dump: Vec<_> = (0..500)
            .map(|i| entry(key(1, 2, 10_000 + i, 80), 100, 100))
            .collect();
        for _ in 0..3 {
            me.epoch_sample_a(&dump);
            let fold = MeasurementEngine::fold(&dump);
            assert_eq!(me.baselines.capacity(), fold.capacity());
            me.epoch_sample_b(&dump);
            assert_eq!(me.baselines.capacity(), 0);
        }
    }

    /// 10 000 aggregates (5 000 flows), each hot for one epoch and listed
    /// idle for 20 more: the engine holds a window for exactly the
    /// aggregates with traffic in the last `history_len` epochs, never more.
    #[test]
    fn windows_never_outnumber_the_recently_active_aggregates() {
        const HIST: usize = 6;
        const PER_EPOCH: u16 = 10;
        const EPOCHS: u16 = 500;
        let mut me = MeasurementEngine::new(1.0, HIST);
        let flow = |i: u16| key(i, i, 1_000, 2_000);
        let mut seen = std::collections::HashSet::new();
        for e in 0..EPOCHS {
            let hot = e * PER_EPOCH..(e + 1) * PER_EPOCH;
            // Listed: this epoch's hot flows and the last 20 epochs' ones,
            // whose counters have stopped at 100.
            let listed = e.saturating_sub(20) * PER_EPOCH..(e + 1) * PER_EPOCH;
            let a: Vec<_> = listed
                .clone()
                .map(|i| entry(flow(i), if hot.contains(&i) { 0 } else { 100 }, 0))
                .collect();
            let b: Vec<_> = listed.map(|i| entry(flow(i), 100, 0)).collect();
            me.epoch_sample_a(&a);
            me.epoch_sample_b(&b);
            seen.extend(me.windows.keys().copied());
            let active = 2 * PER_EPOCH as usize * (e as usize + 1).min(HIST);
            assert_eq!(me.windows.len(), active, "epoch {e}");
            assert!(me.baselines.is_empty());
        }
        assert_eq!(seen.len(), 2 * PER_EPOCH as usize * EPOCHS as usize);
    }

    /// The report, by aggregate.
    fn by_agg(me: &MeasurementEngine) -> Vec<AggDemand> {
        let mut r = me.report();
        r.sort_by_key(|d| d.agg);
        r
    }

    /// The rows of both aggregates of `k`, with the same values.
    fn both(
        k: FlowKey,
        pps: f64,
        bps: f64,
        n_active: u32,
        m_pps: f64,
        m_bps: f64,
    ) -> [AggDemand; 2] {
        [FlowAggregate::src_of(&k), FlowAggregate::dst_of(&k)].map(|agg| AggDemand {
            agg,
            pps,
            bps,
            n_active,
            m_pps,
            m_bps,
        })
    }

    /// A lost sample-B reply: the next epoch's A arrives on top of the
    /// unclosed one. The later A overwrites the baselines it lists and
    /// keeps the rest.
    #[test]
    fn a_second_sample_a_overwrites_only_what_it_lists() {
        let mut me = MeasurementEngine::new(1.0, 4);
        let (k1, k2) = (key(1, 2, 10, 20), key(3, 4, 30, 40));
        me.epoch_sample_a(&[entry(k1, 0, 0), entry(k2, 0, 0)]);
        me.epoch_sample_b(&[entry(k1, 100, 1_000), entry(k2, 50, 500)]);
        me.epoch_sample_a(&[entry(k1, 100, 1_000), entry(k2, 50, 500)]);
        me.epoch_sample_a(&[entry(k1, 300, 3_000)]);
        me.epoch_sample_b(&[entry(k1, 600, 6_000), entry(k2, 90, 900)]);
        // k1: (600 - 300) / 1 s over the later baseline; window [100, 300].
        // k2: (90 - 50) / 1 s over the kept one; window [50, 40], whose
        // upper median is 50.
        let mut want = [
            both(k1, 300.0, 3_000.0, 2, 300.0, 3_000.0),
            both(k2, 40.0, 400.0, 2, 50.0, 500.0),
        ]
        .concat();
        want.sort_by_key(|d| d.agg);
        assert_eq!(by_agg(&me), want);
    }

    /// A lost sample-A reply: sample B arrives twice with no A between.
    /// The second B has no baselines, so it measures nothing for the flows
    /// it lists, and closes a zero epoch for known aggregates it does not.
    #[test]
    fn a_second_sample_b_measures_nothing_and_zeroes_the_vanished() {
        let mut me = MeasurementEngine::new(1.0, 4);
        let (k1, k2) = (key(1, 2, 10, 20), key(3, 4, 30, 40));
        me.epoch_sample_a(&[entry(k1, 0, 0)]);
        me.epoch_sample_b(&[entry(k1, 100, 1_000)]);
        me.epoch_sample_a(&[entry(k1, 100, 1_000), entry(k2, 0, 0)]);
        me.epoch_sample_b(&[entry(k1, 250, 2_500), entry(k2, 70, 700)]);
        me.epoch_sample_b(&[entry(k1, 400, 4_000)]);
        // k1: the unmeasurable epoch pushes nothing; window [100, 150].
        // k2: vanished, so a zero epoch; window [70, 0], upper median 70.
        let mut want = [
            both(k1, 150.0, 1_500.0, 2, 150.0, 1_500.0),
            both(k2, 0.0, 0.0, 1, 70.0, 700.0),
        ]
        .concat();
        want.sort_by_key(|d| d.agg);
        assert_eq!(by_agg(&me), want);
    }

    #[test]
    fn report_sorted_by_median_pps() {
        let mut me = MeasurementEngine::new(1.0, 4);
        let hot = key(1, 2, 1, 2);
        let cold = key(3, 4, 5, 6);
        me.epoch_sample_a(&[entry(hot, 0, 0), entry(cold, 0, 0)]);
        me.epoch_sample_b(&[entry(hot, 10_000, 0), entry(cold, 10, 0)]);
        let rep = me.report();
        assert!(rep[0].m_pps >= rep[rep.len() - 1].m_pps);
    }
}
