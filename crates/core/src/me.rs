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

use fastrak_sim::FxHashMap;

pub use fastrak_net::ctrl::AggDemand;
use fastrak_net::ctrl::FlowStatEntry;
use fastrak_net::flow::FlowAggregate;

use crate::meter::{self, RateWindow};

/// One epoch's demand changes, for feeding the incremental decision engine
/// (`changed` carries new and updated rows, `removed` aggregates that aged
/// out of measurement). Both sides are sorted by aggregate so delta replay
/// is deterministic.
#[derive(Debug, Clone, Default)]
pub struct DemandDelta {
    /// Rows whose demand changed since the last drain (includes new rows).
    pub changed: Vec<AggDemand>,
    /// Aggregates dropped from measurement since the last drain.
    pub removed: Vec<FlowAggregate>,
}

#[derive(Debug, Clone, Default)]
struct AggState {
    /// Cumulative (packets, bytes) at the epoch's first sample.
    sample_a: Option<(u64, u64)>,
    /// Per-epoch pps/bps history (bounded at N×M); see [`RateWindow`] for
    /// the steady-rate change detection and the median convention.
    win: RateWindow,
    /// Demand possibly changed since the last [`MeasurementEngine::delta_report`]
    /// drain (set when an epoch push alters the history window's contents).
    dirty: bool,
}

/// The measurement engine: fed cumulative stat dumps, produces demand
/// reports.
#[derive(Debug, Clone)]
pub struct MeasurementEngine {
    /// Seconds between the two samples of one epoch (the paper's `t`).
    pub sample_gap_secs: f64,
    /// Epochs remembered: `N × M`.
    pub history_len: usize,
    aggs: FxHashMap<FlowAggregate, AggState>,
    epochs_done: u64,
    /// Aggregates marked dirty since the last `delta_report` drain (each at
    /// most once; the `AggState::dirty` flag guards against duplicates).
    dirty_list: Vec<FlowAggregate>,
    /// Aggregates dropped by the idle sweep since the last drain.
    removed_pending: Vec<FlowAggregate>,
}

impl MeasurementEngine {
    /// Build with the paper's defaults: t = 100 ms, N×M epochs of history.
    pub fn new(sample_gap_secs: f64, history_len: usize) -> MeasurementEngine {
        assert!(sample_gap_secs > 0.0 && history_len > 0);
        MeasurementEngine {
            sample_gap_secs,
            history_len,
            aggs: FxHashMap::default(),
            epochs_done: 0,
            dirty_list: Vec::new(),
            removed_pending: Vec::new(),
        }
    }

    /// Mark one aggregate's report row as changed (at most once per drain).
    fn mark_dirty(dirty_list: &mut Vec<FlowAggregate>, agg: FlowAggregate, st: &mut AggState) {
        if !st.dirty {
            st.dirty = true;
            dirty_list.push(agg);
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
        let folded = Self::fold(entries);
        for (agg, cum) in folded {
            self.aggs.entry(agg).or_default().sample_a = Some(cum);
        }
    }

    /// Second sample, `t` after the first: closes the epoch, computing
    /// Δp/t and Δb/t per aggregate.
    pub fn epoch_sample_b(&mut self, entries: &[FlowStatEntry]) {
        let folded = Self::fold(entries);
        self.epochs_done += 1;
        let gap = self.sample_gap_secs;
        let hist_len = self.history_len;
        // Aggregates present in this dump. An unmeasurable epoch (no
        // baseline, or the cumulative counters went backwards after a rule
        // reset — see [`meter::epoch_rates`]) pushes nothing: the window
        // keeps its history and the next sample A re-baselines.
        for (agg, cur) in &folded {
            let st = self.aggs.entry(*agg).or_default();
            if let Some((pps, bps)) = meter::epoch_rates(st.sample_a.take(), *cur, gap) {
                if st.win.push(pps, bps, hist_len) {
                    Self::mark_dirty(&mut self.dirty_list, *agg, st);
                }
            }
        }
        // Aggregates we know but which vanished from the dump: zero epoch
        // (genuinely idle — distinct from a reset, where the flow is still
        // present but its counters restarted).
        for (agg, st) in self.aggs.iter_mut() {
            if !folded.contains_key(agg) {
                st.sample_a = None;
                if st.win.push(0.0, 0.0, hist_len) {
                    Self::mark_dirty(&mut self.dirty_list, *agg, st);
                }
            }
        }
        // Drop aggregates idle across the whole remembered history. A
        // never-measured window (empty: the aggregate appeared mid-epoch and
        // was never reported) is dropped silently — no removal delta.
        let removed_pending = &mut self.removed_pending;
        self.aggs.retain(|agg, st| {
            let keep = !st.win.idle();
            if !keep && !st.win.is_empty() {
                removed_pending.push(*agg);
            }
            keep
        });
    }

    /// Number of closed epochs.
    pub fn epochs_done(&self) -> u64 {
        self.epochs_done
    }

    /// One aggregate's report row (None while no epoch has closed). The
    /// median convention (upper median on even windows) is documented on
    /// [`RateWindow`].
    fn demand_row(agg: FlowAggregate, st: &AggState) -> Option<AggDemand> {
        let s = st.win.summary()?;
        Some(AggDemand {
            agg,
            pps: s.pps,
            bps: s.bps,
            n_active: s.n_active,
            m_pps: s.m_pps,
            m_bps: s.m_bps,
        })
    }

    /// Produce the demand report (one row per active aggregate).
    pub fn report(&self) -> Vec<AggDemand> {
        let mut out = Vec::with_capacity(self.aggs.len());
        for (agg, st) in &self.aggs {
            if let Some(row) = Self::demand_row(*agg, st) {
                out.push(row);
            }
        }
        out.sort_by(|a, b| {
            b.m_pps
                .partial_cmp(&a.m_pps)
                .unwrap()
                .then_with(|| a.agg.cmp(&b.agg))
        });
        out
    }

    /// Drain the demand changes accumulated since the previous drain — the
    /// incremental decision engine's feed. Replaying every drained delta
    /// into an empty table reconstructs exactly [`MeasurementEngine::report`]
    /// (asserted by the differential suite): `changed` holds the recomputed
    /// rows of every aggregate whose window contents changed, `removed` the
    /// aggregates the idle sweep dropped. Cost is O(changed), not O(active):
    /// steady-rate aggregates whose full window evicts the value being
    /// pushed are never touched.
    pub fn delta_report(&mut self) -> DemandDelta {
        let mut changed: Vec<AggDemand> = Vec::with_capacity(self.dirty_list.len());
        for agg in std::mem::take(&mut self.dirty_list) {
            // Aggregates dropped by the idle sweep after being marked show
            // up in `removed` instead.
            if let Some(st) = self.aggs.get_mut(&agg) {
                st.dirty = false;
                if let Some(row) = Self::demand_row(agg, st) {
                    changed.push(row);
                }
            }
        }
        changed.sort_by_key(|a| a.agg);
        let mut removed = std::mem::take(&mut self.removed_pending);
        // An aggregate that aged out and came back within one drain window
        // is alive: its fresh row is in `changed`, so no removal is
        // emitted (consumers apply `changed` before `removed`).
        removed.retain(|a| !self.aggs.contains_key(a));
        removed.sort();
        removed.dedup();
        DemandDelta { changed, removed }
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

    /// Replay drained deltas into a map and compare against the full report.
    fn replay_matches_report(
        me: &mut MeasurementEngine,
        shadow: &mut FxHashMap<FlowAggregate, AggDemand>,
    ) {
        let delta = me.delta_report();
        for row in &delta.changed {
            shadow.insert(row.agg, *row);
        }
        for agg in &delta.removed {
            shadow.remove(agg);
        }
        let mut want = me.report();
        want.sort_by_key(|a| a.agg);
        let mut got: Vec<AggDemand> = shadow.values().copied().collect();
        got.sort_by_key(|a| a.agg);
        assert_eq!(got, want, "delta replay diverged from the full report");
    }

    #[test]
    fn delta_replay_reconstructs_the_report() {
        let mut me = MeasurementEngine::new(1.0, 3);
        let mut shadow = FxHashMap::default();
        let k1 = key(1, 2, 10, 20);
        let k2 = key(3, 4, 30, 40);
        let mut cum1 = 0u64;
        let mut cum2 = 0u64;
        for epoch in 0..8u64 {
            let mut dump = Vec::new();
            // k1: rate varies; k2: present only early (ages out later).
            me.epoch_sample_a(&[entry(k1, cum1, cum1), entry(k2, cum2, cum2)]);
            cum1 += 100 + 10 * (epoch % 3);
            if epoch < 3 {
                cum2 += 500;
                dump.push(entry(k2, cum2, cum2));
            }
            dump.push(entry(k1, cum1, cum1));
            me.epoch_sample_b(&dump);
            replay_matches_report(&mut me, &mut shadow);
        }
    }

    #[test]
    fn steady_rates_produce_no_deltas() {
        let mut me = MeasurementEngine::new(1.0, 3);
        let k = key(1, 2, 1, 2);
        let mut cum = 0u64;
        for _ in 0..3 {
            me.epoch_sample_a(&[entry(k, cum, cum)]);
            cum += 100;
            me.epoch_sample_b(&[entry(k, cum, cum)]);
        }
        let _ = me.delta_report(); // drain the warm-up
        for _ in 0..4 {
            me.epoch_sample_a(&[entry(k, cum, cum)]);
            cum += 100;
            me.epoch_sample_b(&[entry(k, cum, cum)]);
            let d = me.delta_report();
            assert!(
                d.changed.is_empty() && d.removed.is_empty(),
                "steady window must produce no deltas, got {d:?}"
            );
        }
    }

    #[test]
    fn aged_out_aggregates_emit_removals() {
        let mut me = MeasurementEngine::new(1.0, 2);
        let k = key(1, 2, 1, 2);
        me.epoch_sample_a(&[entry(k, 0, 0)]);
        me.epoch_sample_b(&[entry(k, 100, 100)]);
        let d = me.delta_report();
        assert_eq!(d.changed.len(), 2, "src+dst aggregates reported");
        for _ in 0..3 {
            me.epoch_sample_a(&[]);
            me.epoch_sample_b(&[]);
        }
        let d = me.delta_report();
        assert!(d.changed.is_empty());
        assert_eq!(d.removed.len(), 2, "both aggregates age out: {d:?}");
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
