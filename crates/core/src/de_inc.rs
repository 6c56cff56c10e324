//! The decision engine: near-linear epochs at fleet scale.
//!
//! A full-scan engine re-ranks the world every round — a sort over every
//! active aggregate plus a boundary hysteresis pass — which goes
//! superlinear in the aggregate count. The paper's §4.3.2 ranking only
//! needs the *top-k by budget*, not a total order, and between epochs
//! almost nothing moves: demand medians are stable by construction (they
//! are medians over N×M epochs).
//!
//! [`IncrementalDecisionEngine`] therefore keeps a **persistent score
//! index** between rounds:
//!
//! * `scores` — a dense FxHash aggregate→score index (the authoritative
//!   membership set, filtered by [`DeConfig::eligible`]);
//! * `ord` — a score-ordered [`BTreeSet`] of [`OrdKey`]s whose ascending
//!   order is the rank order (score descending, then aggregate ascending),
//!   so walking it from the front reproduces the reference's greedy
//!   selection bit for bit.
//!
//! The controller feeds it a full demand snapshot each round
//! ([`IncrementalDecisionEngine::ingest_snapshot`]): every row costs one
//! hash probe, and only a row whose score moved costs the at most two
//! `O(log n)` ordered-index edits. [`IncrementalDecisionEngine::ingest`]
//! takes the measurement engine's demand deltas instead (changed/new/
//! expired aggregates), which skips the probes of unchanged rows. `decide`
//! then walks the top of the order until the budget is filled — `O(k)` for
//! the walk plus `O(k)` for the hysteresis band and demotion sweep — so a
//! low-churn epoch costs `O(Δ·log n + k)` past the feed, regardless of how
//! many aggregates exist.
//!
//! **Band semantics.** Hysteresis is a score *band* at the k-th boundary:
//! with factor `h`, the best-scoring displaced incumbent `inc` suppresses
//! every newcomer whose score falls inside `[0, h·S(inc))` — those
//! band-crossers keep `inc` offloaded instead of churning rules. This is
//! exactly the full-scan pass's semantics (the displaced incumbent there is
//! loop-invariant). Score ties between displaced incumbents break toward
//! the smaller aggregate, not `HashSet` iteration order.
//!
//! The full-scan engine is the test reference in `tests/support/`, which
//! `tests/de_differential.rs` runs beside this one.

use std::collections::{BTreeSet, HashSet};

use fastrak_net::flow::FlowAggregate;
use fastrak_sim::{FxHashMap, FxHashSet};

use crate::de::{DeConfig, Decision};
use crate::me::AggDemand;
use crate::policy;

/// Ordered-index key. `BTreeSet`'s ascending order must equal the full-scan
/// `rank` order (score descending, aggregate ascending), so the score is
/// stored as the bitwise NOT of its IEEE-754 bits: for the positive, finite
/// scores the eligibility filter admits, `f64::to_bits` is monotone, and
/// inverting flips the direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OrdKey {
    inv_bits: u64,
    agg: FlowAggregate,
}

impl OrdKey {
    fn new(score: f64, agg: FlowAggregate) -> OrdKey {
        debug_assert!(score > 0.0, "only positive scores are indexed");
        OrdKey {
            inv_bits: !score.to_bits(),
            agg,
        }
    }
}

/// Observability counters for one decide epoch (see `ctrl.de.*` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeEpochStats {
    /// Index mutations (inserts, score moves, removals) ingested since the
    /// previous decide. Unchanged-score rows cost a hash probe but are not
    /// deltas.
    pub deltas_ingested: u64,
    /// Ordered-index entries visited by the selection walk (the "top-k
    /// fringe": ≈ budget plus any capped-tenant skips, independent of the
    /// index size). No `ctrl.de.*` series exports it: it is the one
    /// observable of that bound, which
    /// `selection_walk_is_bounded_by_the_budget` checks.
    pub scanned: u64,
    /// Aggregates that crossed the offload boundary this epoch
    /// (offloads + demotions actually decided).
    pub band_crossers: u64,
    /// Newcomers inside the hysteresis band whose offload was suppressed in
    /// favour of the displaced incumbent (churn avoided).
    pub churn_suppressed: u64,
}

/// The incremental decision engine. Produces decisions identical to the
/// full-scan reference's on the same demand history (asserted by the
/// `de_differential` suite) while doing per-epoch work proportional to the
/// change set, not the world.
#[derive(Debug, Clone)]
pub struct IncrementalDecisionEngine {
    /// Configuration.
    pub cfg: DeConfig,
    /// Aggregate → current score, for every eligible aggregate.
    scores: FxHashMap<FlowAggregate, f64>,
    /// Score-ordered view of `scores` (see [`OrdKey`]).
    ord: BTreeSet<OrdKey>,
    /// Mutations since the last decide (rolled into [`DeEpochStats`]).
    pending_deltas: u64,
    /// Stats of the most recent decide epoch.
    stats: DeEpochStats,
}

impl IncrementalDecisionEngine {
    /// Build an empty engine from config.
    pub fn new(cfg: DeConfig) -> IncrementalDecisionEngine {
        IncrementalDecisionEngine {
            scores: FxHashMap::default(),
            ord: BTreeSet::new(),
            pending_deltas: 0,
            stats: DeEpochStats::default(),
            cfg,
        }
    }

    /// Number of aggregates currently indexed.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when no aggregate is indexed.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Stats of the most recent [`IncrementalDecisionEngine::decide`] epoch.
    pub fn last_stats(&self) -> DeEpochStats {
        self.stats
    }

    /// Upsert one demand row: indexes it when eligible, removes it
    /// otherwise.
    fn upsert(&mut self, d: &AggDemand) {
        if !self.cfg.eligible(d) {
            self.remove(&d.agg);
            return;
        }
        let score = self.cfg.score(d);
        if let Some(old) = self.scores.insert(d.agg, score) {
            if old == score {
                return; // no movement: not a delta
            }
            self.ord.remove(&OrdKey::new(old, d.agg));
        }
        self.ord.insert(OrdKey::new(score, d.agg));
        self.pending_deltas += 1;
    }

    /// Drop one aggregate from the index (expired / no longer eligible).
    fn remove(&mut self, agg: &FlowAggregate) {
        if let Some(old) = self.scores.remove(agg) {
            self.ord.remove(&OrdKey::new(old, *agg));
            self.pending_deltas += 1;
        }
    }

    /// Ingest one epoch's demand deltas: `changed` carries new and updated
    /// rows (rows falling below the eligibility filter count as removals),
    /// `removed` the aggregates that expired from measurement entirely.
    pub fn ingest(&mut self, changed: &[AggDemand], removed: &[FlowAggregate]) {
        for d in changed {
            self.upsert(d);
        }
        for a in removed {
            self.remove(a);
        }
    }

    /// Ingest a *full* demand snapshot: upserts every row and sweeps
    /// indexed aggregates absent from the snapshot. O(total) hash probes,
    /// but no sort: this is the live path, fed the controller's merged
    /// demands every round. [`IncrementalDecisionEngine::ingest`] takes
    /// deltas instead and skips the probes of unchanged rows.
    pub fn ingest_snapshot(&mut self, demands: &[AggDemand]) {
        let mut seen: FxHashSet<FlowAggregate> =
            FxHashSet::with_capacity_and_hasher(demands.len(), Default::default());
        for d in demands {
            seen.insert(d.agg);
            self.upsert(d);
        }
        // No size shortcut: `upsert` drops ineligible rows, so `seen` and
        // `scores` can have equal sizes while a stale entry lingers.
        let stale: Vec<FlowAggregate> = self
            .scores
            .keys()
            .filter(|a| !seen.contains(*a))
            .copied()
            .collect();
        for a in &stale {
            self.remove(a);
        }
    }

    /// Decide the hardware set from the current index: `offloaded` is the
    /// currently offloaded set, `budget` the total fast-path entries the DE
    /// may use (free entries **plus** those the offloaded set occupies).
    pub fn decide(&mut self, offloaded: &HashSet<FlowAggregate>, budget: usize) -> Decision {
        let cap = self.cfg.max_offloaded.map_or(budget, |m| m.min(budget));
        // Per-tenant fairness caps (see [`crate::policy`]). `Unrestricted`
        // pays nothing — the iterator below is never consumed. For
        // `WeightedScore` the score order `ord` is walked front to back,
        // the exact sequence the reference's sorted ranking yields
        // (`f64::from_bits(!inv_bits)` recovers each score bit-exactly),
        // so the per-tenant f64 masses agree with it. That mass
        // pass is O(n) — the one policy whose bookkeeping scales with the
        // index, bounded by the `decision_engine_decide_tenants` bench.
        let mut tcaps = policy::caps_for_walk(
            &self.cfg.policy,
            cap,
            self.ord
                .iter()
                .map(|k| (k.agg.tenant(), f64::from_bits(!k.inv_bits))),
        );

        // Greedy top-k walk over the score order — the reference's scan of
        // its sorted ranking, but touching only the fringe needed to fill
        // `cap`. The index holds each aggregate once, so each admit adds a
        // new one. (Under a tenant-cap policy the walk can run past the
        // fringe: a capped tenant's aggregates are skipped until tenants
        // with headroom fill the table.)
        let mut target: Vec<FlowAggregate> = Vec::new();
        let mut scanned = 0u64;
        for key in self.ord.iter() {
            if target.len() >= cap {
                break;
            }
            scanned += 1;
            if tcaps.admit(key.agg.tenant()) {
                target.push(key.agg);
            }
        }

        // Hysteresis band at the k-th boundary (module docs): the best
        // displaced incumbent suppresses every newcomer scoring inside
        // `[0, h·S(inc))`.
        let mut suppressed = 0u64;
        let mut target_set: FxHashSet<FlowAggregate> = target.iter().copied().collect();
        if self.cfg.hysteresis > 1.0 {
            let displaced: Option<(f64, FlowAggregate)> = offloaded
                .iter()
                .filter(|o| !target_set.contains(o))
                .map(|o| (self.scores.get(o).copied().unwrap_or(0.0), *o))
                .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then_with(|| b.1.cmp(&a.1)));
            if let Some((s_inc, inc)) = displaced {
                if s_inc > 0.0 {
                    let mut stable = target.clone();
                    for (i, t) in target.iter().enumerate() {
                        if offloaded.contains(t) {
                            continue; // already in hardware: no churn
                        }
                        let s_new = self.scores.get(t).copied().unwrap_or(0.0);
                        if s_new < self.cfg.hysteresis * s_inc {
                            stable[i] = inc;
                            suppressed += 1;
                        }
                    }
                    // De-duplicate while preserving order (several
                    // suppressed newcomers collapse into one incumbent).
                    let mut seen = FxHashSet::default();
                    target = stable.into_iter().filter(|a| seen.insert(*a)).collect();
                    target_set = target.iter().copied().collect();
                }
            }
        }

        let offload: Vec<FlowAggregate> = target
            .iter()
            .filter(|a| !offloaded.contains(a))
            .copied()
            .collect();
        let mut demote: Vec<FlowAggregate> = offloaded
            .iter()
            .filter(|a| !target_set.contains(a))
            .copied()
            .collect();
        demote.sort(); // HashSet order is nondeterministic

        self.stats = DeEpochStats {
            deltas_ingested: std::mem::take(&mut self.pending_deltas),
            scanned,
            band_crossers: (offload.len() + demote.len()) as u64,
            churn_suppressed: suppressed,
        };
        Decision {
            offload,
            demote,
            target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::addr::{Ip, TenantId};

    fn agg(port: u16) -> FlowAggregate {
        FlowAggregate::DstApp {
            tenant: TenantId(1),
            ip: Ip::tenant_vm(9),
            port,
        }
    }

    fn demand(port: u16, m_pps: f64, n: u32) -> AggDemand {
        AggDemand {
            agg: agg(port),
            pps: m_pps,
            bps: m_pps * 1000.0,
            n_active: n,
            m_pps,
            m_bps: m_pps * 1000.0,
        }
    }

    #[test]
    fn score_updates_move_aggregates_across_the_boundary() {
        let mut inc = IncrementalDecisionEngine::new(DeConfig::paper());
        inc.ingest(&[demand(1, 100.0, 1), demand(2, 200.0, 1)], &[]);
        let none = HashSet::new();
        let d = inc.decide(&none, 1);
        assert_eq!(d.target, vec![agg(2)]);
        // agg(1) overtakes: only a delta for agg(1) is ingested.
        inc.ingest(&[demand(1, 300.0, 1)], &[]);
        let d = inc.decide(&none, 1);
        assert_eq!(d.target, vec![agg(1)]);
        assert_eq!(inc.last_stats().deltas_ingested, 1);
        // Unchanged rows are probes, not deltas.
        inc.ingest(&[demand(1, 300.0, 1)], &[]);
        let d = inc.decide(&none, 1);
        assert_eq!(d.target, vec![agg(1)]);
        assert_eq!(inc.last_stats().deltas_ingested, 0);
    }

    #[test]
    fn removal_and_ineligibility_drop_from_index() {
        let mut inc = IncrementalDecisionEngine::new(DeConfig::paper());
        inc.ingest(&[demand(1, 100.0, 1), demand(2, 90.0, 1)], &[]);
        assert_eq!(inc.len(), 2);
        // Below the pps floor: treated as a removal.
        inc.ingest(&[demand(1, 0.5, 1)], &[]);
        assert_eq!(inc.len(), 1);
        // Explicit expiry.
        inc.ingest(&[], &[agg(2)]);
        assert!(inc.is_empty());
    }

    #[test]
    fn snapshot_sweeps_absent_aggregates() {
        let mut inc = IncrementalDecisionEngine::new(DeConfig::paper());
        inc.ingest_snapshot(&[demand(1, 100.0, 1), demand(2, 90.0, 1)]);
        assert_eq!(inc.len(), 2);
        inc.ingest_snapshot(&[demand(2, 90.0, 1)]);
        assert_eq!(inc.len(), 1);
        let d = inc.decide(&HashSet::new(), 8);
        assert_eq!(d.target, vec![agg(2)]);
    }

    #[test]
    fn selection_walk_is_bounded_by_the_budget() {
        let mut inc = IncrementalDecisionEngine::new(DeConfig::paper());
        let demands: Vec<AggDemand> = (0..10_000u16)
            .map(|i| demand(i, 10.0 + i as f64, 1))
            .collect();
        inc.ingest_snapshot(&demands);
        inc.decide(&HashSet::new(), 16);
        let st = inc.last_stats();
        assert_eq!(inc.len(), 10_000);
        assert!(
            st.scanned <= 17,
            "walk must touch only the top-k fringe, scanned {}",
            st.scanned
        );
    }
}
