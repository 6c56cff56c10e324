//! The Decision Engine (paper §4.3.2).
//!
//! Scores every active flow aggregate — software **and** already-offloaded —
//! with `S = n × m_pps × c` (epochs active × median pps × tenant priority),
//! then selects the highest-scoring set that fits the ToR's fast-path
//! budget. Aggregates currently offloaded but no longer in the winning set
//! are demoted back to the vswitch. Partition-aggregate applications can be
//! declared as all-or-nothing **groups**: either every member aggregate is
//! offloaded or none is.

use std::collections::{HashMap, HashSet};

use fastrak_net::addr::TenantId;
use fastrak_net::flow::FlowAggregate;
use fastrak_sim::FxHashMap;

use crate::me::AggDemand;
use crate::policy::{self, FastPathPolicy};

/// Decision engine configuration.
#[derive(Debug, Clone, Default)]
pub struct DeConfig {
    /// Tenant priority multipliers `c` (default 1.0).
    pub tenant_priority: HashMap<TenantId, f64>,
    /// Optional cap on the number of offloaded aggregates (used by the
    /// paper's Table-4 experiment, which restricts FasTrak to one
    /// application).
    pub max_offloaded: Option<usize>,
    /// Ignore aggregates below this median pps (offloading idle flows wastes
    /// fast-path memory and churns rules).
    pub min_median_pps: f64,
    /// Hysteresis factor: an offloaded aggregate is only demoted in favour
    /// of a software aggregate scoring at least this multiple of its score.
    pub hysteresis: f64,
    /// All-or-nothing groups.
    pub groups: Vec<Vec<FlowAggregate>>,
    /// How fast-path entries are shared across tenants (see
    /// [`crate::policy`]). `Unrestricted` is the paper's behaviour and
    /// adds no per-epoch cost.
    pub policy: FastPathPolicy,
}

impl DeConfig {
    /// Paper defaults: no priorities, tiny pps floor, mild hysteresis.
    pub fn paper() -> DeConfig {
        DeConfig {
            tenant_priority: HashMap::new(),
            max_offloaded: None,
            min_median_pps: 1.0,
            hysteresis: 1.2,
            groups: Vec::new(),
            policy: FastPathPolicy::Unrestricted,
        }
    }

    /// The paper's ranking function `S = n × m_pps × c`, shared by the
    /// full-scan and incremental engines so their orders agree exactly.
    pub fn score(&self, d: &AggDemand) -> f64 {
        let c = self
            .tenant_priority
            .get(&d.agg.tenant())
            .copied()
            .unwrap_or(1.0);
        d.n_active as f64 * d.m_pps * c
    }

    /// An aggregate is eligible for ranking when its median rate clears the
    /// pps floor and its score is positive (both engines apply this filter).
    pub fn eligible(&self, d: &AggDemand) -> bool {
        d.m_pps >= self.min_median_pps && self.score(d) > 0.0
    }

    /// Precompute the aggregate→group index (first containing group wins,
    /// matching the old linear `Vec::contains` scan order).
    pub(crate) fn group_index(&self) -> FxHashMap<FlowAggregate, usize> {
        let mut idx = FxHashMap::default();
        for (gi, g) in self.groups.iter().enumerate() {
            for a in g {
                idx.entry(*a).or_insert(gi);
            }
        }
        idx
    }
}

/// The outcome of one decision round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Decision {
    /// Aggregates to newly offload (not currently in hardware).
    pub offload: Vec<FlowAggregate>,
    /// Aggregates to demote back to software.
    pub demote: Vec<FlowAggregate>,
    /// The full target hardware set after applying this decision.
    pub target: Vec<FlowAggregate>,
}

/// One scored aggregate (exposed for ablation benches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// The aggregate.
    pub agg: FlowAggregate,
    /// Its score `S = n × m_pps × c`.
    pub score: f64,
}

/// The full-scan decision engine: re-ranks the world every round. Retained
/// as the differential oracle for [`crate::de_inc::IncrementalDecisionEngine`]
/// (`tests/de_differential.rs` runs both side by side) and as the reference
/// side of the `controller` benches; the controller never runs on it.
#[derive(Debug)]
pub struct DecisionEngine {
    /// Configuration.
    pub cfg: DeConfig,
    /// Aggregate → index into `cfg.groups` (first containing group wins),
    /// built once so group membership is an O(1) probe instead of a linear
    /// scan over every group per ranked item.
    group_idx: FxHashMap<FlowAggregate, usize>,
}

impl DecisionEngine {
    /// Build from config.
    pub fn new(cfg: DeConfig) -> DecisionEngine {
        let group_idx = cfg.group_index();
        DecisionEngine { cfg, group_idx }
    }

    /// The paper's ranking function.
    pub fn score(&self, d: &AggDemand) -> f64 {
        self.cfg.score(d)
    }

    /// Score all demands, descending.
    pub fn rank(&self, demands: &[AggDemand]) -> Vec<Scored> {
        let mut v: Vec<Scored> = demands
            .iter()
            .filter(|d| d.m_pps >= self.cfg.min_median_pps)
            .map(|d| Scored {
                agg: d.agg,
                score: self.score(d),
            })
            .filter(|s| s.score > 0.0)
            .collect();
        // Stable ordering: break score ties on the aggregate identity so
        // decisions do not depend on hash-map iteration order.
        v.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then_with(|| a.agg.cmp(&b.agg))
        });
        v
    }

    fn group_of(&self, agg: &FlowAggregate) -> Option<&[FlowAggregate]> {
        self.group_idx
            .get(agg)
            .map(|&gi| self.cfg.groups[gi].as_slice())
    }

    /// Decide the hardware set.
    ///
    /// * `demands` — the merged demand reports (software + hardware rates).
    /// * `offloaded` — the currently offloaded set.
    /// * `budget` — free fast-path entries **plus** the entries the current
    ///   offloaded set occupies (i.e. the total the DE may use).
    pub fn decide(
        &self,
        demands: &[AggDemand],
        offloaded: &HashSet<FlowAggregate>,
        budget: usize,
    ) -> Decision {
        let ranked = self.rank(demands);
        let cap = self.cfg.max_offloaded.map_or(budget, |m| m.min(budget));
        // Per-tenant fairness caps for this walk (no-op — and no cost —
        // under `Unrestricted`; `WeightedScore` consumes the rank order to
        // build bit-identical score masses in both engines).
        let mut tcaps = policy::caps_for_walk(
            &self.cfg.policy,
            cap,
            ranked.iter().map(|s| (s.agg.tenant(), s.score)),
        );

        let mut target: Vec<FlowAggregate> = Vec::new();
        let mut chosen: HashSet<FlowAggregate> = HashSet::new();
        for s in &ranked {
            if target.len() >= cap {
                break;
            }
            if chosen.contains(&s.agg) {
                continue;
            }
            // Hysteresis: a software aggregate must beat an incumbent by a
            // margin to evict it once the table would overflow. We apply it
            // cheaply: scale down challenger scores when the table is full.
            // (Selection is top-k, so applying the margin at the boundary
            // suffices; see tests.)
            match self.group_of(&s.agg) {
                Some(group) => {
                    if target.len() + group.len() <= cap
                        && tcaps.admit(
                            group
                                .iter()
                                .filter(|g| !chosen.contains(*g))
                                .map(|g| g.tenant()),
                        )
                    {
                        for g in group {
                            if chosen.insert(*g) {
                                target.push(*g);
                            }
                        }
                    }
                    // else: all-or-nothing — skip the whole group (budget
                    // overflow or a member tenant at cap).
                }
                None => {
                    if tcaps.admit([s.agg.tenant()]) {
                        chosen.insert(s.agg);
                        target.push(s.agg);
                    }
                    // else: tenant at cap — the walk continues so lower-
                    // scored tenants with headroom can still fill the table.
                }
            }
        }

        // Apply hysteresis at the boundary: if an incumbent fell just
        // outside the target while a newcomer squeaked in with less than
        // `hysteresis` advantage, keep the incumbent instead (avoids rule
        // churn when scores are noisy). The best displaced incumbent is the
        // same for every newcomer (neither `target` nor `offloaded` changes
        // during the pass), so it is computed once — the old per-newcomer
        // rescan of `offloaded` with a `target.contains` probe inside was
        // O(|target|·|offloaded|·|target|). Score ties between displaced
        // incumbents break toward the smaller aggregate (the one `rank`
        // orders first); the old `max_by` over a `HashSet` left ties to
        // iteration order, i.e. nondeterministic.
        let target_set: HashSet<FlowAggregate> = target.iter().copied().collect();
        if self.cfg.hysteresis > 1.0 {
            let score_of: HashMap<FlowAggregate, f64> =
                ranked.iter().map(|s| (s.agg, s.score)).collect();
            let displaced: Option<(f64, FlowAggregate)> = offloaded
                .iter()
                .filter(|o| !target_set.contains(o))
                .map(|o| (score_of.get(o).copied().unwrap_or(0.0), *o))
                .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then_with(|| b.1.cmp(&a.1)));
            if let Some((s_inc, inc)) = displaced {
                if s_inc > 0.0 {
                    let mut stable = target.clone();
                    for (i, t) in target.iter().enumerate() {
                        if offloaded.contains(t) {
                            continue; // already in hardware: no churn
                        }
                        let s_new = score_of.get(t).copied().unwrap_or(0.0);
                        if s_new < self.cfg.hysteresis * s_inc {
                            stable[i] = inc;
                        }
                    }
                    // De-duplicate while preserving order.
                    let mut seen = HashSet::new();
                    target = stable.into_iter().filter(|a| seen.insert(*a)).collect();
                }
            }
        }

        let target_set: HashSet<FlowAggregate> = target.iter().copied().collect();
        let offload = target
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
    use fastrak_net::addr::Ip;

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

    fn de() -> DecisionEngine {
        DecisionEngine::new(DeConfig::paper())
    }

    #[test]
    fn score_is_n_times_median_pps() {
        let d = de();
        assert_eq!(d.score(&demand(1, 100.0, 3)), 300.0);
    }

    #[test]
    fn tenant_priority_scales_score() {
        let mut cfg = DeConfig::paper();
        cfg.tenant_priority.insert(TenantId(1), 2.5);
        let d = DecisionEngine::new(cfg);
        assert_eq!(d.score(&demand(1, 100.0, 2)), 500.0);
    }

    #[test]
    fn top_k_by_budget() {
        let d = de();
        let demands = vec![
            demand(1, 1000.0, 2),
            demand(2, 10.0, 2),
            demand(3, 500.0, 2),
        ];
        let dec = d.decide(&demands, &HashSet::new(), 2);
        assert_eq!(dec.target, vec![agg(1), agg(3)]);
        assert_eq!(dec.offload, vec![agg(1), agg(3)]);
        assert!(dec.demote.is_empty());
    }

    #[test]
    fn low_rate_aggregates_filtered() {
        let mut cfg = DeConfig::paper();
        cfg.min_median_pps = 50.0;
        let d = DecisionEngine::new(cfg);
        let dec = d.decide(&[demand(1, 10.0, 5)], &HashSet::new(), 10);
        assert!(dec.target.is_empty());
    }

    #[test]
    fn demotes_aggregates_that_fell_out() {
        let d = de();
        let mut offloaded = HashSet::new();
        offloaded.insert(agg(9)); // was hot, now cold (absent from demands)
        let dec = d.decide(&[demand(1, 1000.0, 3)], &offloaded, 1);
        assert_eq!(dec.offload, vec![agg(1)]);
        assert_eq!(dec.demote, vec![agg(9)]);
    }

    #[test]
    fn hysteresis_keeps_marginal_incumbent() {
        let mut cfg = DeConfig::paper();
        cfg.hysteresis = 1.5;
        let d = DecisionEngine::new(cfg);
        let mut offloaded = HashSet::new();
        offloaded.insert(agg(2));
        // Challenger scores 1.1x the incumbent: below the 1.5 margin.
        let demands = vec![demand(1, 110.0, 1), demand(2, 100.0, 1)];
        let dec = d.decide(&demands, &offloaded, 1);
        assert_eq!(dec.target, vec![agg(2)], "incumbent survives");
        assert!(dec.offload.is_empty());
        assert!(dec.demote.is_empty());
    }

    #[test]
    fn hysteresis_yields_to_clear_winner() {
        let mut cfg = DeConfig::paper();
        cfg.hysteresis = 1.5;
        let d = DecisionEngine::new(cfg);
        let mut offloaded = HashSet::new();
        offloaded.insert(agg(2));
        let demands = vec![demand(1, 1000.0, 1), demand(2, 100.0, 1)];
        let dec = d.decide(&demands, &offloaded, 1);
        assert_eq!(dec.target, vec![agg(1)]);
        assert_eq!(dec.demote, vec![agg(2)]);
    }

    #[test]
    fn max_offloaded_caps_selection() {
        let mut cfg = DeConfig::paper();
        cfg.max_offloaded = Some(1);
        let d = DecisionEngine::new(cfg);
        let demands = vec![demand(1, 1000.0, 2), demand(2, 900.0, 2)];
        let dec = d.decide(&demands, &HashSet::new(), 100);
        assert_eq!(dec.target.len(), 1);
    }

    #[test]
    fn groups_all_or_nothing() {
        let mut cfg = DeConfig::paper();
        cfg.groups = vec![vec![agg(1), agg(2)]];
        let d = DecisionEngine::new(cfg);
        let demands = vec![demand(1, 1000.0, 2), demand(2, 1.5, 2), demand(3, 500.0, 2)];
        // Budget 2: the group fits (2 entries) and outranks agg(3).
        let dec = d.decide(&demands, &HashSet::new(), 2);
        assert!(dec.target.contains(&agg(1)) && dec.target.contains(&agg(2)));
        // Budget 1: the group cannot fit; agg(3) wins alone.
        let dec = d.decide(&demands, &HashSet::new(), 1);
        assert_eq!(dec.target, vec![agg(3)]);
    }

    fn tagg(tenant: u32, port: u16) -> FlowAggregate {
        FlowAggregate::DstApp {
            tenant: TenantId(tenant),
            ip: Ip::tenant_vm(9),
            port,
        }
    }

    fn tdemand(tenant: u32, port: u16, m_pps: f64) -> AggDemand {
        AggDemand {
            agg: tagg(tenant, port),
            pps: m_pps,
            bps: m_pps * 1000.0,
            n_active: 1,
            m_pps,
            m_bps: m_pps * 1000.0,
        }
    }

    #[test]
    fn static_quota_caps_a_dominating_tenant() {
        // Tenant 1's three aggregates outscore everything; unrestricted, it
        // takes 3 of the 4 entries.
        let demands = vec![
            tdemand(1, 1, 1000.0),
            tdemand(1, 2, 900.0),
            tdemand(1, 3, 800.0),
            tdemand(2, 4, 100.0),
            tdemand(2, 5, 90.0),
        ];
        let dec = de().decide(&demands, &HashSet::new(), 4);
        assert_eq!(
            dec.target,
            vec![tagg(1, 1), tagg(1, 2), tagg(1, 3), tagg(2, 4)]
        );
        // A 2-entry quota holds tenant 1 to its share; tenant 2's second
        // aggregate fills the freed entry.
        let mut cfg = DeConfig::paper();
        cfg.policy = FastPathPolicy::StaticQuota {
            default_cap: 2,
            caps: HashMap::new(),
        };
        let dec = DecisionEngine::new(cfg).decide(&demands, &HashSet::new(), 4);
        assert_eq!(
            dec.target,
            vec![tagg(1, 1), tagg(1, 2), tagg(2, 4), tagg(2, 5)]
        );
    }

    #[test]
    fn static_quota_is_not_work_conserving() {
        // Only tenant 1 has demand; its quota leaves the rest of the table
        // empty even though nobody else wants it.
        let demands: Vec<AggDemand> = (0..5).map(|p| tdemand(1, p, 500.0 + p as f64)).collect();
        let mut cfg = DeConfig::paper();
        cfg.policy = FastPathPolicy::StaticQuota {
            default_cap: 3,
            caps: HashMap::new(),
        };
        let dec = DecisionEngine::new(cfg).decide(&demands, &HashSet::new(), 6);
        assert_eq!(dec.target.len(), 3);
    }

    #[test]
    fn weighted_score_redistributes_unused_share() {
        // Tenant 1 holds most of the score mass but can only use one entry;
        // water-filling hands its leftover share to tenant 2.
        let mut demands = vec![tdemand(1, 1, 10_000.0)];
        demands.extend((0..6).map(|p| tdemand(2, 10 + p, 100.0)));
        let mut cfg = DeConfig::paper();
        cfg.policy = FastPathPolicy::WeightedScore {
            weights: HashMap::new(),
        };
        let dec = DecisionEngine::new(cfg).decide(&demands, &HashSet::new(), 6);
        assert_eq!(dec.target.len(), 6, "work-conserving: the table fills");
        let t2 = dec
            .target
            .iter()
            .filter(|a| a.tenant() == TenantId(2))
            .count();
        assert_eq!(t2, 5);
    }

    #[test]
    fn weighted_score_respects_weights() {
        // Equal per-aggregate scores; tenant 2 weighted 3×: of 4 entries it
        // gets 3.
        let demands: Vec<AggDemand> = (0..4)
            .map(|p| tdemand(1, p, 100.0))
            .chain((0..4).map(|p| tdemand(2, 10 + p, 100.0)))
            .collect();
        let mut cfg = DeConfig::paper();
        cfg.policy = FastPathPolicy::WeightedScore {
            weights: HashMap::from([(TenantId(2), 3.0)]),
        };
        let dec = DecisionEngine::new(cfg).decide(&demands, &HashSet::new(), 4);
        let t2 = dec
            .target
            .iter()
            .filter(|a| a.tenant() == TenantId(2))
            .count();
        assert_eq!(t2, 3, "3:1 weights over 4 entries: {:?}", dec.target);
    }

    #[test]
    fn already_offloaded_stays_without_churn() {
        let d = de();
        let mut offloaded = HashSet::new();
        offloaded.insert(agg(1));
        let dec = d.decide(&[demand(1, 1000.0, 3)], &offloaded, 4);
        assert!(dec.offload.is_empty());
        assert!(dec.demote.is_empty());
        assert_eq!(dec.target, vec![agg(1)]);
    }
}
