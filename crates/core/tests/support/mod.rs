//! The reference the controller's [`IncrementalDecisionEngine`] is checked
//! against: the full-scan decision engine (paper §4.3.2), which re-ranks the
//! world every round.
//!
//! It scores every active flow aggregate — software **and** already
//! offloaded — with `S = n × m_pps` (epochs active × median pps), sorts
//! them, and walks the order greedily, one aggregate at a time, until the
//! fast-path budget is filled. Aggregates currently offloaded but no longer
//! in the winning set are demoted back to the vswitch. O(n log n) per round
//! plus the boundary hysteresis pass: obviously correct rather than fast.
//!
//! [`IncrementalDecisionEngine`]: fastrak::IncrementalDecisionEngine

use std::collections::{HashMap, HashSet};

use fastrak::de::MIN_MEDIAN_PPS;
use fastrak::policy;
use fastrak::{AggDemand, DeConfig, Decision};
use fastrak_net::flow::FlowAggregate;

/// One scored aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// The aggregate.
    pub agg: FlowAggregate,
    /// Its score `S = n × m_pps`.
    pub score: f64,
}

/// The full-scan decision engine.
#[derive(Debug)]
pub struct DecisionEngine {
    /// Configuration.
    pub cfg: DeConfig,
}

impl DecisionEngine {
    /// Build from config.
    pub fn new(cfg: DeConfig) -> DecisionEngine {
        DecisionEngine { cfg }
    }

    /// The paper's ranking function.
    pub fn score(&self, d: &AggDemand) -> f64 {
        self.cfg.score(d)
    }

    /// Score all demands, descending.
    pub fn rank(&self, demands: &[AggDemand]) -> Vec<Scored> {
        let mut v: Vec<Scored> = demands
            .iter()
            .filter(|d| d.m_pps >= MIN_MEDIAN_PPS)
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
        // Per-tenant fairness caps for this walk (no-op under
        // `Unrestricted`; `WeightedScore` consumes the rank order to build
        // the same score masses as the incremental engine).
        let mut tcaps = policy::caps_for_walk(
            &self.cfg.policy,
            cap,
            ranked.iter().map(|s| (s.agg.tenant(), s.score)),
        );

        // `demands` may list one aggregate twice; `chosen` admits it once.
        let mut target: Vec<FlowAggregate> = Vec::new();
        let mut chosen: HashSet<FlowAggregate> = HashSet::new();
        for s in &ranked {
            if target.len() >= cap {
                break;
            }
            if chosen.contains(&s.agg) {
                continue;
            }
            // A tenant at cap is skipped: the walk continues so lower-
            // scored tenants with headroom can still fill the table.
            if tcaps.admit(s.agg.tenant()) {
                chosen.insert(s.agg);
                target.push(s.agg);
            }
        }

        // Hysteresis at the boundary: if an incumbent fell just outside the
        // target while a newcomer squeaked in with less than `hysteresis`
        // advantage, keep the incumbent instead (avoids rule churn when
        // scores are noisy). The best displaced incumbent is the same for
        // every newcomer, so it is computed once; score ties between
        // displaced incumbents break toward the smaller aggregate (the one
        // `rank` orders first).
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
