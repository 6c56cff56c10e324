//! The Decision Engine's configuration and output (paper §4.3.2).
//!
//! The engine scores every active flow aggregate — software **and** already
//! offloaded — with `S = n × m_pps × c` (epochs active × median pps × tenant
//! priority), then selects the highest-scoring set that fits the ToR's
//! fast-path budget. Aggregates currently offloaded but no longer in the
//! winning set are demoted back to the vswitch. Partition-aggregate
//! applications can be declared as all-or-nothing **groups**: either every
//! member aggregate is offloaded or none is. The one engine is
//! [`crate::de_inc::IncrementalDecisionEngine`].

use std::collections::HashMap;

use fastrak_net::addr::TenantId;
use fastrak_net::flow::FlowAggregate;
use fastrak_sim::FxHashMap;

use crate::me::AggDemand;
use crate::policy::FastPathPolicy;

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

    /// The paper's ranking function `S = n × m_pps × c`, shared with the
    /// full-scan reference under `tests/support/` so their orders agree
    /// exactly.
    pub fn score(&self, d: &AggDemand) -> f64 {
        let c = self
            .tenant_priority
            .get(&d.agg.tenant())
            .copied()
            .unwrap_or(1.0);
        d.n_active as f64 * d.m_pps * c
    }

    /// An aggregate is eligible for ranking when its median rate clears the
    /// pps floor and its score is positive.
    pub fn eligible(&self, d: &AggDemand) -> bool {
        d.m_pps >= self.min_median_pps && self.score(d) > 0.0
    }

    /// Precompute the aggregate→group index (first containing group wins,
    /// matching the old linear `Vec::contains` scan order).
    pub fn group_index(&self) -> FxHashMap<FlowAggregate, usize> {
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
