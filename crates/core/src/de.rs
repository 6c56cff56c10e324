//! The Decision Engine's configuration and output (paper §4.3.2).
//!
//! The engine scores every active flow aggregate — software **and** already
//! offloaded — with `S = n × m_pps` (epochs active × median pps), then
//! admits aggregates one at a time in score order until the ToR's
//! fast-path budget is filled. Aggregates currently offloaded but no longer
//! in the winning set are demoted back to the vswitch. The paper's tenant
//! priority `c` is 1 for every tenant: per-tenant weighting is
//! [`FastPathPolicy::WeightedScore`]'s job. The one engine is
//! [`crate::de_inc::IncrementalDecisionEngine`].

use fastrak_net::flow::FlowAggregate;

use crate::me::AggDemand;
use crate::policy::FastPathPolicy;

/// Aggregates below this median pps are not ranked (offloading idle flows
/// wastes fast-path memory and churns rules).
pub const MIN_MEDIAN_PPS: f64 = 1.0;

/// Decision engine configuration.
#[derive(Debug, Clone)]
pub struct DeConfig {
    /// Optional cap on the number of offloaded aggregates (used by the
    /// paper's Table-4 experiment, which restricts FasTrak to one
    /// application).
    pub max_offloaded: Option<usize>,
    /// Hysteresis factor: an offloaded aggregate is only demoted in favour
    /// of a software aggregate scoring at least this multiple of its score.
    pub hysteresis: f64,
    /// How fast-path entries are shared across tenants (see
    /// [`crate::policy`]). `Unrestricted` is the paper's behaviour and
    /// adds no per-epoch cost.
    pub policy: FastPathPolicy,
}

impl DeConfig {
    /// Paper defaults: no cap, mild hysteresis, pure score order.
    pub fn paper() -> DeConfig {
        DeConfig {
            max_offloaded: None,
            hysteresis: 1.2,
            policy: FastPathPolicy::Unrestricted,
        }
    }

    /// The paper's ranking function `S = n × m_pps`, shared with the
    /// full-scan reference under `tests/support/` so their orders agree
    /// exactly.
    pub fn score(&self, d: &AggDemand) -> f64 {
        d.n_active as f64 * d.m_pps
    }

    /// An aggregate is eligible for ranking when its median rate clears
    /// [`MIN_MEDIAN_PPS`] and its score is positive.
    pub fn eligible(&self, d: &AggDemand) -> bool {
        d.m_pps >= MIN_MEDIAN_PPS && self.score(d) > 0.0
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
