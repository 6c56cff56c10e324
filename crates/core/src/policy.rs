//! Pluggable fast-path allocation policies: per-tenant fairness for the
//! ToR's bounded fast-path memory.
//!
//! The paper assumes cooperative tenants competing only on score; OSMOSIS
//! and "Logically Isolated, Actually Unpredictable?" (PAPERS.md) show the
//! real multi-tenant failure mode is interference — an adversarial tenant
//! that thrashes the offloaded set starves its neighbours of fast-path
//! entries. A [`FastPathPolicy`] bounds how many entries each tenant's
//! aggregates may claim during the decision engine's greedy walk:
//!
//! * [`FastPathPolicy::Unrestricted`] — the paper's behaviour and the
//!   differential-oracle baseline: pure score order, no per-tenant
//!   bookkeeping (and none is paid: the walk sees a no-op tracker).
//! * [`FastPathPolicy::StaticQuota`] — a hard per-tenant entry cap.
//!   Predictable and simple, but not work-conserving: entries reserved for
//!   an idle tenant stay empty.
//! * [`FastPathPolicy::WeightedScore`] — OSMOSIS-style weighted fair share:
//!   each tenant's cap is its weighted share of the budget, weighted by
//!   `weight × Σ score` over its eligible aggregates, water-filled so share
//!   a tenant cannot use (fewer eligible aggregates than entries) is
//!   redistributed to the others. Work-conserving and demand-adaptive.
//!
//! The engine and the full-scan reference under `tests/support/` run this
//! one cap logic ([`caps_for_walk`]) in the identical order, so their
//! decisions stay bit-equal (asserted by the `de_differential` suite). For
//! `WeightedScore` that requires care with floating point: per-tenant score
//! mass is accumulated in **rank order** (the reference iterates its sorted
//! ranking, the engine its score-ordered index — the same sequence by
//! construction), so the f64 sums are bit-identical.
//!
//! **Hysteresis interaction.** The displaced-incumbent pass may
//! swap an already-installed incumbent back in place of a suppressed
//! newcomer *after* the capped walk. The incumbent is already in hardware,
//! so this can transiently hold a tenant one entry above its cap for the
//! round; the next round's walk re-evaluates from scratch and converges.
//! This is deliberate — the alternative (evicting the incumbent) is exactly
//! the rule churn hysteresis exists to avoid.

use std::collections::BTreeMap;

use fastrak_net::addr::TenantId;
use fastrak_sim::FxHashMap;

/// How fast-path entries are allocated across tenants (see module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub enum FastPathPolicy {
    /// Pure score order — the paper's behaviour, the oracle baseline.
    #[default]
    Unrestricted,
    /// Hard per-tenant entry caps (not work-conserving).
    StaticQuota {
        /// Cap for tenants without an explicit entry.
        default_cap: usize,
        /// Per-tenant overrides.
        caps: FxHashMap<TenantId, usize>,
    },
    /// Weighted fair share of entries by decision-engine score mass,
    /// water-filled (work-conserving).
    WeightedScore {
        /// Per-tenant weights (default 1.0).
        weights: FxHashMap<TenantId, f64>,
    },
}

impl FastPathPolicy {
    /// True for the zero-bookkeeping baseline policy.
    pub fn is_unrestricted(&self) -> bool {
        matches!(self, FastPathPolicy::Unrestricted)
    }
}

/// Per-walk tenant cap tracker. Built once per decide epoch by
/// [`caps_for_walk`]; the greedy walk asks it to admit each candidate and
/// it enforces the per-tenant budget. Under `Unrestricted` it is a no-op
/// that touches no state.
#[derive(Debug)]
pub struct TenantCaps {
    /// `None` → unrestricted: every admit succeeds without bookkeeping.
    caps: Option<CapTable>,
    used: FxHashMap<TenantId, usize>,
}

#[derive(Debug)]
struct CapTable {
    default_cap: usize,
    caps: FxHashMap<TenantId, usize>,
}

impl TenantCaps {
    fn unrestricted() -> TenantCaps {
        TenantCaps {
            caps: None,
            used: FxHashMap::default(),
        }
    }

    fn with_caps(default_cap: usize, caps: FxHashMap<TenantId, usize>) -> TenantCaps {
        TenantCaps {
            caps: Some(CapTable { default_cap, caps }),
            used: FxHashMap::default(),
        }
    }

    fn cap_of(table: &CapTable, t: TenantId) -> usize {
        table.caps.get(&t).copied().unwrap_or(table.default_cap)
    }

    /// Admit one aggregate of tenant `t` if the tenant stays within its
    /// cap; on success the entry is counted, on failure nothing is.
    pub fn admit(&mut self, t: TenantId) -> bool {
        let Some(table) = &self.caps else {
            return true;
        };
        let used = self.used.entry(t).or_insert(0);
        if *used >= Self::cap_of(table, t) {
            return false;
        }
        *used += 1;
        true
    }
}

/// Build the walk's cap tracker for one decide epoch.
///
/// `ranked` must yield `(tenant, score)` for every eligible aggregate **in
/// rank order** (score descending, aggregate ascending). It is consumed
/// only by `WeightedScore` — `Unrestricted` and `StaticQuota` never touch
/// it, so passing a lazy iterator keeps those policies free of the pass.
pub fn caps_for_walk<I>(policy: &FastPathPolicy, cap: usize, ranked: I) -> TenantCaps
where
    I: IntoIterator<Item = (TenantId, f64)>,
{
    match policy {
        FastPathPolicy::Unrestricted => TenantCaps::unrestricted(),
        FastPathPolicy::StaticQuota { default_cap, caps } => {
            TenantCaps::with_caps(*default_cap, caps.iter().map(|(t, c)| (*t, *c)).collect())
        }
        FastPathPolicy::WeightedScore { weights } => {
            // Per-tenant (score mass, eligible-aggregate count), summed in
            // rank order so engine and reference produce bit-identical f64
            // masses.
            let mut mass: BTreeMap<TenantId, (f64, usize)> = BTreeMap::new();
            for (t, score) in ranked {
                let e = mass.entry(t).or_insert((0.0, 0));
                e.0 += score;
                e.1 += 1;
            }
            let tenants: Vec<(TenantId, f64, usize)> = mass
                .iter()
                .map(|(t, (m, d))| {
                    let w = weights.get(t).copied().unwrap_or(1.0).max(0.0);
                    (*t, m * w, *d)
                })
                .collect();
            // Tenants absent from the mass table have no eligible
            // aggregates, so the walk never asks about them: default 0.
            TenantCaps::with_caps(0, weighted_caps(&tenants, cap))
        }
    }
}

/// Integer weighted max-min (water-filling) allocation of `cap` fast-path
/// entries across tenants.
///
/// Input: per tenant, its weighted score mass and its demand (the number of
/// eligible aggregates — the most entries it could use). Each round grants
/// tenants whose whole demand fits inside their proportional share of the
/// remaining entries, then re-divides what they left on the table among the
/// still-constrained tenants; the final round apportions by largest
/// remainder (ties break toward the smaller tenant id). Deterministic: the
/// input is sorted by tenant id and every f64 reduction runs in that order.
pub(crate) fn weighted_caps(
    tenants: &[(TenantId, f64, usize)],
    cap: usize,
) -> FxHashMap<TenantId, usize> {
    let mut alloc: FxHashMap<TenantId, usize> = tenants.iter().map(|&(t, _, _)| (t, 0)).collect();
    let mut active: Vec<(TenantId, f64, usize)> = tenants
        .iter()
        .copied()
        .filter(|&(_, m, d)| m > 0.0 && d > 0)
        .collect();
    active.sort_by_key(|&(t, _, _)| t);
    let mut remaining = cap;

    loop {
        if remaining == 0 || active.is_empty() {
            return alloc;
        }
        // NaN-safe: bail unless the mass sum is strictly positive.
        let total: f64 = active.iter().map(|a| a.1).sum();
        if total.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return alloc;
        }
        let r = remaining as f64;
        // Grant every tenant whose whole demand fits its share; their
        // leftover share water-fills to the rest next round.
        let mut granted_any = false;
        let mut still: Vec<(TenantId, f64, usize)> = Vec::with_capacity(active.len());
        for &(t, m, d) in &active {
            if d as f64 <= r * m / total {
                alloc.insert(t, d);
                remaining -= d;
                granted_any = true;
            } else {
                still.push((t, m, d));
            }
        }
        active = still;
        if granted_any {
            continue;
        }
        // Everyone left is constrained (demand exceeds share): apportion the
        // remaining entries by largest remainder and stop.
        let mut floors = 0usize;
        let mut rem: Vec<(f64, TenantId)> = Vec::with_capacity(active.len());
        for (i, &(t, m, d)) in active.iter().enumerate() {
            let share = r * m / total;
            let fl = share.floor() as usize;
            // demand > share ⇒ demand ≥ floor+1, so the floor always fits.
            debug_assert!(fl < d, "constrained tenant floor exceeds demand");
            alloc.insert(t, fl);
            floors += fl;
            rem.push((share - fl as f64, t));
            let _ = i;
        }
        let mut leftover = remaining - floors.min(remaining);
        rem.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1)));
        // One extra entry each in remainder order; cycle in the (f64-edge)
        // case where the floors undershot by more than the tenant count,
        // stopping when every tenant hits its demand.
        while leftover > 0 {
            let mut absorbed = false;
            for &(_, t) in &rem {
                if leftover == 0 {
                    break;
                }
                let d = active.iter().find(|&&(x, _, _)| x == t).unwrap().2;
                let a = alloc.get_mut(&t).unwrap();
                if *a < d {
                    *a += 1;
                    leftover -= 1;
                    absorbed = true;
                }
            }
            if !absorbed {
                break;
            }
        }
        return alloc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TenantId {
        TenantId(i)
    }

    #[test]
    fn equal_mass_splits_evenly() {
        let caps = weighted_caps(&[(t(1), 10.0, 100), (t(2), 10.0, 100)], 8);
        assert_eq!(caps[&t(1)], 4);
        assert_eq!(caps[&t(2)], 4);
    }

    #[test]
    fn unused_share_redistributes() {
        // Tenant 1 can only use 1 entry; its leftover share flows to 2.
        let caps = weighted_caps(&[(t(1), 10.0, 1), (t(2), 10.0, 100)], 8);
        assert_eq!(caps[&t(1)], 1);
        assert_eq!(caps[&t(2)], 7, "water-filling is work-conserving");
    }

    #[test]
    fn mass_proportional_with_remainder_to_heavier() {
        // 3:1 mass over 5 entries → ideal 3.75 / 1.25 → floors 3/1, the
        // leftover entry goes to the larger remainder (tenant 1).
        let caps = weighted_caps(&[(t(1), 30.0, 100), (t(2), 10.0, 100)], 5);
        assert_eq!(caps[&t(1)], 4);
        assert_eq!(caps[&t(2)], 1);
    }

    #[test]
    fn zero_mass_tenant_gets_nothing() {
        let caps = weighted_caps(&[(t(1), 0.0, 100), (t(2), 5.0, 100)], 4);
        assert_eq!(caps[&t(1)], 0);
        assert_eq!(caps[&t(2)], 4);
    }

    #[test]
    fn total_demand_below_cap_grants_everyone() {
        let caps = weighted_caps(&[(t(1), 1.0, 2), (t(2), 99.0, 3)], 32);
        assert_eq!(caps[&t(1)], 2);
        assert_eq!(caps[&t(2)], 3);
    }

    #[test]
    fn remainder_ties_break_toward_smaller_tenant() {
        // Equal masses, 3 entries over 2 tenants: equal remainders 0.5 —
        // the extra entry must go to the smaller tenant id.
        let caps = weighted_caps(&[(t(7), 10.0, 100), (t(2), 10.0, 100)], 3);
        assert_eq!(caps[&t(2)], 2);
        assert_eq!(caps[&t(7)], 1);
    }

    #[test]
    fn static_quota_tracker_enforces_caps() {
        let policy = FastPathPolicy::StaticQuota {
            default_cap: 1,
            caps: FxHashMap::from_iter([(t(1), 2)]),
        };
        let mut caps = caps_for_walk(&policy, 8, std::iter::empty());
        assert!(caps.admit(t(1)));
        assert!(caps.admit(t(1)));
        assert!(!caps.admit(t(1)), "tenant 1 capped at 2");
        assert!(caps.admit(t(2)));
        assert!(!caps.admit(t(2)), "default cap 1");
    }

    #[test]
    fn unrestricted_admits_everything() {
        let mut caps = caps_for_walk(&FastPathPolicy::Unrestricted, 1, std::iter::empty());
        for _ in 0..64 {
            assert!(caps.admit(t(9)));
        }
    }
}
