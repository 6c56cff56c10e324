//! Randomized-input tests for the controller logic: the decision engine
//! respects its budget and never double-selects, FPS splits stay within the
//! paper's `L + 2O` envelope, and rule synthesis never emits a hardware
//! allow that a tenant deny would have blocked in software. Inputs come
//! from the engine's own seeded [`fastrak_sim::Rng`] for exact replay.

mod support;

use std::collections::HashSet;

use fastrak::de::DeConfig;
use fastrak::fps::{fps_split, FpsInput, MIN_SHARE, OVERFLOW_FRAC};
use fastrak::me::AggDemand;
use fastrak::rules::{specs_intersect, RuleManager};
use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::flow::{FlowAggregate, FlowSpec};
use fastrak_net::rules::{Action, RuleSet, SecurityRule};
use fastrak_sim::Rng;
use support::DecisionEngine;

const CASES: usize = 128;

fn agg(i: u32) -> FlowAggregate {
    if i.is_multiple_of(2) {
        FlowAggregate::DstApp {
            tenant: TenantId(1 + i % 4),
            ip: Ip(0x0a000000 + (i / 2)),
            port: (1000 + i % 500) as u16,
        }
    } else {
        FlowAggregate::SrcApp {
            tenant: TenantId(1 + i % 4),
            ip: Ip(0x0a000000 + (i / 2)),
            port: (1000 + i % 500) as u16,
        }
    }
}

fn arb_demand(r: &mut Rng) -> AggDemand {
    let pps = r.f64() * 100_000.0;
    AggDemand {
        agg: agg(r.below(64) as u32),
        pps,
        bps: pps * 500.0,
        n_active: r.below(7) as u32,
        m_pps: pps * 0.8,
        m_bps: pps * 400.0,
    }
}

/// The target set never exceeds the budget, contains no duplicates, and
/// offload/demote are consistent with (target, currently-offloaded).
#[test]
fn decision_respects_budget_and_consistency() {
    let mut r = Rng::new(0xDEC1);
    for _ in 0..CASES {
        let demands: Vec<AggDemand> = (0..r.below(60)).map(|_| arb_demand(&mut r)).collect();
        let offloaded: HashSet<FlowAggregate> =
            (0..r.below(20)).map(|_| agg(r.below(64) as u32)).collect();
        let budget = r.below(32) as usize;
        let de = DecisionEngine::new(DeConfig::paper());
        let d = de.decide(&demands, &offloaded, budget);
        assert!(d.target.len() <= budget, "{} > {budget}", d.target.len());
        let uniq: HashSet<_> = d.target.iter().collect();
        assert_eq!(uniq.len(), d.target.len(), "duplicates in target");
        for o in &d.offload {
            assert!(d.target.contains(o));
            assert!(!offloaded.contains(o), "offload of already-offloaded {o:?}");
        }
        for dem in &d.demote {
            assert!(offloaded.contains(dem));
            assert!(!d.target.contains(dem), "demoted {dem:?} still in target");
        }
    }
}

/// With no hysteresis band, the chosen set is exactly the
/// top-k by score among eligible demands.
#[test]
fn decision_is_top_k_by_score() {
    let mut r = Rng::new(0x709C);
    for _ in 0..CASES {
        let demands_raw: Vec<AggDemand> = (0..r.range(1, 39)).map(|_| arb_demand(&mut r)).collect();
        let budget = r.range(1, 15) as usize;
        // One demand row per aggregate (duplicates would make "top-k by
        // score" ambiguous — the engine scores rows, not aggregates).
        let mut seen = HashSet::new();
        let demands: Vec<_> = demands_raw
            .into_iter()
            .filter(|d| seen.insert(d.agg))
            .collect();
        let mut cfg = DeConfig::paper();
        cfg.hysteresis = 1.0;
        let de = DecisionEngine::new(cfg);
        let d = de.decide(&demands, &HashSet::new(), budget);
        // Every selected aggregate's best score >= every unselected one's.
        let ranked = de.rank(&demands);
        let selected: HashSet<_> = d.target.iter().collect();
        let min_sel = ranked
            .iter()
            .filter(|s| selected.contains(&s.agg))
            .map(|s| s.score)
            .fold(f64::INFINITY, f64::min);
        let max_unsel = ranked
            .iter()
            .filter(|s| !selected.contains(&s.agg))
            .map(|s| s.score)
            .fold(0.0, f64::max);
        if !d.target.is_empty() && d.target.len() == budget.min(ranked.len()) {
            assert!(min_sel >= max_unsel - 1e-9, "{min_sel} < {max_unsel}");
        }
    }
}

/// FPS: the sum of the two limits never exceeds L(1 + 2·overflow), and
/// each side always gets a usable minimum share.
#[test]
fn fps_envelope() {
    let mut r = Rng::new(0x0F95);
    for _ in 0..CASES * 4 {
        let limit = r.range(1_000_000, 19_999_999_999);
        let sw = r.f64() * 20e9;
        let hw = r.f64() * 20e9;
        let sw_maxed = r.chance(0.5);
        let hw_maxed = r.chance(0.5);
        let s = fps_split(FpsInput {
            limit_bps: limit,
            sw_demand_bps: sw,
            hw_demand_bps: hw,
            sw_maxed,
            hw_maxed,
        });
        let bound = limit as f64 * (1.0 + 2.0 * OVERFLOW_FRAC) + 2.0;
        assert!((s.sw_bps + s.hw_bps) as f64 <= bound);
        let min_each = limit as f64 * MIN_SHARE; // before overflow
        assert!(s.sw_bps as f64 >= min_each, "sw starved: {s:?}");
        assert!(s.hw_bps as f64 >= min_each, "hw starved: {s:?}");
    }
}

/// Safety: if the rule manager synthesizes a hardware allow for an
/// aggregate, then no *winning* deny in the tenant policy intersects it.
#[test]
fn synthesis_never_bypasses_a_deny() {
    let mut r = Rng::new(0x5AFE);
    for _ in 0..CASES * 2 {
        let i = r.below(64) as u32;
        let deny_port = if r.chance(0.5) {
            Some(r.range(1000, 1499) as u16)
        } else {
            None
        };
        let deny_tenant = r.range(1, 4) as u32;
        let deny_prio = r.range(1, 19) as u16;
        let mut rm = RuleManager::new();
        let mut rs = RuleSet::new();
        let deny_spec = FlowSpec {
            tenant: Some(TenantId(deny_tenant)),
            dst_port: deny_port,
            ..FlowSpec::ANY
        };
        rs.add_security(SecurityRule {
            spec: deny_spec,
            priority: deny_prio,
            action: Action::Deny,
        });
        rm.set_policy(TenantId(deny_tenant), rs);
        let a = agg(i);
        match rm.synthesize(&a, 10) {
            Ok(rule) => {
                // The allow must not intersect the deny (different tenant or
                // disjoint ports).
                assert!(
                    !specs_intersect(&deny_spec, &rule.spec),
                    "allow {:?} intersects deny {:?}",
                    rule.spec,
                    deny_spec
                );
            }
            Err(_) => {
                // Refusal is always safe.
            }
        }
    }
}
