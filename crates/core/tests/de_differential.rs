//! Differential suite: the decision engine versus the full-scan reference
//! in `support/`, both run side by side in-process.
//!
//! A seeded xorshift demand stream drives thousands of epochs through three
//! engines at once — the full-scan reference, a snapshot-fed
//! `IncrementalDecisionEngine` (the controller's feed), and a delta-fed one
//! — with the offloaded set evolving exactly as a controller would evolve it
//! (apply each round's target). Every round's `Decision` must be
//! structurally identical across all three, and replaying the same seed
//! must be bit-identical. `reference` holds the reference's own one-round
//! cases, `oracle` one-round cases of the engine against it.

mod support;

use std::collections::{HashMap, HashSet};

use fastrak::de::MIN_MEDIAN_PPS;
use fastrak::{AggDemand, DeConfig, Decision, FastPathPolicy, IncrementalDecisionEngine};
use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::flow::FlowAggregate;
use fastrak_sim::FxHashMap;
use support::DecisionEngine;

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
    /// Uniform float in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn agg(i: u64) -> FlowAggregate {
    FlowAggregate::DstApp {
        tenant: TenantId(1 + (i % 3) as u32),
        ip: Ip::tenant_vm(1 + (i / 7) as u16),
        port: (1 + i % 4096) as u16,
    }
}

/// Synthetic demand universe: `n` aggregates whose median rates random-walk
/// each epoch, a churn fraction appearing/disappearing, scores colliding
/// often enough to exercise the tie-breaks, and a share of rows below the
/// pps floor.
struct DemandStream {
    rng: Rng,
    rates: Vec<f64>,
    alive: Vec<bool>,
}

impl DemandStream {
    fn new(seed: u64, n: usize) -> DemandStream {
        let mut rng = Rng::new(seed);
        let rates = (0..n).map(|_| 10.0 + rng.below(1000) as f64).collect();
        DemandStream {
            rng,
            rates,
            alive: vec![true; n],
        }
    }

    /// Advance one epoch and return the full demand snapshot (engine input).
    fn tick(&mut self) -> Vec<AggDemand> {
        let n = self.rates.len();
        // ~10% of aggregates move each epoch; ~2% flip liveness.
        for _ in 0..n / 10 {
            let i = self.rng.below(n as u64) as usize;
            // Quantized moves so distinct aggregates frequently share a
            // score (ties must break deterministically).
            self.rates[i] =
                (self.rates[i] + (self.rng.below(21) as f64 - 10.0) * 25.0).clamp(0.0, 5000.0);
        }
        for _ in 0..(n / 50).max(1) {
            let i = self.rng.below(n as u64) as usize;
            self.alive[i] = !self.alive[i];
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if !self.alive[i] || self.rates[i] <= 0.0 {
                continue;
            }
            // Every eighth aggregate runs at a hundredth of its walk, so its
            // rows cross `MIN_MEDIAN_PPS` in both directions.
            let m_pps = if i % 8 == 0 {
                self.rates[i] / 100.0
            } else {
                self.rates[i]
            };
            out.push(AggDemand {
                agg: agg(i as u64),
                pps: m_pps * (0.9 + 0.2 * self.rng.f64()),
                bps: m_pps * 800.0,
                n_active: 1 + (i % 5) as u32,
                m_pps,
                m_bps: m_pps * 800.0,
            });
        }
        out
    }
}

/// Diff two consecutive snapshots into the delta-feed shape.
fn diff(prev: &[AggDemand], next: &[AggDemand]) -> (Vec<AggDemand>, Vec<FlowAggregate>) {
    let prev_map: std::collections::HashMap<FlowAggregate, &AggDemand> =
        prev.iter().map(|d| (d.agg, d)).collect();
    let next_set: HashSet<FlowAggregate> = next.iter().map(|d| d.agg).collect();
    let changed: Vec<AggDemand> = next
        .iter()
        .filter(|d| prev_map.get(&d.agg).is_none_or(|p| **p != **d))
        .copied()
        .collect();
    let removed: Vec<FlowAggregate> = prev
        .iter()
        .map(|d| d.agg)
        .filter(|a| !next_set.contains(a))
        .collect();
    (changed, removed)
}

/// Drive `epochs` rounds of one config through all three engines, evolving
/// the offloaded set from each round's target; return the decision log.
fn run_differential(cfg: DeConfig, seed: u64, n: usize, epochs: usize) -> Vec<Decision> {
    let oracle = DecisionEngine::new(cfg.clone());
    let mut snap = IncrementalDecisionEngine::new(cfg.clone());
    let mut delta = IncrementalDecisionEngine::new(cfg);
    let mut stream = DemandStream::new(seed, n);
    let mut offloaded: HashSet<FlowAggregate> = HashSet::new();
    let mut prev: Vec<AggDemand> = Vec::new();
    let budget = 32;
    let mut log = Vec::with_capacity(epochs);
    let mut below_floor = 0;
    for round in 0..epochs {
        let demands = stream.tick();
        let want = oracle.decide(&demands, &offloaded, budget);

        // Rows under the pps floor are neither indexed nor chosen.
        let low: HashSet<FlowAggregate> = demands
            .iter()
            .filter(|d| d.m_pps < MIN_MEDIAN_PPS)
            .map(|d| d.agg)
            .collect();
        below_floor += low.len();
        assert!(want.target.iter().all(|a| !low.contains(a)));

        snap.ingest_snapshot(&demands);
        assert_eq!(snap.len(), demands.len() - low.len(), "round {round}");
        let got_snap = snap.decide(&offloaded, budget);
        assert_eq!(got_snap, want, "snapshot-fed diverged at round {round}");

        let (changed, removed) = diff(&prev, &demands);
        delta.ingest(&changed, &removed);
        let got_delta = delta.decide(&offloaded, budget);
        assert_eq!(got_delta, want, "delta-fed diverged at round {round}");

        // Evolve the offloaded set the way the controller does.
        offloaded = want.target.iter().copied().collect();
        prev = demands;
        log.push(want);
    }
    assert!(below_floor > 0, "no row fell below the pps floor");
    log
}

#[test]
fn plain_config_agrees_over_thousands_of_epochs() {
    let decisions = run_differential(DeConfig::paper(), 0xFA57_0001, 400, 1200);
    // The run must actually exercise churn, not trivially empty rounds.
    assert!(decisions.iter().any(|d| !d.offload.is_empty()));
    assert!(decisions.iter().any(|d| !d.demote.is_empty()));
}

#[test]
fn hysteresis_config_agrees() {
    let mut cfg = DeConfig::paper();
    cfg.hysteresis = 2.0;
    let decisions = run_differential(cfg, 0xFA57_0002, 300, 1000);
    assert!(decisions.iter().any(|d| !d.offload.is_empty()));
}

#[test]
fn capped_config_agrees() {
    let mut cfg = DeConfig::paper();
    cfg.hysteresis = 1.5;
    cfg.max_offloaded = Some(24);
    let decisions = run_differential(cfg, 0xFA57_0003, 300, 1000);
    assert!(decisions.iter().any(|d| !d.offload.is_empty()));
}

#[test]
fn static_quota_policy_agrees() {
    let mut cfg = DeConfig::paper();
    cfg.policy = FastPathPolicy::StaticQuota {
        default_cap: 8,
        caps: FxHashMap::from_iter([(TenantId(2), 4)]),
    };
    let decisions = run_differential(cfg, 0xFA57_0004, 300, 1000);
    assert!(decisions.iter().any(|d| !d.offload.is_empty()));
    // The cap is enforced every round: a tenant may exceed its quota by at
    // most one entry, and only via the hysteresis incumbent-swap transient
    // (documented in `policy`). Tenants here are 1..=3 (`agg` maps i%3).
    for (round, d) in decisions.iter().enumerate() {
        let mut per_tenant: HashMap<TenantId, usize> = HashMap::new();
        for a in &d.target {
            *per_tenant.entry(a.tenant()).or_default() += 1;
        }
        for (t, n) in per_tenant {
            let cap = if t == TenantId(2) { 4 } else { 8 };
            assert!(
                n <= cap + 1,
                "round {round}: tenant {t:?} holds {n} entries, cap {cap}"
            );
        }
    }
}

#[test]
fn weighted_score_policy_agrees() {
    let mut cfg = DeConfig::paper();
    cfg.hysteresis = 1.5;
    cfg.policy = FastPathPolicy::WeightedScore {
        weights: FxHashMap::from_iter([(TenantId(1), 2.0), (TenantId(3), 0.5)]),
    };
    let decisions = run_differential(cfg, 0xFA57_0005, 300, 1000);
    assert!(decisions.iter().any(|d| !d.offload.is_empty()));
    assert!(decisions.iter().any(|d| !d.demote.is_empty()));
}

#[test]
fn weighted_policy_replay_is_bit_identical() {
    let mut cfg = DeConfig::paper();
    cfg.policy = FastPathPolicy::WeightedScore {
        weights: FxHashMap::from_iter([(TenantId(2), 3.0)]),
    };
    let a = run_differential(cfg.clone(), 0xFA57_0006, 250, 600);
    let b = run_differential(cfg, 0xFA57_0006, 250, 600);
    assert_eq!(a, b, "same seed must replay the same decision log");
}

#[test]
fn replay_is_bit_identical() {
    let mut cfg = DeConfig::paper();
    cfg.hysteresis = 1.8;
    let a = run_differential(cfg.clone(), 0xDEAD_BEEF, 250, 600);
    let b = run_differential(cfg, 0xDEAD_BEEF, 250, 600);
    assert_eq!(a, b, "same seed must replay the same decision log");
}

// ---------------------------------------------------------------------------
// One-round cases of the full-scan reference itself.
// ---------------------------------------------------------------------------

mod reference {
    use super::*;

    pub(super) fn agg(port: u16) -> FlowAggregate {
        FlowAggregate::DstApp {
            tenant: TenantId(1),
            ip: Ip::tenant_vm(9),
            port,
        }
    }

    pub(super) fn demand(port: u16, m_pps: f64, n: u32) -> AggDemand {
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
        let dec = de().decide(&[demand(1, 0.5, 5)], &HashSet::new(), 10);
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

    pub(super) fn tagg(tenant: u32, port: u16) -> FlowAggregate {
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
            caps: FxHashMap::default(),
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
            caps: FxHashMap::default(),
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
            weights: FxHashMap::default(),
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
            weights: FxHashMap::from_iter([(TenantId(2), 3.0)]),
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

// ---------------------------------------------------------------------------
// One-round cases of the incremental engine against the reference.
// ---------------------------------------------------------------------------

mod oracle {
    use super::reference::{agg, demand, tagg};
    use super::*;

    /// Snapshot-fed decisions must equal the full-scan reference's.
    fn assert_matches_oracle(
        cfg: DeConfig,
        demands: &[AggDemand],
        offloaded: &HashSet<FlowAggregate>,
        budget: usize,
    ) {
        let oracle = DecisionEngine::new(cfg.clone()).decide(demands, offloaded, budget);
        let mut inc = IncrementalDecisionEngine::new(cfg);
        inc.ingest_snapshot(demands);
        let got = inc.decide(offloaded, budget);
        assert_eq!(got, oracle);
    }

    #[test]
    fn top_k_matches_oracle() {
        let demands = vec![
            demand(1, 1000.0, 2),
            demand(2, 10.0, 2),
            demand(3, 500.0, 2),
        ];
        assert_matches_oracle(DeConfig::paper(), &demands, &HashSet::new(), 2);
    }

    #[test]
    fn hysteresis_band_matches_oracle() {
        let mut cfg = DeConfig::paper();
        cfg.hysteresis = 1.5;
        let mut offloaded = HashSet::new();
        offloaded.insert(agg(2));
        let demands = vec![demand(1, 110.0, 1), demand(2, 100.0, 1)];
        assert_matches_oracle(cfg.clone(), &demands, &offloaded, 1);
        // And the band actually suppressed the churn.
        let mut inc = IncrementalDecisionEngine::new(cfg);
        inc.ingest_snapshot(&demands);
        let d = inc.decide(&offloaded, 1);
        assert_eq!(d.target, vec![agg(2)], "incumbent survives the band");
        assert_eq!(inc.last_stats().churn_suppressed, 1);
        assert_eq!(inc.last_stats().band_crossers, 0);
    }

    #[test]
    fn tenant_policies_match_oracle() {
        let demands: Vec<AggDemand> = (0..12u16)
            .map(|i| AggDemand {
                agg: tagg(1 + (i % 3) as u32, i),
                pps: 100.0 + 37.0 * i as f64,
                bps: 1000.0,
                n_active: 1 + (i % 4) as u32,
                m_pps: 100.0 + 37.0 * i as f64,
                m_bps: 1000.0,
            })
            .collect();
        let policies = [
            FastPathPolicy::StaticQuota {
                default_cap: 2,
                caps: FxHashMap::from_iter([(TenantId(2), 1)]),
            },
            FastPathPolicy::WeightedScore {
                weights: FxHashMap::from_iter([(TenantId(1), 2.0), (TenantId(3), 0.5)]),
            },
        ];
        for policy in policies {
            let mut cfg = DeConfig::paper();
            cfg.policy = policy;
            for budget in [2usize, 4, 6, 12] {
                assert_matches_oracle(cfg.clone(), &demands, &HashSet::new(), budget);
            }
        }
    }
}
