//! Benchmarks for the FasTrak controller's per-interval work:
//! measurement-engine folding, decision-engine ranking/selection, rule
//! synthesis, and the FPS split. These bound how many flows a single TOR
//! controller can manage per control interval (scalability, §4.3.3).
//!
//! Run with `cargo bench -p fastrak-bench --bench controller`.

use std::collections::HashSet;

use fastrak::de::DeConfig;
use fastrak::de_inc::IncrementalDecisionEngine;
use fastrak::fps::{fps_split, FpsInput};
use fastrak::me::{AggDemand, MeasurementEngine};
use fastrak::rules::RuleManager;
use fastrak::FastPathPolicy;
use fastrak_bench::harness::{black_box, Suite};
use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::ctrl::FlowStatEntry;
use fastrak_net::flow::{FlowAggregate, FlowKey, Proto};
use fastrak_sim::FxHashMap;

fn flow(i: u32) -> FlowKey {
    FlowKey {
        tenant: TenantId(1 + (i % 64)),
        src_ip: Ip(0x0a000000 | (i & 0x3fff)),
        dst_ip: Ip(0x0a100000 | ((i * 7) & 0x3fff)),
        proto: Proto::Tcp,
        src_port: (30_000 + (i % 30_000)) as u16,
        dst_port: (i % 500) as u16,
    }
}

fn stats(n: usize) -> Vec<FlowStatEntry> {
    (0..n as u32)
        .map(|i| FlowStatEntry {
            key: flow(i),
            packets: 1_000 + i as u64 * 13,
            bytes: 100_000 + i as u64 * 997,
        })
        .collect()
}

fn demands(n: usize) -> Vec<AggDemand> {
    (0..n as u32)
        .map(|i| AggDemand {
            agg: FlowAggregate::dst_of(&flow(i)),
            pps: (i as f64 * 17.0) % 50_000.0,
            bps: 1e6,
            n_active: 1 + i % 6,
            m_pps: (i as f64 * 13.0) % 40_000.0,
            m_bps: 1e6,
        })
        .collect()
}

/// Rotating delta batches for the incremental-engine benches: the row space
/// is cut into up to 8 disjoint churn-sized groups, and each group cycles
/// through four distinct re-pricing factors, so every application of a batch
/// really moves scores (same-score upserts are not deltas).
fn delta_batches(base: &[AggDemand], churn: usize) -> Vec<Vec<AggDemand>> {
    let n = base.len();
    let groups = (n / churn).clamp(1, 8);
    let factors = [0.85f64, 1.1, 0.95, 1.2];
    let mut batches = Vec::with_capacity(groups * factors.len());
    for f in factors {
        for g in 0..groups {
            batches.push(
                (0..churn)
                    .map(|j| {
                        let mut row = base[(g * churn + j) % n];
                        row.m_pps *= f;
                        row.pps *= f;
                        row
                    })
                    .collect(),
            );
        }
    }
    batches
}

/// Steady-state incremental epochs: warm index, fixed offloaded set, each
/// iteration ingests one churn batch and decides.
fn bench_incremental(s: &mut Suite, cfg: DeConfig, n: usize, churn_pct: usize, name: &str) {
    let d = demands(n);
    let mut inc = IncrementalDecisionEngine::new(cfg);
    inc.ingest_snapshot(&d);
    let offloaded: HashSet<FlowAggregate> = inc
        .decide(&HashSet::new(), 256)
        .target
        .into_iter()
        .collect();
    let churn = (n * churn_pct / 100).max(1);
    let batches = delta_batches(&d, churn);
    let mut epoch = 0usize;
    s.bench(name, || {
        let batch = &batches[epoch % batches.len()];
        epoch += 1;
        inc.ingest(black_box(batch), &[]);
        black_box(inc.decide(&offloaded, 256));
    });
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut s = Suite::new("controller");
    if quick {
        s = s.quick();
    }

    for &n in &[100usize, 1_000, 10_000] {
        let dump = stats(n);
        s.bench(&format!("measurement_engine_epoch/flows/{n}"), || {
            let mut me = MeasurementEngine::new(0.1, 6);
            me.epoch_sample_a(black_box(&dump));
            me.epoch_sample_b(black_box(&dump));
            black_box(me.report());
        });
    }

    // The production engine: incremental top-k, fed per-epoch demand deltas
    // (steady state: the index is warm, the offloaded set is the first
    // decide's target, and each epoch re-prices a churn fraction of rows).
    for &n in &[100usize, 1_000, 10_000, 100_000] {
        bench_incremental(
            &mut s,
            DeConfig::paper(),
            n,
            1,
            &format!("decision_engine_decide/aggregates/{n}"),
        );
    }

    // Churn sensitivity at fleet scale: per-epoch cost should track the
    // delta count, not the aggregate count.
    for &(pct, tag) in &[(1usize, "1pct"), (10, "10pct"), (100, "100pct")] {
        bench_incremental(
            &mut s,
            DeConfig::paper(),
            100_000,
            pct,
            &format!("decision_engine_decide_churn/100000/{tag}"),
        );
    }

    // Per-tenant fairness: the weighted-share policy adds a rank-order mass
    // pass over all live aggregates to every decide, so it gets its own
    // perf-gated curve (the paper's Unrestricted walk stays delta-priced).
    for &n in &[10_000usize, 100_000] {
        let mut cfg = DeConfig::paper();
        cfg.policy = FastPathPolicy::WeightedScore {
            weights: FxHashMap::from_iter([(TenantId(1), 2.0), (TenantId(5), 0.25)]),
        };
        bench_incremental(
            &mut s,
            cfg,
            n,
            1,
            &format!("decision_engine_decide_tenants/aggregates/{n}"),
        );
    }

    {
        let rm = RuleManager::new();
        let agg = FlowAggregate::dst_of(&flow(7));
        s.bench("rule_synthesis_default_policy", || {
            black_box(rm.synthesize(&agg, 10).unwrap());
        });
    }

    s.bench("fps_split", || {
        black_box(fps_split(FpsInput {
            limit_bps: 1_000_000_000,
            sw_demand_bps: 123e6,
            hw_demand_bps: 789e6,
            sw_maxed: false,
            hw_maxed: true,
        }));
    });

    s.finish();
}
