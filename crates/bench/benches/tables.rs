//! Micro-benchmarks for the match tables on the per-packet hot path: the
//! OVS kernel cache and flow placer (exact match, O(1) by design — §2.2)
//! and the ToR's priority wildcard table.
//!
//! Run with `cargo bench -p fastrak-bench --bench tables`.

use fastrak_bench::harness::{black_box, Suite};
use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::flow::{FlowKey, FlowSpec, Proto};
use fastrak_net::tables::{ExactMatchTable, WildcardTable};

fn key(i: u32) -> FlowKey {
    FlowKey {
        tenant: TenantId(1 + (i % 16)),
        src_ip: Ip(0x0a000000 | (i & 0xffff)),
        dst_ip: Ip(0x0a010000 | ((i >> 3) & 0xffff)),
        proto: Proto::Tcp,
        src_port: (40_000 + (i % 20_000)) as u16,
        dst_port: 11_211,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut s = Suite::new("tables");
    if quick {
        s = s.quick();
    }

    for &n in &[16usize, 1_024, 65_536] {
        let mut t = ExactMatchTable::new();
        for i in 0..n as u32 {
            t.insert(key(i), i);
        }
        let mut i = 0u32;
        s.bench(&format!("exact_match_lookup/hit/{n}"), || {
            i = (i + 1) % n as u32;
            black_box(t.lookup(&key(i), 1500).copied());
        });
        s.bench(&format!("exact_match_lookup/miss/{n}"), || {
            black_box(t.lookup(&key(n as u32 + 7), 1500).copied());
        });
    }

    // Control: the same exact-match workload on a std (SipHash) map. The
    // delta against exact_match_lookup/hit/1024 is the measured win from
    // the FxHash adoption across the per-packet maps.
    {
        let mut t: std::collections::HashMap<FlowKey, u32> = std::collections::HashMap::new();
        for i in 0..1_024u32 {
            t.insert(key(i), i);
        }
        let mut i = 0u32;
        s.bench("exact_match_lookup/hit/1024_siphash_control", || {
            i = (i + 1) % 1_024;
            black_box(t.get(&key(i)).copied());
        });
    }

    // The paper's observation: 10,000 installed rules cost nothing on the
    // fast path (hash hit) but the slow path scans linearly. The wildcard
    // table is the slow-path/TCAM model.
    for &n in &[10usize, 250, 2_048] {
        let mut t = WildcardTable::new(n + 1);
        for i in 0..n as u32 {
            t.install(
                FlowSpec {
                    tenant: Some(TenantId(1 + (i % 16))),
                    dst_port: Some((i % 60_000) as u16),
                    ..FlowSpec::ANY
                },
                (i % 100) as u16,
                i,
            )
            .unwrap();
        }
        s.bench(&format!("wildcard_lookup/scan/{n}"), || {
            black_box(t.lookup(&key(3), 1500).copied());
        });
    }

    {
        use fastrak_host::bonding::FlowPlacer;
        use fastrak_net::packet::PathTag;
        let mut p = FlowPlacer::new();
        for i in 0..64u32 {
            p.install_rule(
                FlowSpec {
                    tenant: Some(TenantId(1)),
                    dst_port: Some(10_000 + i as u16),
                    ..FlowSpec::ANY
                },
                10,
                PathTag::SrIov,
            );
        }
        // Warm the exact-match cache.
        for i in 0..4_096u32 {
            p.place(&key(i));
        }
        let mut i = 0u32;
        s.bench("flow_placer_cached_place", || {
            i = (i + 1) % 4_096;
            black_box(p.place(&key(i)));
        });
    }

    s.finish();
}
