//! Randomized-input tests for the data-plane vocabulary: header codecs
//! round-trip arbitrary field values, the checksum detects corruption,
//! spec matching/covering form a consistent partial order, and the bounded
//! wildcard table never loses or invents rules.
//!
//! All inputs come from the engine's own seeded [`fastrak_sim::Rng`], so
//! every run exercises the identical case list — failures reproduce exactly.

use fastrak_net::addr::{Ip, Mac, TenantId};
use fastrak_net::checksum::{internet_checksum, verify};
use fastrak_net::flow::{FlowKey, FlowSpec, Proto};
use fastrak_net::headers::*;
use fastrak_net::tables::WildcardTable;
use fastrak_net::wire::BytesMut;
use fastrak_sim::Rng;

const CASES: usize = 256;

fn arb_ip(r: &mut Rng) -> Ip {
    Ip(r.next_u64() as u32)
}

fn arb_mac(r: &mut Rng) -> Mac {
    let w = r.next_u64().to_be_bytes();
    Mac([w[0], w[1], w[2], w[3], w[4], w[5]])
}

fn arb_proto(r: &mut Rng) -> Proto {
    if r.chance(0.5) {
        Proto::Tcp
    } else {
        Proto::Udp
    }
}

fn arb_key(r: &mut Rng) -> FlowKey {
    FlowKey {
        tenant: TenantId(r.below(8) as u32),
        src_ip: Ip(r.below(64) as u32),
        dst_ip: Ip(r.below(64) as u32),
        proto: arb_proto(r),
        src_port: r.below(128) as u16,
        dst_port: r.below(128) as u16,
    }
}

fn opt<T>(r: &mut Rng, f: impl FnOnce(&mut Rng) -> T) -> Option<T> {
    if r.chance(0.5) {
        Some(f(r))
    } else {
        None
    }
}

fn arb_spec(r: &mut Rng) -> FlowSpec {
    FlowSpec {
        tenant: opt(r, |r| TenantId(r.below(8) as u32)),
        src_ip: opt(r, |r| Ip(r.below(64) as u32)),
        dst_ip: opt(r, |r| Ip(r.below(64) as u32)),
        proto: opt(r, arb_proto),
        src_port: opt(r, |r| r.below(128) as u16),
        dst_port: opt(r, |r| r.below(128) as u16),
    }
}

#[test]
fn ethernet_roundtrip() {
    let mut r = Rng::new(0xE7E7);
    for _ in 0..CASES {
        // 0x8100 as the payload ethertype would be read as a second tag.
        let et = loop {
            let et = r.next_u64() as u16;
            if et != ethertype::VLAN {
                break et;
            }
        };
        let h = EthernetHeader {
            dst: arb_mac(&mut r),
            src: arb_mac(&mut r),
            vlan: opt(&mut r, |r| r.range(1, 4094) as u16),
            ethertype: et,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut s = &buf[..];
        assert_eq!(EthernetHeader::decode(&mut s).unwrap(), h);
        assert!(s.is_empty());
    }
}

#[test]
fn ipv4_roundtrip() {
    let mut r = Rng::new(0x1b44);
    for _ in 0..CASES {
        let h = Ipv4Header {
            src: arb_ip(&mut r),
            dst: arb_ip(&mut r),
            protocol: r.next_u64() as u8,
            total_len: r.next_u64() as u16,
            dscp_ecn: r.next_u64() as u8,
            ttl: r.next_u64() as u8,
            ident: r.next_u64() as u16,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut s = &buf[..];
        assert_eq!(Ipv4Header::decode(&mut s).unwrap(), h);
    }
}

#[test]
fn ipv4_single_byte_corruption_detected() {
    let mut r = Rng::new(0xC0DE);
    for _ in 0..CASES {
        let h = Ipv4Header {
            src: arb_ip(&mut r),
            dst: arb_ip(&mut r),
            protocol: 6,
            total_len: 1500,
            dscp_ecn: 0,
            ttl: 64,
            ident: 7,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let byte = r.below(20) as usize;
        let flip = r.range(1, 255) as u8;
        buf[byte] ^= flip;
        let mut s = &buf[..];
        // Either the checksum or a structural check must reject it (a flip
        // in the version byte may also trip the version check).
        assert!(Ipv4Header::decode(&mut s).is_err());
    }
}

#[test]
fn tcp_roundtrip() {
    let mut r = Rng::new(0x7C9);
    for _ in 0..CASES {
        let h = TcpHeader {
            src_port: r.next_u64() as u16,
            dst_port: r.next_u64() as u16,
            seq: r.next_u64() as u32,
            ack: r.next_u64() as u32,
            flags: r.next_u64() as u8,
            window: r.next_u64() as u16,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut s = &buf[..];
        assert_eq!(TcpHeader::decode(&mut s).unwrap(), h);
    }
}

#[test]
fn gre_roundtrip() {
    let mut r = Rng::new(0x62E);
    for _ in 0..CASES {
        let h = GreHeader {
            key: r.next_u64() as u32,
            protocol: r.next_u64() as u16,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut s = &buf[..];
        assert_eq!(GreHeader::decode(&mut s).unwrap(), h);
    }
}

#[test]
fn vxlan_roundtrip() {
    let mut r = Rng::new(0x8472);
    for _ in 0..CASES {
        let vni = r.below(0x0100_0000) as u32;
        let h = VxlanHeader { vni };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut s = &buf[..];
        assert_eq!(VxlanHeader::decode(&mut s).unwrap().vni, vni);
    }
}

#[test]
fn checksum_verifies_own_output() {
    let mut r = Rng::new(0xCCCC);
    for _ in 0..CASES {
        // Even-length data followed by its checksum always verifies.
        let len = (r.below(64) * 2) as usize;
        let data: Vec<u8> = (0..len).map(|_| r.next_u64() as u8).collect();
        let ck = internet_checksum(&data);
        let mut with = data.clone();
        with.extend_from_slice(&ck.to_be_bytes());
        assert!(verify(&with));
    }
}

#[test]
fn exact_spec_matches_only_its_key() {
    let mut r = Rng::new(0xEA57);
    for _ in 0..CASES {
        let k = arb_key(&mut r);
        let other = arb_key(&mut r);
        let s = FlowSpec {
            tenant: Some(k.tenant),
            src_ip: Some(k.src_ip),
            dst_ip: Some(k.dst_ip),
            proto: Some(k.proto),
            src_port: Some(k.src_port),
            dst_port: Some(k.dst_port),
        };
        assert!(s.matches(&k));
        if other != k {
            assert!(!s.matches(&other));
        }
    }
}

#[test]
fn covers_implies_matches_superset() {
    let mut r = Rng::new(0x5EC);
    for _ in 0..CASES * 4 {
        let a = arb_spec(&mut r);
        let b = arb_spec(&mut r);
        let k = arb_key(&mut r);
        // If a covers b, then any key b matches, a must match too.
        if a.covers(&b) && b.matches(&k) {
            assert!(a.matches(&k));
        }
    }
}

#[test]
fn covers_is_reflexive_and_any_covers_all() {
    let mut r = Rng::new(0x2EF);
    for _ in 0..CASES {
        let a = arb_spec(&mut r);
        assert!(a.covers(&a));
        assert!(FlowSpec::ANY.covers(&a));
    }
}

#[test]
fn wildcard_table_conserves_rules() {
    let mut r = Rng::new(0x71B1);
    for _ in 0..CASES {
        let n = r.range(1, 39) as usize;
        let specs: Vec<(FlowSpec, u16)> = (0..n)
            .map(|_| {
                let s = arb_spec(&mut r);
                let p = r.below(16) as u16;
                (s, p)
            })
            .collect();
        let key = arb_key(&mut r);
        let mut t = WildcardTable::new(64);
        for (i, (spec, prio)) in specs.iter().enumerate() {
            t.install(*spec, *prio, i).unwrap();
        }
        assert_eq!(t.len(), specs.len());
        // The winner, if any, must (a) match the key, and (b) have the
        // maximum priority among matching rules.
        let best_prio = specs
            .iter()
            .filter(|(s, _)| s.matches(&key))
            .map(|(_, p)| *p)
            .max();
        match (t.lookup(&key, 1), best_prio) {
            (Some(&idx), Some(bp)) => {
                assert!(specs[idx].0.matches(&key));
                assert_eq!(specs[idx].1, bp);
            }
            (None, None) => {}
            (got, want) => panic!("lookup {got:?} vs best {want:?}"),
        }
    }
}

#[test]
fn wildcard_remove_is_exact() {
    let mut r = Rng::new(0x4E40);
    let mut done = 0;
    while done < CASES {
        let a = arb_spec(&mut r);
        let b = arb_spec(&mut r);
        if a == b {
            continue;
        }
        done += 1;
        let mut t = WildcardTable::new(8);
        t.install(a, 1, 0u32).unwrap();
        t.install(b, 1, 1u32).unwrap();
        assert_eq!(t.remove_spec(&a), 1);
        assert!(!t.contains_spec(&a));
        assert!(t.contains_spec(&b));
    }
}
