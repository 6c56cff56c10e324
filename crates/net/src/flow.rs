//! Flow identification.
//!
//! The paper specifies a flow by a 6-tuple — source/destination IPs, L4
//! ports, L4 protocol **and a tenant ID** (§4.3.1) — because tenant IP spaces
//! overlap. Flow *aggregates* are wildcarded rules covering more than one
//! flow; the Measurement Engine's rule of thumb aggregates per VM per
//! application: `<src VM IP, src L4 port, tenant>` for outgoing and
//! `<dst VM IP, dst L4 port, tenant>` for incoming traffic.

use crate::addr::{Ip, TenantId};

/// L4 protocol of a flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Proto {
    /// Transmission Control Protocol (IP proto 6).
    Tcp,
    /// User Datagram Protocol (IP proto 17).
    Udp,
}

impl Proto {
    /// IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            Proto::Tcp => 6,
            Proto::Udp => 17,
        }
    }

    /// Parse from an IANA protocol number.
    pub fn from_number(n: u8) -> Option<Proto> {
        match n {
            6 => Some(Proto::Tcp),
            17 => Some(Proto::Udp),
            _ => None,
        }
    }
}

/// The paper's 6-tuple flow identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowKey {
    /// Owning tenant (disambiguates overlapping tenant IP spaces).
    pub tenant: TenantId,
    /// Source tenant IP.
    pub src_ip: Ip,
    /// Destination tenant IP.
    pub dst_ip: Ip,
    /// L4 protocol.
    pub proto: Proto,
    /// Source L4 port.
    pub src_port: u16,
    /// Destination L4 port.
    pub dst_port: u16,
}

impl FlowKey {
    /// The reverse direction of this flow (responses).
    pub fn reverse(self) -> FlowKey {
        FlowKey {
            tenant: self.tenant,
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            proto: self.proto,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// Stable 64-bit hash for traces (FNV-1a over the tuple).
    pub fn trace_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        mix(self.tenant.0 as u64);
        mix(self.src_ip.0 as u64);
        mix(self.dst_ip.0 as u64);
        mix(self.proto.number() as u64);
        mix(self.src_port as u64);
        mix(self.dst_port as u64);
        h
    }
}

/// A wildcardable flow pattern: `None` fields match anything.
/// This is the vocabulary of security rules, QoS rules, and flow-placer
/// redirection rules.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct FlowSpec {
    /// Match on tenant (rules are almost always tenant-scoped).
    pub tenant: Option<TenantId>,
    /// Match on source tenant IP.
    pub src_ip: Option<Ip>,
    /// Match on destination tenant IP.
    pub dst_ip: Option<Ip>,
    /// Match on L4 protocol.
    pub proto: Option<Proto>,
    /// Match on source port.
    pub src_port: Option<u16>,
    /// Match on destination port.
    pub dst_port: Option<u16>,
}

impl FlowSpec {
    /// The fully-wildcarded spec (matches everything).
    pub const ANY: FlowSpec = FlowSpec {
        tenant: None,
        src_ip: None,
        dst_ip: None,
        proto: None,
        src_port: None,
        dst_port: None,
    };

    /// All flows of one tenant.
    pub fn tenant(t: TenantId) -> FlowSpec {
        FlowSpec {
            tenant: Some(t),
            ..FlowSpec::ANY
        }
    }

    /// Does this spec match the given key?
    pub fn matches(&self, k: &FlowKey) -> bool {
        self.tenant.is_none_or(|v| v == k.tenant)
            && self.src_ip.is_none_or(|v| v == k.src_ip)
            && self.dst_ip.is_none_or(|v| v == k.dst_ip)
            && self.proto.is_none_or(|v| v == k.proto)
            && self.src_port.is_none_or(|v| v == k.src_port)
            && self.dst_port.is_none_or(|v| v == k.dst_port)
    }

    /// Number of concrete (non-wildcard) fields; higher = more specific.
    /// Used by the rule manager to synthesize "the rule that most
    /// specifically defines the policy for the flow being offloaded" (§4.3).
    pub fn specificity(&self) -> u32 {
        self.tenant.is_some() as u32
            + self.src_ip.is_some() as u32
            + self.dst_ip.is_some() as u32
            + self.proto.is_some() as u32
            + self.src_port.is_some() as u32
            + self.dst_port.is_some() as u32
    }

    /// True when `other` can only match keys this spec also matches.
    pub fn covers(&self, other: &FlowSpec) -> bool {
        fn field<T: PartialEq>(a: Option<T>, b: Option<T>) -> bool {
            match (a, b) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(x), Some(y)) => x == y,
            }
        }
        field(self.tenant, other.tenant)
            && field(self.src_ip, other.src_ip)
            && field(self.dst_ip, other.dst_ip)
            && field(self.proto, other.proto)
            && field(self.src_port, other.src_port)
            && field(self.dst_port, other.dst_port)
    }
}

/// A measurement/offload aggregate over flows (paper §4.3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum FlowAggregate {
    /// All traffic *from* a VM application endpoint:
    /// `<src VM IP, src L4 port, tenant>`.
    SrcApp {
        /// Owning tenant.
        tenant: TenantId,
        /// Source VM tenant IP.
        ip: Ip,
        /// Source (application) port.
        port: u16,
    },
    /// All traffic *to* a VM application endpoint:
    /// `<dst VM IP, dst L4 port, tenant>`.
    DstApp {
        /// Owning tenant.
        tenant: TenantId,
        /// Destination VM tenant IP.
        ip: Ip,
        /// Destination (application) port.
        port: u16,
    },
}

impl FlowAggregate {
    /// The outgoing-side aggregate a flow folds into.
    pub fn src_of(k: &FlowKey) -> FlowAggregate {
        FlowAggregate::SrcApp {
            tenant: k.tenant,
            ip: k.src_ip,
            port: k.src_port,
        }
    }

    /// The incoming-side aggregate a flow folds into.
    pub fn dst_of(k: &FlowKey) -> FlowAggregate {
        FlowAggregate::DstApp {
            tenant: k.tenant,
            ip: k.dst_ip,
            port: k.dst_port,
        }
    }

    /// Does this aggregate cover the given flow?
    pub fn matches(&self, k: &FlowKey) -> bool {
        match *self {
            FlowAggregate::SrcApp { tenant, ip, port } => {
                k.tenant == tenant && k.src_ip == ip && k.src_port == port
            }
            FlowAggregate::DstApp { tenant, ip, port } => {
                k.tenant == tenant && k.dst_ip == ip && k.dst_port == port
            }
        }
    }

    /// The wildcard spec equivalent (for rule installation).
    pub fn to_spec(&self) -> FlowSpec {
        match *self {
            FlowAggregate::SrcApp { tenant, ip, port } => FlowSpec {
                tenant: Some(tenant),
                src_ip: Some(ip),
                src_port: Some(port),
                ..FlowSpec::ANY
            },
            FlowAggregate::DstApp { tenant, ip, port } => FlowSpec {
                tenant: Some(tenant),
                dst_ip: Some(ip),
                dst_port: Some(port),
                ..FlowSpec::ANY
            },
        }
    }

    /// Owning tenant.
    pub fn tenant(&self) -> TenantId {
        match *self {
            FlowAggregate::SrcApp { tenant, .. } | FlowAggregate::DstApp { tenant, .. } => tenant,
        }
    }

    /// The inverse of [`FlowAggregate::to_spec`]: recover the aggregate a
    /// ToR rule was synthesized from. A controller that lost its memory
    /// (warm restart) rebuilds its offloaded set from a `DumpTorRules`
    /// snapshot through this mapping. Returns `None` for specs that no
    /// aggregate produces (hand-installed or foreign rules).
    pub fn from_spec(spec: &FlowSpec) -> Option<FlowAggregate> {
        let tenant = spec.tenant?;
        match (spec.src_ip, spec.src_port, spec.dst_ip, spec.dst_port) {
            (Some(ip), Some(port), None, None) if spec.proto.is_none() => {
                Some(FlowAggregate::SrcApp { tenant, ip, port })
            }
            (None, None, Some(ip), Some(port)) if spec.proto.is_none() => {
                Some(FlowAggregate::DstApp { tenant, ip, port })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey {
            tenant: TenantId(7),
            src_ip: Ip::new(10, 0, 0, 1),
            dst_ip: Ip::new(10, 0, 0, 2),
            proto: Proto::Tcp,
            src_port: 40000,
            dst_port: 11211,
        }
    }

    /// The spec that names every field of `k`.
    fn exact(k: FlowKey) -> FlowSpec {
        FlowSpec {
            tenant: Some(k.tenant),
            src_ip: Some(k.src_ip),
            dst_ip: Some(k.dst_ip),
            proto: Some(k.proto),
            src_port: Some(k.src_port),
            dst_port: Some(k.dst_port),
        }
    }

    #[test]
    fn reverse_is_involution() {
        let k = key();
        assert_eq!(k.reverse().reverse(), k);
        assert_eq!(k.reverse().src_ip, k.dst_ip);
        assert_eq!(k.reverse().dst_port, k.src_port);
    }

    #[test]
    fn exact_spec_matches_only_its_key() {
        let k = key();
        let s = exact(k);
        assert!(s.matches(&k));
        assert!(!s.matches(&k.reverse()));
        assert_eq!(s.specificity(), 6);
    }

    #[test]
    fn any_matches_everything() {
        assert!(FlowSpec::ANY.matches(&key()));
        assert_eq!(FlowSpec::ANY.specificity(), 0);
    }

    #[test]
    fn wildcard_fields_ignored() {
        let mut s = exact(key());
        s.src_port = None;
        let mut k2 = key();
        k2.src_port = 55555;
        assert!(s.matches(&k2));
        assert_eq!(s.specificity(), 5);
    }

    #[test]
    fn tenant_mismatch_never_matches() {
        let s = FlowSpec::tenant(TenantId(8));
        assert!(!s.matches(&key()));
    }

    #[test]
    fn covers_partial_order() {
        let exact = exact(key());
        let tenant = FlowSpec::tenant(TenantId(7));
        assert!(FlowSpec::ANY.covers(&exact));
        assert!(tenant.covers(&exact));
        assert!(!exact.covers(&tenant));
        assert!(exact.covers(&exact));
        // Disjoint concrete values do not cover.
        let other = FlowSpec::tenant(TenantId(9));
        assert!(!other.covers(&exact));
    }

    #[test]
    fn aggregates_cover_their_flows() {
        let k = key();
        let sa = FlowAggregate::src_of(&k);
        let da = FlowAggregate::dst_of(&k);
        assert!(sa.matches(&k));
        assert!(da.matches(&k));
        // A different client port to the same service still matches both
        // sides' app aggregates appropriately.
        let mut k2 = k;
        k2.dst_port = 9999;
        assert!(sa.matches(&k2));
        assert!(!da.matches(&k2));
        assert_eq!(sa.tenant(), TenantId(7));
    }

    #[test]
    fn aggregate_spec_roundtrip() {
        let k = key();
        let spec = FlowAggregate::dst_of(&k).to_spec();
        assert!(spec.matches(&k));
        assert_eq!(spec.specificity(), 3);
    }

    #[test]
    fn from_spec_inverts_to_spec() {
        let k = key();
        for agg in [FlowAggregate::src_of(&k), FlowAggregate::dst_of(&k)] {
            assert_eq!(FlowAggregate::from_spec(&agg.to_spec()), Some(agg));
        }
        // Specs no aggregate produces map to None, a full 5-tuple among them.
        assert_eq!(FlowAggregate::from_spec(&exact(k)), None);
        assert_eq!(FlowAggregate::from_spec(&FlowSpec::ANY), None);
        assert_eq!(
            FlowAggregate::from_spec(&FlowSpec::tenant(TenantId(7))),
            None
        );
        let mut odd = FlowAggregate::src_of(&k).to_spec();
        odd.proto = Some(Proto::Tcp);
        assert_eq!(FlowAggregate::from_spec(&odd), None);
    }

    #[test]
    fn trace_hash_distinguishes_flows() {
        assert_ne!(key().trace_hash(), key().reverse().trace_hash());
        assert_eq!(key().trace_hash(), key().trace_hash());
    }

    #[test]
    fn proto_numbers() {
        assert_eq!(Proto::Tcp.number(), 6);
        assert_eq!(Proto::from_number(17), Some(Proto::Udp));
        assert_eq!(Proto::from_number(1), None);
    }
}
