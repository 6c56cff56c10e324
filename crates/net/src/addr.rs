//! Addressing: MACs, IPv4 addresses, tenant IDs and VLAN tags.
//!
//! Multi-tenant addressing follows the paper's requirement C1: *tenant* IP
//! addresses identify VMs inside a tenant's private (RFC 1918) space and may
//! overlap across tenants; *provider* IP addresses identify physical servers
//! and ToRs and drive fabric forwarding. Every packet therefore carries a
//! [`TenantId`] alongside its tenant IPs (encoded on the wire as the GRE key
//! or VXLAN VNI, and as a VLAN tag on the server↔ToR hop).

use std::fmt;

/// A 48-bit Ethernet MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mac(pub [u8; 6]);

impl Mac {
    /// Locally-administered MAC derived from an index (deterministic).
    pub fn local(idx: u32) -> Mac {
        let b = idx.to_be_bytes();
        Mac([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Debug for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            m[0], m[1], m[2], m[3], m[4], m[5]
        )
    }
}

impl fmt::Display for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An IPv4 address (tenant- or provider-space depending on context).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ip(pub u32);

impl Ip {
    /// The unspecified address 0.0.0.0.
    pub const UNSPECIFIED: Ip = Ip(0);

    /// Build from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ip {
        Ip(u32::from_be_bytes([a, b, c, d]))
    }

    /// Octets in network order.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Tenant VM address inside the RFC 1918 10/8 space: `10.t.h.l` where `t`
    /// folds in the tenant index and `h.l` the VM index. Purely a convention
    /// used by the testbed builder; overlap across tenants is intentional.
    pub fn tenant_vm(vm_idx: u16) -> Ip {
        let [h, l] = vm_idx.to_be_bytes();
        Ip::new(10, 0, h, l)
    }

    /// Provider (physical) address for a server: `172.16.r.s`.
    pub fn provider_server(rack: u8, slot: u8) -> Ip {
        Ip::new(172, 16, rack, slot)
    }

    /// Provider address for a ToR switch: `172.31.r.1`.
    pub fn provider_tor(rack: u8) -> Ip {
        Ip::new(172, 31, rack, 1)
    }
}

impl fmt::Debug for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A tenant identifier. The GRE key field is 32 bits, "accommodating 2^32
/// tenants" (paper §4.1.3); VXLAN VNIs are 24 bits, so tenant IDs used with
/// VXLAN must fit in 24 bits (the testbed builder enforces this).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

impl TenantId {
    /// VXLAN VNI representation (24-bit).
    pub fn vni(self) -> u32 {
        self.0 & 0x00ff_ffff
    }
}

/// An 802.1Q VLAN ID (12 bits, 1..=4094 usable).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VlanId(pub u16);

impl VlanId {
    /// Construct, checking the 12-bit range.
    pub fn new(v: u16) -> VlanId {
        assert!((1..=4094).contains(&v), "VLAN id {v} out of range");
        VlanId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_local_is_deterministic_and_unique() {
        assert_eq!(Mac::local(1), Mac::local(1));
        assert_ne!(Mac::local(1), Mac::local(2));
        assert_eq!(format!("{}", Mac::local(0x01020304)), "02:00:01:02:03:04");
    }

    #[test]
    fn ip_octet_roundtrip() {
        let ip = Ip::new(10, 1, 2, 3);
        assert_eq!(ip.octets(), [10, 1, 2, 3]);
        assert_eq!(format!("{ip}"), "10.1.2.3");
    }

    #[test]
    fn address_space_conventions_do_not_collide() {
        // Tenant space is 10/8; provider spaces are 172.16/16 and 172.31/16.
        let vm = Ip::tenant_vm(300);
        let srv = Ip::provider_server(1, 2);
        let tor = Ip::provider_tor(1);
        assert_eq!(vm.octets()[0], 10);
        assert_eq!(srv.octets()[0], 172);
        assert_ne!(srv, tor);
    }

    #[test]
    fn tenant_vni_truncates_to_24_bits() {
        assert_eq!(TenantId(0x0100_0001).vni(), 1);
        assert_eq!(TenantId(42).vni(), 42);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vlan_range_checked() {
        VlanId::new(4095);
    }
}
