//! Tunnel mappings.
//!
//! Requirement C1 (paper §2.1): tenant IPs are decoupled from provider IPs
//! by tunneling, and the network keeps, per destination VM, a mapping from
//! (tenant, tenant VM IP) to the provider address of wherever that VM
//! lives. The software path tunnels VXLAN to the destination *server*; the
//! hardware path tunnels GRE to the destination *ToR* (§4.1.3).

use crate::addr::{Ip, TenantId};
use fastrak_sim::FxHashMap;

/// Key identifying a tunnel mapping: which tenant VM are we sending to?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TunnelKey {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Destination VM's tenant-space IP.
    pub vm_ip: Ip,
}

/// Where the tunnel should deliver, in provider space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunnelMapping {
    /// Provider IP of the destination server (VXLAN terminates here).
    pub server_ip: Ip,
    /// Provider IP of the destination server's ToR (GRE terminates here).
    pub tor_ip: Ip,
}

/// A table of tunnel mappings with hit accounting.
#[derive(Debug, Clone, Default)]
pub struct TunnelTable {
    map: FxHashMap<TunnelKey, TunnelMapping>,
    lookups: u64,
    misses: u64,
}

impl TunnelTable {
    /// Empty table.
    pub fn new() -> TunnelTable {
        TunnelTable::default()
    }

    /// Install or update the mapping for a destination VM.
    pub fn insert(&mut self, key: TunnelKey, mapping: TunnelMapping) {
        self.map.insert(key, mapping);
    }

    /// Remove a mapping (e.g. VM decommissioned).
    pub fn remove(&mut self, key: &TunnelKey) -> Option<TunnelMapping> {
        self.map.remove(key)
    }

    /// Resolve the provider destination for a tenant VM.
    pub fn resolve(&mut self, key: &TunnelKey) -> Option<TunnelMapping> {
        self.lookups += 1;
        let hit = self.map.get(key).copied();
        if hit.is_none() {
            self.misses += 1;
        }
        hit
    }

    /// Resolve without accounting.
    pub fn get(&self, key: &TunnelKey) -> Option<TunnelMapping> {
        self.map.get(key).copied()
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookup misses (should be zero in steady state; nonzero means a stale
    /// or missing mapping, i.e. a bug in orchestration).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(t: u32, ip: Ip) -> TunnelKey {
        TunnelKey {
            tenant: TenantId(t),
            vm_ip: ip,
        }
    }

    fn loc(rack: u8, slot: u8) -> TunnelMapping {
        TunnelMapping {
            server_ip: Ip::provider_server(rack, slot),
            tor_ip: Ip::provider_tor(rack),
        }
    }

    #[test]
    fn resolve_hit_and_miss() {
        let mut t = TunnelTable::new();
        t.insert(k(1, Ip::tenant_vm(1)), loc(0, 1));
        assert_eq!(t.resolve(&k(1, Ip::tenant_vm(1))), Some(loc(0, 1)));
        assert_eq!(t.resolve(&k(1, Ip::tenant_vm(2))), None);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn overlapping_tenant_ips_disambiguated() {
        let mut t = TunnelTable::new();
        let shared_ip = Ip::tenant_vm(1);
        t.insert(k(1, shared_ip), loc(0, 1));
        t.insert(k(2, shared_ip), loc(1, 3));
        assert_eq!(t.get(&k(1, shared_ip)), Some(loc(0, 1)));
        assert_eq!(t.get(&k(2, shared_ip)), Some(loc(1, 3)));
    }

    #[test]
    fn remove_clears_mapping() {
        let mut t = TunnelTable::new();
        let key = k(3, Ip::tenant_vm(9));
        t.insert(key, loc(0, 2));
        assert_eq!(t.remove(&key), Some(loc(0, 2)));
        assert!(t.is_empty());
    }
}
