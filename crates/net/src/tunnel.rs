//! Tunnel mappings.
//!
//! Requirement C1 (paper §2.1): tenant IPs are decoupled from provider IPs
//! by tunneling, and the network keeps, per destination VM, a mapping from
//! (tenant, tenant VM IP) to the provider address of wherever that VM
//! lives. The software path tunnels VXLAN to the destination *server*; the
//! hardware path tunnels GRE to the destination *ToR* (§4.1.3).

use crate::addr::{Ip, TenantId};

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
