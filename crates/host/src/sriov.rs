//! The SR-IOV NIC model (paper §2.2, "Hypervisor Bypass").
//!
//! A single PCIe NIC exposes a physical function plus up to `max_vfs`
//! virtual functions. Each VF is allocated to one VM and configured (by the
//! hypervisor, i.e. the server model) with the 802.1Q VLAN tag that lets the
//! directly attached ToR identify the tenant (§4.2.1). Packets DMA directly
//! between VM memory and the NIC; the hypervisor only isolates interrupts.
//!
//! The NIC can optionally enforce a per-VF transmit rate limit — the paper
//! applies hardware-path limits "at the TOR (or if possible at the NIC)"
//! (§4.1.4); both are implemented, the testbed default being the ToR.

use fastrak_net::addr::{Ip, TenantId, VlanId};
use fastrak_sim::tbf::TokenBucket;
use fastrak_sim::time::SimTime;

/// Error allocating or using a VF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SriovError {
    /// All VFs are allocated.
    NoFreeVf {
        /// Configured VF limit.
        max_vfs: usize,
    },
    /// VLAN already in use by another VF.
    VlanInUse(u16),
}

impl std::fmt::Display for SriovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SriovError::NoFreeVf { max_vfs } => write!(f, "no free VF (limit {max_vfs})"),
            SriovError::VlanInUse(v) => write!(f, "VLAN {v} already bound to a VF"),
        }
    }
}

impl std::error::Error for SriovError {}

/// One virtual function.
#[derive(Debug)]
pub struct Vf {
    /// Local VM index this VF is assigned to.
    pub vm_idx: usize,
    /// Owning tenant (for bookkeeping/validation).
    pub tenant: TenantId,
    /// The VM's tenant IP (stands in for the VF MAC in ingress demux; the
    /// paper's NIC uses "the VLAN tag and MAC address", §4.2.2).
    pub vm_ip: Ip,
    /// VLAN tag inserted on egress / matched on ingress.
    pub vlan: VlanId,
    /// Optional NIC-enforced transmit shaper.
    pub tx_limit: Option<TokenBucket>,
    /// Packets transmitted through this VF.
    pub tx_packets: u64,
    /// Packets delivered to the VM through this VF.
    pub rx_packets: u64,
}

/// The SR-IOV capable NIC.
#[derive(Debug)]
pub struct SriovNic {
    vfs: Vec<Vf>,
    max_vfs: usize,
}

impl SriovNic {
    /// A NIC supporting up to `max_vfs` virtual functions (the paper's
    /// testbed configures 4; the architecture allows 64, §2.2).
    pub fn new(max_vfs: usize) -> SriovNic {
        assert!(max_vfs > 0);
        SriovNic {
            vfs: Vec::new(),
            max_vfs,
        }
    }

    /// Allocate a VF for a VM with the given VLAN. Returns the VF index.
    pub fn alloc_vf(
        &mut self,
        vm_idx: usize,
        tenant: TenantId,
        vm_ip: Ip,
        vlan: VlanId,
    ) -> Result<usize, SriovError> {
        if self.vfs.len() >= self.max_vfs {
            return Err(SriovError::NoFreeVf {
                max_vfs: self.max_vfs,
            });
        }
        if self
            .vfs
            .iter()
            .any(|vf| vf.vlan == vlan && vf.vm_ip == vm_ip)
        {
            return Err(SriovError::VlanInUse(vlan.0));
        }
        self.vfs.push(Vf {
            vm_idx,
            tenant,
            vm_ip,
            vlan,
            tx_limit: None,
            tx_packets: 0,
            rx_packets: 0,
        });
        Ok(self.vfs.len() - 1)
    }

    /// The VF assigned to a VM, if any.
    pub fn vf_of_vm(&self, vm_idx: usize) -> Option<usize> {
        self.vfs.iter().position(|vf| vf.vm_idx == vm_idx)
    }

    /// VLAN tag for a VM's VF.
    pub fn vlan_of_vm(&self, vm_idx: usize) -> Option<VlanId> {
        self.vf_of_vm(vm_idx).map(|i| self.vfs[i].vlan)
    }

    /// Demultiplex an ingress frame by (VLAN tag, destination VM IP) to
    /// (vf index, vm index); the NIC strips the tag (§4.2.2). The IP stands
    /// in for the VF MAC: the paper's VLAN identifies the tenant, the MAC
    /// the VM.
    pub fn demux_vlan(&mut self, vlan: u16, dst_ip: Ip) -> Option<(usize, usize)> {
        let i = self
            .vfs
            .iter()
            .position(|vf| vf.vlan.0 == vlan && vf.vm_ip == dst_ip)?;
        self.vfs[i].rx_packets += 1;
        Some((i, self.vfs[i].vm_idx))
    }

    /// Account + shape a transmit through a VM's VF. Returns the conforming
    /// departure time (now, unless a NIC tx limit is configured).
    pub fn tx_through_vf(&mut self, vm_idx: usize, now: SimTime, bytes: u64) -> Option<SimTime> {
        let i = self.vf_of_vm(vm_idx)?;
        self.vfs[i].tx_packets += 1;
        Some(match &mut self.vfs[i].tx_limit {
            Some(tb) => tb.acquire(now, bytes),
            None => now,
        })
    }

    /// Configure (or clear) the NIC tx shaper for a VM's VF.
    pub fn set_vf_tx_limit(&mut self, vm_idx: usize, limit: Option<TokenBucket>) -> bool {
        match self.vf_of_vm(vm_idx) {
            Some(i) => {
                self.vfs[i].tx_limit = limit;
                true
            }
            None => false,
        }
    }

    /// VF table accessor.
    pub fn vfs(&self) -> &[Vf] {
        &self.vfs
    }

    /// Number of allocated VFs.
    pub fn len(&self) -> usize {
        self.vfs.len()
    }

    /// True when no VFs are allocated.
    pub fn is_empty(&self) -> bool {
        self.vfs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vf_allocation_bounded() {
        let mut nic = SriovNic::new(2);
        nic.alloc_vf(0, TenantId(1), Ip::tenant_vm(0), VlanId::new(100))
            .unwrap();
        nic.alloc_vf(1, TenantId(2), Ip::tenant_vm(1), VlanId::new(101))
            .unwrap();
        assert_eq!(
            nic.alloc_vf(2, TenantId(3), Ip::tenant_vm(2), VlanId::new(102)),
            Err(SriovError::NoFreeVf { max_vfs: 2 })
        );
    }

    #[test]
    fn vlan_collision_rejected() {
        let mut nic = SriovNic::new(4);
        nic.alloc_vf(0, TenantId(1), Ip::tenant_vm(0), VlanId::new(100))
            .unwrap();
        // Same (VLAN, IP) pair collides; same VLAN with a different IP is
        // fine (VLAN identifies the tenant, not the VM).
        assert_eq!(
            nic.alloc_vf(1, TenantId(1), Ip::tenant_vm(0), VlanId::new(100)),
            Err(SriovError::VlanInUse(100))
        );
        assert!(nic
            .alloc_vf(1, TenantId(1), Ip::tenant_vm(9), VlanId::new(100))
            .is_ok());
    }

    #[test]
    fn demux_by_vlan_and_strip() {
        let mut nic = SriovNic::new(4);
        nic.alloc_vf(3, TenantId(1), Ip::tenant_vm(7), VlanId::new(100))
            .unwrap();
        assert_eq!(nic.demux_vlan(100, Ip::tenant_vm(7)), Some((0, 3)));
        assert_eq!(nic.demux_vlan(999, Ip::tenant_vm(7)), None);
        assert_eq!(nic.demux_vlan(100, Ip::tenant_vm(8)), None);
        assert_eq!(nic.vfs()[0].rx_packets, 1);
    }

    #[test]
    fn tx_requires_a_vf() {
        let mut nic = SriovNic::new(4);
        assert_eq!(nic.tx_through_vf(0, SimTime::ZERO, 100), None);
        nic.alloc_vf(0, TenantId(1), Ip::tenant_vm(0), VlanId::new(5))
            .unwrap();
        assert_eq!(
            nic.tx_through_vf(0, SimTime::ZERO, 100),
            Some(SimTime::ZERO)
        );
        assert_eq!(nic.vfs()[0].tx_packets, 1);
    }

    #[test]
    fn nic_tx_limit_shapes() {
        let mut nic = SriovNic::new(4);
        nic.alloc_vf(0, TenantId(1), Ip::tenant_vm(0), VlanId::new(5))
            .unwrap();
        assert!(nic.set_vf_tx_limit(0, Some(TokenBucket::new(8_000, 1_000))));
        let t0 = SimTime::ZERO;
        assert_eq!(nic.tx_through_vf(0, t0, 1_000), Some(t0));
        let t1 = nic.tx_through_vf(0, t0, 1_000).unwrap();
        assert!(t1 > t0);
        // Clearing the limit restores line-rate behaviour.
        assert!(nic.set_vf_tx_limit(0, None));
        assert!(!nic.set_vf_tx_limit(7, None));
    }

    #[test]
    fn vlan_of_vm_lookup() {
        let mut nic = SriovNic::new(4);
        nic.alloc_vf(2, TenantId(1), Ip::tenant_vm(2), VlanId::new(42))
            .unwrap();
        assert_eq!(nic.vlan_of_vm(2), Some(VlanId::new(42)));
        assert_eq!(nic.vlan_of_vm(0), None);
    }
}
