//! The SR-IOV NIC model (paper §2.2, "Hypervisor Bypass").
//!
//! A single PCIe NIC exposes a physical function plus up to `max_vfs`
//! virtual functions. Each VF is allocated to one VM and configured (by the
//! hypervisor, i.e. the server model) with the 802.1Q VLAN tag that lets the
//! directly attached ToR identify the tenant (§4.2.1). Packets DMA directly
//! between VM memory and the NIC; the hypervisor only isolates interrupts.
//!
//! The NIC shapes nothing: the paper applies hardware-path rate limits "at
//! the TOR (or if possible at the NIC)" (§4.1.4), and here, as on its
//! testbed, the ToR is the one hardware shaper.

use fastrak_net::addr::{Ip, TenantId, VlanId};

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
#[derive(Debug, Clone)]
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
    /// Packets transmitted through this VF.
    pub tx_packets: u64,
    /// Packets delivered to the VM through this VF.
    pub rx_packets: u64,
}

/// The SR-IOV capable NIC.
#[derive(Debug, Clone)]
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
            tx_packets: 0,
            rx_packets: 0,
        });
        Ok(self.vfs.len() - 1)
    }

    /// Demultiplex an ingress frame by (VLAN tag, destination VM IP) to the
    /// VM index, counting it on the VF; the NIC strips the tag (§4.2.2). The
    /// IP stands in for the VF MAC: the paper's VLAN identifies the tenant,
    /// the MAC the VM.
    pub fn demux_vlan(&mut self, vlan: u16, dst_ip: Ip) -> Option<usize> {
        let mut vfs = self.vfs.iter_mut();
        let vf = vfs.find(|vf| vf.vlan.0 == vlan && vf.vm_ip == dst_ip)?;
        vf.rx_packets += 1;
        Some(vf.vm_idx)
    }

    /// Account a transmit through a VM's VF. Returns the VLAN tag the VF
    /// inserts, or `None` when the VM has no VF.
    pub fn tx_through_vf(&mut self, vm_idx: usize) -> Option<VlanId> {
        let vf = self.vfs.iter_mut().find(|vf| vf.vm_idx == vm_idx)?;
        vf.tx_packets += 1;
        Some(vf.vlan)
    }

    /// VF table accessor.
    pub fn vfs(&self) -> &[Vf] {
        &self.vfs
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
        assert_eq!(nic.demux_vlan(100, Ip::tenant_vm(7)), Some(3));
        assert_eq!(nic.demux_vlan(999, Ip::tenant_vm(7)), None);
        assert_eq!(nic.demux_vlan(100, Ip::tenant_vm(8)), None);
        assert_eq!(nic.vfs()[0].rx_packets, 1);
    }

    #[test]
    fn tx_requires_a_vf() {
        let mut nic = SriovNic::new(4);
        assert_eq!(nic.tx_through_vf(0), None);
        nic.alloc_vf(0, TenantId(1), Ip::tenant_vm(0), VlanId::new(5))
            .unwrap();
        assert_eq!(nic.tx_through_vf(0), Some(VlanId::new(5)));
        assert_eq!(nic.vfs()[0].tx_packets, 1);
    }

    #[test]
    fn vlan_of_vm_lookup() {
        let mut nic = SriovNic::new(4);
        nic.alloc_vf(2, TenantId(1), Ip::tenant_vm(2), VlanId::new(42))
            .unwrap();
        nic.alloc_vf(3, TenantId(1), Ip::tenant_vm(3), VlanId::new(43))
            .unwrap();
        // Each transmit is tagged with, and counted on, its own VM's VF.
        assert_eq!(nic.tx_through_vf(3), Some(VlanId::new(43)));
        assert_eq!(nic.tx_through_vf(2), Some(VlanId::new(42)));
        assert_eq!(nic.tx_through_vf(0), None);
        assert_eq!(nic.vfs().iter().map(|vf| vf.tx_packets).sum::<u64>(), 2);
    }
}
