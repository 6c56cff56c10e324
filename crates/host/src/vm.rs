//! A guest virtual machine: vCPUs, TCP stack, flow placer, and one guest
//! application.

use fastrak_net::addr::{Ip, TenantId};
use fastrak_sim::cpu::CpuPool;
use fastrak_sim::kernel::EventHandle;
use fastrak_sim::time::SimTime;
use fastrak_transport::stack::{ConnId, TcpStack};
use fastrak_transport::tcp::TcpConfig;

use crate::app::GuestApp;
use crate::bonding::FlowPlacer;

/// Static description of a VM (the paper's EC2-instance-equivalents: large =
/// 4 vCPU / 5 GB, medium = 2 vCPU / 2.5 GB).
#[derive(Debug, Clone)]
pub struct VmSpec {
    /// Human-readable name for traces.
    pub name: String,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Tenant-space IP.
    pub ip: Ip,
    /// Number of vCPUs.
    pub vcpus: usize,
    /// Maximum concurrently in-service transmit segments (≈ sending
    /// threads; the paper pins netperf threads to vCPUs, leaving one for
    /// the guest kernel).
    pub tx_width: usize,
}

impl VmSpec {
    /// An EC2-large-equivalent VM (4 vCPUs).
    pub fn large(name: impl Into<String>, tenant: TenantId, ip: Ip) -> VmSpec {
        VmSpec {
            name: name.into(),
            tenant,
            ip,
            vcpus: 4,
            tx_width: 3,
        }
    }

    /// An EC2-medium-equivalent VM (2 vCPUs).
    pub fn medium(name: impl Into<String>, tenant: TenantId, ip: Ip) -> VmSpec {
        VmSpec {
            name: name.into(),
            tenant,
            ip,
            vcpus: 2,
            tx_width: 1,
        }
    }
}

/// A running VM inside a server.
#[derive(Clone)]
pub struct Vm {
    /// The static spec.
    pub spec: VmSpec,
    /// vCPU pool (guest stack work + app cpu burns).
    pub vcpus: CpuPool,
    /// The VM's vhost kernel thread: all VIF traffic of this VM serializes
    /// through it (kick handling + copies), as in vhost-net.
    pub vhost: CpuPool,
    /// Guest TCP stack.
    pub stack: TcpStack,
    /// The bonding-driver flow placer for this VM.
    pub placer: FlowPlacer,
    pub(crate) app: Option<Box<dyn GuestApp>>,
    /// Segments currently in guest-CPU transmit service.
    pub(crate) tx_inflight: usize,
    /// Per-connection transmit ordering clamps, indexed by `ConnId` (see
    /// `Server::rx_slots` for why stages are clamped per flow). A slot
    /// belongs to its flow key for good, as the stack's does.
    pub(crate) tx_clock: Vec<[SimTime; 2]>,
    /// The one kernel timer of the guest stack: its deadline and event.
    pub(crate) tcp_timer: Option<(SimTime, EventHandle)>,
}

impl Vm {
    /// Build a VM from a spec with the default TCP configuration.
    pub fn new(spec: VmSpec, app: Box<dyn GuestApp>) -> Vm {
        Vm::with_tcp_config(spec, app, TcpConfig::default())
    }

    /// Build a VM with a custom TCP configuration.
    pub fn with_tcp_config(spec: VmSpec, app: Box<dyn GuestApp>, tcp: TcpConfig) -> Vm {
        let vcpus = CpuPool::new(spec.vcpus);
        Vm {
            vcpus,
            vhost: CpuPool::new(1),
            stack: TcpStack::new(tcp),
            placer: FlowPlacer::new(),
            app: Some(app),
            tx_inflight: 0,
            tx_clock: Vec::new(),
            tcp_timer: None,
            spec,
        }
    }

    /// Stage `stage`'s transmit clamp of connection `conn`.
    pub(crate) fn tx_clock_mut(&mut self, conn: ConnId, stage: usize) -> &mut SimTime {
        let idx = conn.0 as usize;
        if idx >= self.tx_clock.len() {
            self.tx_clock.resize(idx + 1, [SimTime::ZERO; 2]);
        }
        &mut self.tx_clock[idx][stage]
    }

    /// Downcast the guest app to its concrete type (harness result readout).
    ///
    /// # Panics
    /// Panics when the app has a different type or is mid-dispatch.
    pub fn app_as<T: GuestApp>(&self) -> &T {
        let app: &dyn std::any::Any = self.app.as_deref().expect("app is mid-dispatch");
        app.downcast_ref::<T>()
            .expect("guest app has unexpected type")
    }

    /// Mutable downcast of the guest app.
    pub fn app_as_mut<T: GuestApp>(&mut self) -> &mut T {
        let app: &mut dyn std::any::Any = self.app.as_deref_mut().expect("app is mid-dispatch");
        app.downcast_mut::<T>()
            .expect("guest app has unexpected type")
    }
}
