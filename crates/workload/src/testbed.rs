//! Testbed builder: assembles the paper's evaluation rack (§5.1) — N
//! servers, each with two 10 Gbps links to one ToR, VMs with VIF + SR-IOV VF
//! interfaces — and wires up the static orchestration state (VLAN↔tenant
//! maps, tunnel mappings, L2/IP routes) that a cloud provisioning system
//! would install.
//!
//! The FasTrak *controllers* are deliberately not part of the testbed
//! builder: microbenchmark experiments (Figs. 3-5, Tables 1-3) run with
//! static paths, and `fastrak` (the core crate) attaches controllers on top
//! for the dynamic experiments (Table 4, Fig. 12).

use fastrak_host::app::GuestApp;
use fastrak_host::server::{tags, Server, ServerConfig, PORT_HW, PORT_SW};
use fastrak_host::vm::{Vm, VmSpec};
use fastrak_host::vswitch::VswitchConfig;
use fastrak_net::addr::{Ip, TenantId, VlanId};
use fastrak_net::ctrl::{Dir, TorRule};
use fastrak_net::event::{Event, NetCtx};
use fastrak_net::flow::FlowSpec;
use fastrak_net::packet::PathTag;
use fastrak_net::rules::Action;
use fastrak_net::tunnel::TunnelMapping;
use fastrak_sim::kernel::{Kernel, NodeId};
use fastrak_sim::time::SimTime;
use fastrak_switch::tor::{self, HwDest, Tor, TorConfig};

/// Testbed-wide configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Number of physical servers (the paper uses 6).
    pub n_servers: usize,
    /// Enable VXLAN tunneling in every vswitch ('OVS+Tunneling').
    pub tunneling: bool,
    /// RNG seed.
    pub seed: u64,
    /// Server-config template (name/IP are overridden per server).
    pub server_template: ServerConfig,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            n_servers: 6,
            tunneling: false,
            seed: 1,
            server_template: ServerConfig::testbed("template", Ip::UNSPECIFIED),
        }
    }
}

/// Handle to a VM placed in the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmRef {
    /// Server index.
    pub server: usize,
    /// VM index within the server.
    pub vm: usize,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Tenant IP.
    pub ip: Ip,
}

/// The assembled testbed.
pub struct Testbed {
    /// The simulation kernel.
    pub kernel: Kernel<Event, NetCtx>,
    /// The ToR node id.
    pub tor: NodeId,
    /// Server node ids, by server index.
    pub servers: Vec<NodeId>,
    vms: Vec<VmRef>,
    started: bool,
}

/// A copy of the rack at this instant, through [`Kernel::fork`]: it replays
/// exactly what the original would have, and shares nothing with it.
///
/// # Panics
/// Panics if a node that cannot be forked was added to the kernel; every
/// node this crate and `fastrak` add can be.
impl Clone for Testbed {
    fn clone(&self) -> Self {
        Testbed {
            kernel: self.kernel.fork().expect("every testbed node is forkable"),
            tor: self.tor,
            servers: self.servers.clone(),
            vms: self.vms.clone(),
            started: self.started,
        }
    }
}

/// A world can be built on one thread and run, or forked, on another.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Testbed>();
};

/// The VLAN assigned to a tenant (testbed convention).
pub fn tenant_vlan(t: TenantId) -> VlanId {
    VlanId::new(100 + (t.0 % 3900) as u16)
}

impl Testbed {
    /// Build the rack: servers wired to ToR ports `2i` (vswitch side) and
    /// `2i+1` (SR-IOV side). Panics when the ToR has too few ports.
    pub fn build(cfg: TestbedConfig) -> Testbed {
        assert!(
            2 * cfg.n_servers <= tor::PORTS,
            "TestbedConfig.n_servers {} needs {} ToR ports, the ToR has {}",
            cfg.n_servers,
            2 * cfg.n_servers,
            tor::PORTS
        );
        let mut kernel = Kernel::new(NetCtx::new(), cfg.seed);
        let tor = kernel.add_node(Tor::new(TorConfig::testbed("tor0", 0)));
        let vswitch = VswitchConfig {
            tunneling: cfg.tunneling,
        };

        let mut servers = Vec::new();
        for i in 0..cfg.n_servers {
            let mut scfg = cfg.server_template.clone();
            scfg.name = format!("s{i}");
            scfg.provider_ip = Ip::provider_server(0, i as u8 + 1);
            let id = kernel.add_node(Server::new(scfg, vswitch));
            servers.push(id);
        }
        for (i, &sid) in servers.iter().enumerate() {
            let (p_sw, p_hw) = (2 * i, 2 * i + 1);
            kernel.node_mut::<Tor>(tor).wire_port(p_sw, sid, PORT_SW);
            kernel.node_mut::<Tor>(tor).wire_port(p_hw, sid, PORT_HW);
            let srv = kernel.node_mut::<Server>(sid);
            srv.attach_uplink(PORT_SW, tor, p_sw);
            srv.attach_uplink(PORT_HW, tor, p_hw);
            let provider_ip = srv.cfg.provider_ip;
            kernel.node_mut::<Tor>(tor).add_ip_route(provider_ip, p_sw);
        }
        Testbed {
            kernel,
            tor,
            servers,
            vms: Vec::new(),
            started: false,
        }
    }

    /// Place a VM on a server. Allocates its VIF + VF and registers the
    /// orchestration state (VLAN map, hardware destination, L2 route, and
    /// tunnel mappings on every other server).
    pub fn add_vm(&mut self, server: usize, spec: VmSpec, app: Box<dyn GuestApp>) -> VmRef {
        self.add_vm_tcp(
            server,
            spec,
            app,
            fastrak_transport::tcp::TcpConfig::default(),
        )
    }

    /// [`Testbed::add_vm`] with an explicit per-VM TCP configuration —
    /// how experiments select congestion control (CUBIC, DCTCP) and ECN.
    pub fn add_vm_tcp(
        &mut self,
        server: usize,
        spec: VmSpec,
        app: Box<dyn GuestApp>,
        tcp: fastrak_transport::tcp::TcpConfig,
    ) -> VmRef {
        let tenant = spec.tenant;
        let ip = spec.ip;
        let vlan = tenant_vlan(tenant);
        let sid = self.servers[server];
        let vm_idx = self
            .kernel
            .node_mut::<Server>(sid)
            .add_vm(Vm::with_tcp_config(spec, app, tcp), Some(vlan));
        let home_ip = self.kernel.node::<Server>(sid).cfg.provider_ip;
        let mapping = TunnelMapping {
            server_ip: home_ip,
            tor_ip: Ip::provider_tor(0),
        };
        {
            let tor = self.kernel.node_mut::<Tor>(self.tor);
            tor.map_vlan(vlan, tenant);
            tor.add_hw_dest(
                tenant,
                ip,
                HwDest {
                    port: 2 * server + 1,
                    vlan,
                },
            );
            tor.add_l2_route(tenant, ip, 2 * server);
        }
        for (i, &other) in self.servers.iter().enumerate() {
            if i != server {
                self.kernel
                    .node_mut::<Server>(other)
                    .add_tunnel_route(tenant, ip, mapping);
            }
        }
        let vref = VmRef {
            server,
            vm: vm_idx,
            tenant,
            ip,
        };
        self.vms.push(vref);
        vref
    }

    /// All placed VMs.
    pub fn vms(&self) -> &[VmRef] {
        &self.vms
    }

    /// Install ToR VRF allow rules (both directions) for every VM of a
    /// tenant — the static stand-in for FasTrak's rule manager in the
    /// microbenchmark experiments where the hardware path is always on.
    pub fn authorize_hw_tenant(&mut self, tenant: TenantId) {
        let vms: Vec<VmRef> = self
            .vms
            .iter()
            .copied()
            .filter(|v| v.tenant == tenant)
            .collect();
        let tor = self.kernel.node_mut::<Tor>(self.tor);
        for v in vms {
            tor.install_rule(&TorRule {
                tenant,
                spec: FlowSpec {
                    tenant: Some(tenant),
                    dst_ip: Some(v.ip),
                    ..FlowSpec::ANY
                },
                priority: 5,
                action: Action::Allow,
                tunnel: Some(TunnelMapping {
                    server_ip: Ip::UNSPECIFIED,
                    tor_ip: Ip::provider_tor(0), // single-rack testbed
                }),
                qos: None,
            })
            .expect("ToR fast-path memory exhausted during authorize");
        }
    }

    /// Force every flow of a VM onto one path via its flow placer.
    pub fn force_path(&mut self, v: VmRef, path: PathTag) {
        let srv = self.kernel.node_mut::<Server>(self.servers[v.server]);
        srv.vm_mut(v.vm).placer.install_rule(FlowSpec::ANY, 1, path);
    }

    /// Configure a software (VIF) rate limit on a VM.
    pub fn set_vif_rate(&mut self, v: VmRef, dir: Dir, bps: u64) {
        let srv = self.kernel.node_mut::<Server>(self.servers[v.server]);
        srv.vswitch_mut().set_vif_rate(v.vm, dir, bps);
    }

    /// Configure a hardware rate limit (at the ToR) for a VM.
    pub fn set_hw_rate(&mut self, v: VmRef, dir: Dir, bps: u64) {
        self.kernel
            .node_mut::<Tor>(self.tor)
            .set_hw_rate(v.tenant, v.ip, dir, bps);
    }

    /// Start all guest applications at the current simulated time.
    pub fn start(&mut self) {
        assert!(!self.started, "testbed already started");
        self.started = true;
        let now = self.kernel.now();
        for &sid in &self.servers {
            self.kernel.post(
                sid,
                now,
                Event::Timer {
                    tag: tags::START,
                    a: 0,
                    b: 0,
                },
            );
        }
    }

    /// Run the simulation to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.kernel.run_until(t);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Immutable server access.
    pub fn server(&self, idx: usize) -> &Server {
        self.kernel.node::<Server>(self.servers[idx])
    }

    /// Mutable server access.
    pub fn server_mut(&mut self, idx: usize) -> &mut Server {
        self.kernel.node_mut::<Server>(self.servers[idx])
    }

    /// Immutable ToR access.
    pub fn tor(&self) -> &Tor {
        self.kernel.node::<Tor>(self.tor)
    }

    /// Mutable ToR access.
    pub fn tor_mut(&mut self) -> &mut Tor {
        self.kernel.node_mut::<Tor>(self.tor)
    }

    /// Read a VM's guest app, downcast to its concrete type.
    pub fn app<T: GuestApp>(&self, v: VmRef) -> &T {
        self.server(v.server).vm(v.vm).app_as::<T>()
    }

    /// Mutable access to a VM's guest app, downcast to its concrete type.
    pub fn app_mut<T: GuestApp>(&mut self, v: VmRef) -> &mut T {
        self.server_mut(v.server).vm_mut(v.vm).app_as_mut::<T>()
    }

    /// Begin CPU measurement windows on every server (after warmup).
    pub fn begin_cpu_windows(&mut self) {
        let now = self.kernel.now();
        for &sid in &self.servers.clone() {
            self.kernel.node_mut::<Server>(sid).begin_cpu_window(now);
        }
    }

    /// Snapshot every layer's counters into the telemetry registry: kernel
    /// event/fault counters, per-server host/TCP stats, and ToR occupancy.
    /// Pull-model publication — call once per collection point (end of run
    /// or periodic sample); hot paths never touch the registry.
    pub fn publish_telemetry(&mut self) {
        // The registry lives inside kernel.ctx while nodes also live inside
        // the kernel, so take it out for the duration of the walk.
        let mut reg = std::mem::take(&mut self.kernel.ctx.telemetry.registry);
        self.kernel.publish_telemetry_into(&mut reg);
        for &sid in &self.servers {
            self.kernel.node::<Server>(sid).publish_telemetry(&mut reg);
        }
        self.kernel
            .node::<Tor>(self.tor)
            .publish_telemetry(&mut reg);
        self.kernel.ctx.telemetry.registry = reg;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack(n_servers: usize) -> Testbed {
        Testbed::build(TestbedConfig {
            n_servers,
            ..TestbedConfig::default()
        })
    }

    #[test]
    fn forty_eight_servers_fill_the_tor() {
        assert_eq!(rack(48).servers.len(), 48);
    }

    /// It used to index past the ToR's port table while wiring server 48.
    #[test]
    #[should_panic(expected = "TestbedConfig.n_servers 49 needs 98 ToR ports, the ToR has 96")]
    fn a_49th_server_is_refused() {
        rack(49);
    }
}
