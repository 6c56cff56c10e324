//! Multi-tenant fleets and the adversarial "churner" profile (noisy
//! neighbor) — the workload side of the tenant-fairness experiments.
//!
//! A [`TenantFleet`] stamps out N tenants, each with its own memcached
//! server VM and a set of memslap client VMs, with per-tenant demand skewed
//! by a Zipf law (rank-1 tenant hottest). The fleet gives the decision
//! engine a realistic population: a few tenants with heavy aggregates, a
//! tail of light ones.
//!
//! The [`Churner`] is the adversary: one tenant that spreads its traffic
//! over many destination-port aggregates and rotates which of them are hot
//! every phase. Each rotation pushes a fresh set of aggregates over the
//! offload threshold while the previously hot set goes idle — under an
//! unrestricted policy the churner monopolizes the bounded fast path and
//! keeps churning its entries, evicting the steady victims' rules. The
//! per-tenant fairness policies (`fastrak::FastPathPolicy`) exist to stop
//! exactly this; `tenant_matrix` in `fastrak-bench` measures it.

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_host::vm::VmSpec;
use fastrak_net::addr::{Ip, TenantId};
use fastrak_sim::time::SimDuration;
use fastrak_transport::stack::SockEvent;

use crate::memcached::{memcached_server, MemslapClient, MemslapConfig};
use crate::rr::RrServerConfig;
use crate::testbed::{Testbed, VmRef};
use crate::txn::{Client, Server};

/// Zipf weights for `n` ranks with exponent `s`, normalized to sum 1.
/// `s = 0` degenerates to uniform; larger `s` concentrates demand on the
/// low ranks (rank 1 is the heaviest tenant).
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / sum).collect()
}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct TenantFleetConfig {
    /// Number of tenants (TenantId 1..=n, rank order = id order).
    pub n_tenants: u32,
    /// memslap client VMs per tenant.
    pub clients_per_tenant: usize,
    /// Zipf exponent for the cross-tenant demand skew.
    pub zipf_s: f64,
    /// Outstanding requests per connection for the rank-1 tenant; lower
    /// ranks get `peak_burst` scaled by their Zipf weight (min 1).
    pub peak_burst: usize,
    /// Stagger between consecutive tenants' client start times (breaks the
    /// synchronized-start artifact without losing determinism).
    pub start_stagger: SimDuration,
}

impl Default for TenantFleetConfig {
    fn default() -> Self {
        TenantFleetConfig {
            n_tenants: 4,
            clients_per_tenant: 1,
            zipf_s: 1.0,
            peak_burst: 8,
            start_stagger: SimDuration::from_millis(3),
        }
    }
}

/// One tenant of the fleet.
pub struct FleetTenant {
    /// The tenant id (rank order: 1 is the heaviest).
    pub tenant: TenantId,
    /// The per-connection burst its clients run with.
    pub burst: usize,
    /// The memcached server VM.
    pub server: VmRef,
    /// The memslap client VMs.
    pub clients: Vec<VmRef>,
}

/// The assembled fleet.
pub struct TenantFleet {
    /// Tenants in rank order.
    pub tenants: Vec<FleetTenant>,
}

impl TenantFleet {
    /// Place the fleet onto a testbed. Tenant `t`'s server VM lands on
    /// physical server `(t-1) % n_servers`; its clients round-robin over
    /// the *other* servers so every tenant's traffic crosses the ToR.
    pub fn build(bed: &mut Testbed, cfg: &TenantFleetConfig) -> TenantFleet {
        let n_servers = bed.servers.len();
        assert!(n_servers >= 2, "tenant fleet needs at least two servers");
        let weights = zipf_weights(cfg.n_tenants as usize, cfg.zipf_s);
        let w_max = weights.first().copied().unwrap_or(1.0);
        let mut tenants = Vec::new();
        for (rank, &weight) in weights.iter().enumerate() {
            let tenant = TenantId(rank as u32 + 1);
            let home = rank % n_servers;
            let server_ip = Ip::tenant_vm(1);
            let server = bed.add_vm(
                home,
                VmSpec::large(format!("mc-t{}", tenant.0), tenant, server_ip),
                Box::new(memcached_server()),
            );
            let burst = ((cfg.peak_burst as f64 * weight / w_max).round() as usize).max(1);
            let mut clients = Vec::new();
            for c in 0..cfg.clients_per_tenant {
                let slot = (home + 1 + c) % n_servers;
                let mut slap = MemslapConfig::paper(vec![server_ip], None);
                slap.burst = burst;
                slap.src_port_base = 43_000 + (c as u16) * 64;
                slap.start_delay = cfg.start_stagger * rank as u64;
                clients.push(bed.add_vm(
                    slot,
                    VmSpec::large(
                        format!("slap-t{}-{c}", tenant.0),
                        tenant,
                        Ip::tenant_vm(10 + c as u16),
                    ),
                    Box::new(MemslapClient::new(slap)),
                ));
            }
            tenants.push(FleetTenant {
                tenant,
                burst,
                server,
                clients,
            });
        }
        TenantFleet { tenants }
    }

    /// Restart every client's measurement window (after warmup).
    pub fn begin_windows(&self, bed: &mut Testbed) {
        let now = bed.now();
        for t in &self.tenants {
            for &c in &t.clients {
                bed.app_mut::<MemslapClient>(c).begin_window(now);
            }
        }
    }
}

/// First port of the churner's port range.
pub const CHURN_PORT_BASE: u16 = 7000;

const TIMER_START: u64 = 1;
const TIMER_PHASE: u64 = 2;

/// Churner configuration.
#[derive(Debug, Clone)]
pub struct ChurnerConfig {
    /// The echo server VM this churner hammers.
    pub dst: Ip,
    /// Number of destination ports — each is a distinct `DstApp` flow
    /// aggregate in the measurement engine.
    pub n_ports: u16,
    /// How many consecutive ports are hot at once.
    pub hot_ports: u16,
    /// Rotation period: every phase the hot window advances by
    /// `hot_ports`, so a fresh set of aggregates crosses the offload
    /// threshold while the old set collapses to idle.
    pub phase: SimDuration,
    /// Outstanding requests per hot connection. Size this so a hot
    /// aggregate's score clears the victims' by more than the decision
    /// engine's hysteresis margin — otherwise the incumbent-protection
    /// keeps the victims installed and the churn never bites.
    pub burst: usize,
    /// Connections per destination port. The DE score is
    /// `n_active × m_pps`, and the software path serializes the client
    /// VM's pps on its vhost thread — so fanning each hot aggregate out
    /// over many flows is how an adversary inflates its score without
    /// needing more pps than the slow path will carry.
    pub conns_per_port: u16,
    /// First local source port.
    pub src_port_base: u16,
    /// Delay before opening connections.
    pub start_delay: SimDuration,
}

impl ChurnerConfig {
    /// An aggressive default against `dst`: 16 aggregates, 4 hot at a
    /// time, rotating every 150 ms (≈ one measurement epoch), deep bursts.
    pub fn aggressive(dst: Ip) -> ChurnerConfig {
        ChurnerConfig {
            dst,
            n_ports: 16,
            hot_ports: 4,
            phase: SimDuration::from_millis(150),
            burst: 16,
            conns_per_port: 1,
            src_port_base: 51_000,
            start_delay: SimDuration::ZERO,
        }
    }
}

/// The adversarial churner guest app (client side). Its requests and
/// responses are memslap-sized; their latency is not measured.
#[derive(Clone)]
pub struct Churner {
    cfg: ChurnerConfig,
    client: Client,
    /// Start of the currently hot port window (index into the ports).
    offset: usize,
    /// Completed transactions (progress sanity, not a metric).
    pub completed: u64,
}

impl Churner {
    /// Build from a configuration.
    pub fn new(cfg: ChurnerConfig) -> Churner {
        assert!(cfg.hot_ports > 0 && cfg.hot_ports <= cfg.n_ports);
        Churner {
            cfg,
            client: Client::new(MemslapConfig::REQ_SIZE, MemslapConfig::RESP_SIZE),
            offset: 0,
            completed: 0,
        }
    }

    fn is_hot(&self, ci: usize) -> bool {
        let n = self.cfg.n_ports as usize;
        let port = ci / self.cfg.conns_per_port as usize;
        let rel = (port + n - self.offset) % n;
        rel < self.cfg.hot_ports as usize
    }

    /// Fill connection `ci` if its aggregate is hot; a cold one lets its
    /// in-flight requests drain and issues nothing.
    fn fill(&mut self, ci: usize, api: &mut GuestApi<'_>) {
        if self.is_hot(ci) {
            self.client.fill(ci, api, self.cfg.burst, None);
        }
    }
}

impl GuestApp for Churner {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        api.set_timer(self.cfg.start_delay, TIMER_START);
    }

    fn on_timer(&mut self, tag: u64, api: &mut GuestApi<'_>) {
        match tag {
            TIMER_START if self.client.len() == 0 => {
                for p in 0..self.cfg.n_ports {
                    for k in 0..self.cfg.conns_per_port {
                        let src_port = self.cfg.src_port_base + p * self.cfg.conns_per_port + k;
                        self.client
                            .connect(api, self.cfg.dst, CHURN_PORT_BASE + p, src_port);
                    }
                }
                api.set_timer(self.cfg.phase, TIMER_PHASE);
            }
            TIMER_PHASE => {
                let n = self.cfg.n_ports as usize;
                self.offset = (self.offset + self.cfg.hot_ports as usize) % n;
                for ci in 0..self.client.len() {
                    self.fill(ci, api);
                }
                api.set_timer(self.cfg.phase, TIMER_PHASE);
            }
            _ => {}
        }
    }

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        if let Some(ci) = self.client.on_event(ev, |_, _| self.completed += 1) {
            self.fill(ci, api);
        }
    }
}

/// Echo server answering the churner's whole port range from one VM.
#[derive(Clone)]
pub struct EchoRangeServer {
    server: Server,
    /// Transactions served.
    pub served: u64,
}

impl EchoRangeServer {
    /// Serve `n_ports` ports from [`CHURN_PORT_BASE`] with the churner's
    /// request/response framing.
    pub fn new(n_ports: u16) -> EchoRangeServer {
        let cfg = RrServerConfig {
            port: CHURN_PORT_BASE,
            req_size: MemslapConfig::REQ_SIZE,
            resp_size: MemslapConfig::RESP_SIZE,
            service_cpu: SimDuration::ZERO,
        };
        EchoRangeServer {
            server: Server::new(cfg, n_ports),
            served: 0,
        }
    }
}

impl GuestApp for EchoRangeServer {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        self.server.listen(api);
    }

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        self.served += self.server.on_event(ev, api);
    }

    fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}
}

/// The churner pair placed on a testbed.
pub struct ChurnerSetup {
    /// The echo-server VM.
    pub server: VmRef,
    /// The churner client VM.
    pub client: VmRef,
}

/// Place a churner tenant: echo server on `server_slot`, client on
/// `client_slot` (must differ so the churn crosses the ToR).
pub fn add_churner(
    bed: &mut Testbed,
    tenant: TenantId,
    server_slot: usize,
    client_slot: usize,
    cfg: ChurnerConfig,
) -> ChurnerSetup {
    assert_ne!(server_slot, client_slot, "churner must cross the ToR");
    let server = bed.add_vm(
        server_slot,
        VmSpec::large(format!("churn-srv-t{}", tenant.0), tenant, cfg.dst),
        Box::new(EchoRangeServer::new(cfg.n_ports)),
    );
    let client = bed.add_vm(
        client_slot,
        VmSpec::large(
            format!("churn-cli-t{}", tenant.0),
            tenant,
            Ip::tenant_vm(99),
        ),
        Box::new(Churner::new(cfg)),
    );
    ChurnerSetup { server, client }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_sim::time::SimTime;

    #[test]
    fn zipf_is_normalized_and_skewed() {
        let w = zipf_weights(5, 1.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[1] && w[1] > w[4]);
        let flat = zipf_weights(5, 0.0);
        assert!((flat[0] - flat[4]).abs() < 1e-12);
    }

    #[test]
    fn fleet_places_servers_and_clients_apart() {
        let mut bed = Testbed::build(crate::TestbedConfig {
            n_servers: 3,
            ..Default::default()
        });
        let fleet = TenantFleet::build(
            &mut bed,
            &TenantFleetConfig {
                n_tenants: 4,
                clients_per_tenant: 2,
                ..Default::default()
            },
        );
        assert_eq!(fleet.tenants.len(), 4);
        for t in &fleet.tenants {
            for c in &t.clients {
                assert_ne!(c.server, t.server.server, "client must cross the ToR");
                assert_eq!(c.tenant, t.tenant);
            }
        }
        // Zipf rank 1 runs the deepest bursts.
        assert!(fleet.tenants[0].burst >= fleet.tenants[3].burst);
    }

    #[test]
    fn fleet_makes_progress_with_skewed_tps() {
        let mut bed = Testbed::build(crate::TestbedConfig {
            n_servers: 2,
            ..Default::default()
        });
        let cfg = TenantFleetConfig {
            n_tenants: 3,
            zipf_s: 1.5,
            peak_burst: 8,
            ..Default::default()
        };
        let fleet = TenantFleet::build(&mut bed, &cfg);
        bed.start();
        bed.run_until(SimTime::from_millis(300));
        fleet.begin_windows(&mut bed);
        bed.run_until(SimTime::from_secs(1));
        let now = bed.now();
        let tps: Vec<f64> = fleet
            .tenants
            .iter()
            .map(|t| {
                t.clients
                    .iter()
                    .map(|&c| bed.app::<MemslapClient>(c).tps(now))
                    .sum()
            })
            .collect();
        assert!(tps.iter().all(|&x| x > 100.0), "all tenants run: {tps:?}");
        assert!(
            tps[0] > 1.5 * tps[2],
            "rank-1 tenant must dominate rank-3: {tps:?}"
        );
    }

    #[test]
    fn churner_rotates_heat_across_aggregates() {
        let mut bed = Testbed::build(crate::TestbedConfig {
            n_servers: 2,
            ..Default::default()
        });
        let cfg = ChurnerConfig {
            phase: SimDuration::from_millis(100),
            conns_per_port: 2,
            ..ChurnerConfig::aggressive(Ip::tenant_vm(90))
        };
        let setup = add_churner(&mut bed, TenantId(9), 0, 1, cfg);
        // Bytes each churn port has received at the echo server.
        let per_port = |bed: &Testbed| {
            let stack = &bed.server(setup.server.server).vm(setup.server.vm).stack;
            let mut bytes = [0u64; 16];
            for id in stack.conn_ids() {
                let c = stack.conn(id);
                bytes[(c.flow.src_port - CHURN_PORT_BASE) as usize] += c.stats.bytes_delivered;
            }
            bytes
        };
        bed.start();
        // Inside each 100 ms phase, exactly the four hot ports carry
        // requests, and each phase heats the next four.
        let mut heated = [false; 16];
        let mut first_hot = Vec::new();
        for phase in 1..10 {
            bed.run_until(SimTime::from_millis(100 * phase + 10));
            let before = per_port(&bed);
            bed.run_until(SimTime::from_millis(100 * phase + 90));
            let after = per_port(&bed);
            let hot: Vec<usize> = (0..16).filter(|&p| after[p] > before[p]).collect();
            assert_eq!(hot.len(), 4, "phase {phase}: {hot:?}");
            hot.iter().for_each(|&p| heated[p] = true);
            first_hot.push(hot[0]);
        }
        assert!(first_hot.windows(2).all(|w| w[0] != w[1]), "{first_hot:?}");
        assert!(heated.iter().all(|&h| h), "every aggregate ran hot");
        bed.run_until(SimTime::from_secs(1));
        let cli = bed.app::<Churner>(setup.client);
        assert!(cli.completed > 1_000, "churn must carry real traffic");
        let srv = bed.app::<EchoRangeServer>(setup.server);
        assert!(srv.served > 1_000);
    }
}
