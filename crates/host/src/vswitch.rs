//! The Open vSwitch model (paper §2.2).
//!
//! Two-tier architecture exactly as in OVS 1.9:
//!
//! * **kernel datapath** — an exact-match hash table
//!   ([`fastrak_net::tables::ExactMatchTable`]) from flow key to action. A
//!   hit is O(1) and handled "entirely by the kernel component".
//! * **userspace slow path** — on a miss, the packet is checked against the
//!   configured security rules and tunnel mappings, and an exact-match rule
//!   is installed so subsequent packets stay in the kernel. This is why
//!   "10,000 security rules showed no measurable difference" (§3.2): only
//!   the first packet of a flow pays the scan.
//!
//! The vswitch is a *passive policy engine*: the owning
//! [`crate::server::Server`] charges the CPU costs and enforces the htb
//! token buckets; this module decides what happens to each packet and keeps
//! the per-flow statistics the local controller's Measurement Engine dumps.

use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::ctrl::{Dir, FlowStatEntry};
use fastrak_net::flow::FlowKey;
use fastrak_net::rules::{Action, RuleSet};
use fastrak_net::tables::ExactMatchTable;
use fastrak_net::tunnel::{TunnelKey, TunnelMapping};
use fastrak_sim::tbf::TokenBucket;
use fastrak_sim::time::SimTime;
use fastrak_sim::FxHashMap;

/// Where a transmitted packet goes after vswitch processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxVerdict {
    /// Deliver to a co-resident VM (by local VM index).
    Local(usize),
    /// Send out the physical NIC, VXLAN-encapsulated to a remote server.
    UplinkTunneled(TunnelMapping),
    /// Send out the physical NIC untunneled (tunneling disabled).
    UplinkPlain,
    /// Dropped by security policy.
    Denied,
    /// Dropped: no route to the destination VM.
    NoRoute,
}

/// Result of a datapath consultation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxResult {
    /// Final verdict.
    pub verdict: TxVerdict,
    /// True when the userspace slow path ran (first packet of a flow).
    pub slow_path: bool,
}

/// Configuration block mirroring the paper's OVS configurations (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VswitchConfig {
    /// 'OVS+Tunneling': VXLAN-encapsulate cross-server traffic.
    pub tunneling: bool,
}

/// The vswitch.
#[derive(Debug, Clone)]
pub struct Vswitch {
    cfg: VswitchConfig,
    /// Kernel datapath cache: the verdict of each exact flow.
    datapath: ExactMatchTable<TxVerdict>,
    /// Userspace security rules (per tenant; scanned only on miss).
    rules: RuleSet,
    /// Tunnel mappings (userspace; resolved on miss, baked into the cache).
    tunnels: FxHashMap<TunnelKey, TunnelMapping>,
    /// Local VM directory: (tenant, vm tenant-IP) -> local VM index.
    local_vms: Vec<(TenantId, Ip)>,
    /// Per-local-VM software rate limiters (tc htb semantics), indexed like
    /// `local_vms`, then by [`Dir`]; `None` = unlimited.
    vif_rates: Vec<[Option<TokenBucket>; 2]>,
    slow_path_hits: u64,
    fast_path_hits: u64,
}

impl Vswitch {
    /// An empty vswitch in the given configuration.
    pub fn new(cfg: VswitchConfig) -> Vswitch {
        Vswitch {
            cfg,
            datapath: ExactMatchTable::new(),
            rules: RuleSet::new(),
            tunnels: FxHashMap::default(),
            local_vms: Vec::new(),
            vif_rates: Vec::new(),
            slow_path_hits: 0,
            fast_path_hits: 0,
        }
    }

    /// Register a local VM's VIF; index must match the server's VM index.
    pub fn attach_vif(&mut self, tenant: TenantId, vm_ip: Ip) -> usize {
        self.local_vms.push((tenant, vm_ip));
        self.vif_rates.push([None, None]);
        self.local_vms.len() - 1
    }

    /// The security rule set (userspace). Add tenant rules here.
    pub fn rules_mut(&mut self) -> &mut RuleSet {
        &mut self.rules
    }

    /// Tunnel mappings (userspace).
    pub fn tunnels_mut(&mut self) -> &mut FxHashMap<TunnelKey, TunnelMapping> {
        &mut self.tunnels
    }

    /// Limit VM `vm`'s VIF to `bps` in one direction.
    pub fn set_vif_rate(&mut self, vm: usize, dir: Dir, bps: u64) {
        self.vif_rates[vm][dir as usize] = Some(TokenBucket::for_rate(bps));
    }

    /// The limit configured on VM `vm`'s VIF in one direction, bits/sec.
    pub fn vif_rate(&self, vm: usize, dir: Dir) -> Option<u64> {
        self.vif_rates[vm][dir as usize]
            .as_ref()
            .map(TokenBucket::rate_bps)
    }

    /// Shape a packet of VM `vm` in one direction: returns its conforming
    /// departure time.
    pub fn shape(&mut self, vm: usize, dir: Dir, now: SimTime, bytes: u64) -> SimTime {
        match &mut self.vif_rates[vm][dir as usize] {
            Some(tb) => tb.acquire(now, bytes),
            None => now,
        }
    }

    /// Number of userspace security rules installed.
    pub fn n_rules(&self) -> usize {
        self.rules.security_len()
    }

    /// Times the slow path ran.
    pub fn slow_path_hits(&self) -> u64 {
        self.slow_path_hits
    }

    /// Datapath cache hits on the tx path (complement of
    /// [`slow_path_hits`](Self::slow_path_hits)).
    pub fn fast_path_hits(&self) -> u64 {
        self.fast_path_hits
    }

    /// Kernel datapath size (exact-match entries).
    pub fn datapath_len(&self) -> usize {
        self.datapath.len()
    }

    fn local_index(&self, tenant: TenantId, ip: Ip) -> Option<usize> {
        self.local_vms
            .iter()
            .position(|&(t, i)| t == tenant && i == ip)
    }

    /// Process one transmitted packet from a local VIF.
    ///
    /// `bytes` is the wire byte count to account against the matched flow.
    pub fn process_tx(&mut self, key: &FlowKey, bytes: u64) -> TxResult {
        if let Some(&verdict) = self.datapath.lookup(key, bytes) {
            self.fast_path_hits += 1;
            return TxResult {
                verdict,
                slow_path: false,
            };
        }
        // Userspace slow path: policy + routing decision, then cache it.
        self.slow_path_hits += 1;
        let verdict = self.decide(key);
        self.datapath.insert(*key, verdict);
        // Account the packet against the fresh entry.
        let _ = self.datapath.lookup(key, bytes);
        TxResult {
            verdict,
            slow_path: true,
        }
    }

    fn decide(&mut self, key: &FlowKey) -> TxVerdict {
        // OVS default-open: with no matching rule the packet passes; an
        // explicit Deny rule drops (the ToR is default-closed instead).
        if self.rules.evaluate(key) == Some(Action::Deny) {
            return TxVerdict::Denied;
        }
        if let Some(local) = self.local_index(key.tenant, key.dst_ip) {
            return TxVerdict::Local(local);
        }
        if self.cfg.tunneling {
            match self.tunnels.get(&TunnelKey {
                tenant: key.tenant,
                vm_ip: key.dst_ip,
            }) {
                Some(&m) => TxVerdict::UplinkTunneled(m),
                None => TxVerdict::NoRoute,
            }
        } else {
            TxVerdict::UplinkPlain
        }
    }

    /// [`Self::process_tx`] over a slice, one [`TxResult`] per packet appended
    /// to `out` in order. Nothing in the simulator calls it: it stays only
    /// because the benchmark's `host.probe.vswitch_tx_ns_per_pkt` probe
    /// (`benchmark/src/probes.rs`, which this repo's PRs may not edit) does.
    pub fn process_tx_burst(&mut self, pkts: &[(FlowKey, u64)], out: &mut Vec<TxResult>) {
        out.extend(pkts.iter().map(|(key, bytes)| self.process_tx(key, *bytes)));
    }

    /// Process one received packet (post-decap) destined to a local VM.
    /// Returns the local VM index, or the verdict the packet is dropped
    /// under: [`TxVerdict::Denied`] by the tenant's security policy, anything
    /// else because no such VM lives here.
    pub fn process_rx(&mut self, key: &FlowKey, bytes: u64) -> Result<usize, TxVerdict> {
        // Receive side also caches (reverse-direction entries).
        match self.process_tx(key, bytes).verdict {
            TxVerdict::Local(i) => Ok(i),
            TxVerdict::Denied => Err(TxVerdict::Denied),
            // Cached before the VM attached. A packet for a VM that still is
            // not here is a routing bug upstream or a stale mapping after VM
            // migration: drop.
            other => self.local_index(key.tenant, key.dst_ip).ok_or(other),
        }
    }

    /// Dump per-flow statistics (what the local controller's ME queries).
    pub fn dump_flow_stats(&self) -> Vec<FlowStatEntry> {
        self.datapath
            .iter()
            .map(|(k, _v, stats)| FlowStatEntry {
                key: *k,
                packets: stats.count,
                bytes: stats.bytes,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::flow::{FlowSpec, Proto};
    use fastrak_net::rules::SecurityRule;

    fn key(tenant: u32, src: Ip, dst: Ip) -> FlowKey {
        FlowKey {
            tenant: TenantId(tenant),
            src_ip: src,
            dst_ip: dst,
            proto: Proto::Tcp,
            src_port: 1000,
            dst_port: 2000,
        }
    }

    fn vm(i: u16) -> Ip {
        Ip::tenant_vm(i)
    }

    #[test]
    fn first_packet_slow_then_fast() {
        let mut vs = Vswitch::new(VswitchConfig::default());
        vs.attach_vif(TenantId(1), vm(1));
        let k = key(1, vm(1), vm(99));
        let r1 = vs.process_tx(&k, 100);
        assert!(r1.slow_path);
        assert_eq!(r1.verdict, TxVerdict::UplinkPlain);
        let r2 = vs.process_tx(&k, 100);
        assert!(!r2.slow_path);
        assert_eq!(vs.slow_path_hits(), 1);
        assert_eq!(vs.datapath_len(), 1);
    }

    #[test]
    fn local_delivery_between_coresident_vms() {
        let mut vs = Vswitch::new(VswitchConfig::default());
        vs.attach_vif(TenantId(1), vm(1));
        let idx2 = vs.attach_vif(TenantId(1), vm(2));
        let r = vs.process_tx(&key(1, vm(1), vm(2)), 100);
        assert_eq!(r.verdict, TxVerdict::Local(idx2));
    }

    #[test]
    fn tenant_isolation_on_local_delivery() {
        // Same IP, different tenant: must NOT deliver locally to the other
        // tenant's VM.
        let mut vs = Vswitch::new(VswitchConfig::default());
        vs.attach_vif(TenantId(1), vm(1));
        vs.attach_vif(TenantId(2), vm(2));
        let r = vs.process_tx(&key(1, vm(1), vm(2)), 100);
        assert_ne!(r.verdict, TxVerdict::Local(1));
    }

    #[test]
    fn deny_rule_drops() {
        let mut vs = Vswitch::new(VswitchConfig::default());
        vs.attach_vif(TenantId(1), vm(1));
        vs.rules_mut().add_security(SecurityRule {
            spec: FlowSpec::tenant(TenantId(1)),
            priority: 5,
            action: Action::Deny,
        });
        let r = vs.process_tx(&key(1, vm(1), vm(9)), 10);
        assert_eq!(r.verdict, TxVerdict::Denied);
        // Cached as denied too.
        let r2 = vs.process_tx(&key(1, vm(1), vm(9)), 10);
        assert!(!r2.slow_path);
        assert_eq!(r2.verdict, TxVerdict::Denied);
    }

    #[test]
    fn tunneling_resolves_mapping() {
        let mut vs = Vswitch::new(VswitchConfig { tunneling: true });
        vs.attach_vif(TenantId(1), vm(1));
        let m = TunnelMapping {
            server_ip: Ip::provider_server(0, 2),
            tor_ip: Ip::provider_tor(0),
        };
        vs.tunnels_mut().insert(
            TunnelKey {
                tenant: TenantId(1),
                vm_ip: vm(5),
            },
            m,
        );
        let r = vs.process_tx(&key(1, vm(1), vm(5)), 10);
        assert_eq!(r.verdict, TxVerdict::UplinkTunneled(m));
        // Unmapped destination: no route.
        let r2 = vs.process_tx(&key(1, vm(1), vm(6)), 10);
        assert_eq!(r2.verdict, TxVerdict::NoRoute);
        // Tenant 2 reuses the VM IP: the tenant tells the mappings apart.
        let r3 = vs.process_tx(&key(2, vm(1), vm(5)), 10);
        assert_eq!(r3.verdict, TxVerdict::NoRoute);
        let m2 = TunnelMapping {
            server_ip: Ip::provider_server(1, 3),
            tor_ip: Ip::provider_tor(1),
        };
        vs.tunnels_mut().insert(
            TunnelKey {
                tenant: TenantId(2),
                vm_ip: vm(5),
            },
            m2,
        );
        let r4 = vs.process_tx(&key(2, vm(2), vm(5)), 10);
        assert_eq!(r4.verdict, TxVerdict::UplinkTunneled(m2));
        let r5 = vs.process_tx(&key(1, vm(2), vm(5)), 10);
        assert_eq!(r5.verdict, TxVerdict::UplinkTunneled(m));
    }

    #[test]
    fn rx_delivers_to_local_vm() {
        let mut vs = Vswitch::new(VswitchConfig::default());
        let idx = vs.attach_vif(TenantId(1), vm(1));
        assert_eq!(vs.process_rx(&key(1, vm(9), vm(1)), 10), Ok(idx));
        let not_here = vs.process_rx(&key(1, vm(9), vm(42)), 10);
        assert_eq!(not_here, Err(TxVerdict::UplinkPlain));
    }

    #[test]
    fn rx_drops_what_the_security_policy_denies() {
        let mut vs = Vswitch::new(VswitchConfig::default());
        vs.attach_vif(TenantId(1), vm(1));
        vs.rules_mut().add_security(SecurityRule {
            spec: FlowSpec {
                dst_port: Some(2000),
                ..FlowSpec::tenant(TenantId(1))
            },
            priority: 5,
            action: Action::Deny,
        });
        // The same key, either direction through the vswitch: denied.
        let k = key(1, vm(9), vm(1));
        assert_eq!(vs.process_tx(&k, 10).verdict, TxVerdict::Denied);
        assert_eq!(vs.process_rx(&k, 10), Err(TxVerdict::Denied));
        let other_port = FlowKey { dst_port: 80, ..k };
        assert_eq!(vs.process_rx(&other_port, 10), Ok(0));
    }

    #[test]
    fn stats_accumulate_and_dump() {
        let mut vs = Vswitch::new(VswitchConfig::default());
        vs.attach_vif(TenantId(1), vm(1));
        let k = key(1, vm(1), vm(9));
        vs.process_tx(&k, 100);
        vs.process_tx(&k, 200);
        let dump = vs.dump_flow_stats();
        assert_eq!(dump.len(), 1);
        assert_eq!(dump[0].packets, 2);
        assert_eq!(dump[0].bytes, 300);
    }

    #[test]
    fn egress_shaping_delays_when_configured() {
        let mut vs = Vswitch::new(VswitchConfig::default());
        let idx = vs.attach_vif(TenantId(1), vm(1));
        assert_eq!(vs.vif_rate(idx, Dir::Egress), None);
        // 8 kbit/s: once the 64 kB burst is spent, 1 KB takes a second.
        vs.set_vif_rate(idx, Dir::Egress, 8_000);
        assert_eq!(vs.vif_rate(idx, Dir::Egress), Some(8_000));
        assert_eq!(vs.vif_rate(idx, Dir::Ingress), None);
        let t0 = SimTime::ZERO;
        assert_eq!(vs.shape(idx, Dir::Egress, t0, 64_000), t0); // burst passes
        let t1 = vs.shape(idx, Dir::Egress, t0, 1_000);
        assert!(t1 >= t0 + fastrak_sim::time::SimDuration::from_millis(900));
        // The other direction is not limited.
        assert_eq!(vs.shape(idx, Dir::Ingress, t0, 64_000), t0);
    }
}
