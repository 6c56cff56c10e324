//! The modified bonding driver's **flow placer** (paper §4.1.1).
//!
//! Each FasTrak-enabled VM bonds its VIF and its SR-IOV VF; the placer
//! decides, per flow, which slave interface transmits. Its design mirrors
//! Open vSwitch: the control plane holds wildcard rules installed by the
//! FasTrak rule manager over an OpenFlow-style interface; the data plane is
//! an exact-match hash table for O(1) per-packet lookups. A data-plane miss
//! consults the control plane and installs an exact rule — both live in the
//! same kernel context, so the first-packet penalty is minimal (footnote 1).
//!
//! Flows default to the VIF path; only rules installed by the controller
//! divert traffic to the SR-IOV VF.

use fastrak_net::flow::{FlowKey, FlowSpec};
use fastrak_net::packet::PathTag;
use fastrak_net::tables::WildcardTable;
use fastrak_sim::FxHashMap;

/// Capacity of the placer's control-plane wildcard table. Generous: it
/// lives in host memory, not switch TCAM.
const CONTROL_PLANE_CAPACITY: usize = 4096;

/// The path of a flow no rule covers.
const DEFAULT_PATH: PathTag = PathTag::Vif;

/// The per-VM flow placer.
#[derive(Debug, Clone)]
pub struct FlowPlacer {
    control: WildcardTable<PathTag>,
    data: FxHashMap<FlowKey, PathTag>,
}

impl Default for FlowPlacer {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowPlacer {
    /// A placer with no rules: everything takes the VIF.
    pub fn new() -> FlowPlacer {
        FlowPlacer {
            control: WildcardTable::new(CONTROL_PLANE_CAPACITY),
            data: FxHashMap::default(),
        }
    }

    /// Place a packet: O(1) data-plane hit, or control-plane consult +
    /// exact-rule install on miss (the "first packet" case). Returns the
    /// chosen path.
    pub fn place(&mut self, key: &FlowKey) -> PathTag {
        // `get` first: through `entry` (which takes the key by value) a hit
        // timed several times slower (`flow_placer_cached_place` bench).
        if let Some(&path) = self.data.get(key) {
            return path;
        }
        let path = resolve(&self.control, key);
        self.data.insert(*key, path);
        path
    }

    /// Install a redirection rule (OpenFlow interface used by the local
    /// controller, §4.3.2). Invalidates cached exact rules the new rule
    /// covers so they re-resolve.
    pub fn install_rule(&mut self, spec: FlowSpec, priority: u16, path: PathTag) {
        // Control-plane table is large; treat exhaustion as a programming
        // error rather than a data-plane condition.
        self.control
            .install(spec, priority, path)
            .expect("flow placer control plane exhausted");
        self.data.retain(|k, _| !spec.matches(k));
    }

    /// Remove rules with exactly this spec; matching cached entries revert
    /// to re-resolution. Returns how many control-plane rules were removed.
    pub fn remove_rule(&mut self, spec: &FlowSpec) -> usize {
        let n = self.control.remove_spec(spec);
        if n > 0 {
            self.data.retain(|k, _| !spec.matches(k));
        }
        n
    }

    /// Path currently cached/decided for a flow, without accounting.
    pub fn current_path(&self, key: &FlowKey) -> PathTag {
        match self.data.get(key) {
            Some(&p) => p,
            None => resolve(&self.control, key),
        }
    }

    /// Number of control-plane rules installed.
    pub fn n_rules(&self) -> usize {
        self.control.len()
    }
}

/// The control plane's answer for a flow: its winning rule's path, or the
/// default.
fn resolve(control: &WildcardTable<PathTag>, key: &FlowKey) -> PathTag {
    control.find(key).map_or(DEFAULT_PATH, |e| e.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::addr::{Ip, TenantId};
    use fastrak_net::flow::Proto;

    fn key(dst_port: u16) -> FlowKey {
        FlowKey {
            tenant: TenantId(1),
            src_ip: Ip::tenant_vm(1),
            dst_ip: Ip::tenant_vm(2),
            proto: Proto::Tcp,
            src_port: 44_000,
            dst_port,
        }
    }

    fn port_spec(dst_port: u16) -> FlowSpec {
        FlowSpec {
            tenant: Some(TenantId(1)),
            dst_port: Some(dst_port),
            ..FlowSpec::ANY
        }
    }

    /// Place `key` and report whether the control plane was consulted (the
    /// data plane held no entry for it).
    fn place(p: &mut FlowPlacer, key: &FlowKey) -> (PathTag, bool) {
        let miss = !p.data.contains_key(key);
        (p.place(key), miss)
    }

    #[test]
    fn default_is_vif() {
        let mut p = FlowPlacer::new();
        let (path, miss) = place(&mut p, &key(80));
        assert_eq!(path, PathTag::Vif);
        assert!(miss);
        // Cached now.
        let (path, miss) = place(&mut p, &key(80));
        assert_eq!(path, PathTag::Vif);
        assert!(!miss);
    }

    #[test]
    fn rule_diverts_to_sriov() {
        let mut p = FlowPlacer::new();
        p.install_rule(port_spec(11211), 10, PathTag::SrIov);
        assert_eq!(p.place(&key(11211)), PathTag::SrIov);
        assert_eq!(p.place(&key(80)), PathTag::Vif);
    }

    #[test]
    fn install_invalidates_covered_cache() {
        let mut p = FlowPlacer::new();
        // Cache the flow on the VIF first.
        assert_eq!(p.place(&key(11211)), PathTag::Vif);
        // Now offload it.
        p.install_rule(port_spec(11211), 10, PathTag::SrIov);
        let (path, miss) = place(&mut p, &key(11211));
        assert_eq!(path, PathTag::SrIov);
        assert!(miss, "cache entry must have been invalidated");
        // Unrelated cached flows survive.
        let (_, miss80_before) = place(&mut p, &key(80));
        assert!(miss80_before); // first time seen
        p.install_rule(port_spec(9999), 10, PathTag::SrIov);
        let (_, miss80_after) = place(&mut p, &key(80));
        assert!(!miss80_after, "unrelated cache entries must survive");
    }

    #[test]
    fn remove_rule_reverts_to_default() {
        let mut p = FlowPlacer::new();
        let spec = port_spec(11211);
        p.install_rule(spec, 10, PathTag::SrIov);
        assert_eq!(p.place(&key(11211)), PathTag::SrIov);
        assert_eq!(p.remove_rule(&spec), 1);
        let (path, miss) = place(&mut p, &key(11211));
        assert_eq!(path, PathTag::Vif);
        assert!(miss);
        // Removing again is a no-op.
        assert_eq!(p.remove_rule(&spec), 0);
    }

    #[test]
    fn priority_resolves_conflicts() {
        let mut p = FlowPlacer::new();
        p.install_rule(FlowSpec::tenant(TenantId(1)), 1, PathTag::SrIov);
        p.install_rule(port_spec(22), 10, PathTag::Vif);
        assert_eq!(p.current_path(&key(22)), PathTag::Vif);
        assert_eq!(p.current_path(&key(80)), PathTag::SrIov);
    }
}
