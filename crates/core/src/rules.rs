//! The unified rule manager (paper §4.3).
//!
//! FasTrak "manages the required hardware and hypervisor rules as a unified
//! set". When the decision engine offloads a flow aggregate, the rule
//! manager synthesizes "a rule that most specifically defines the policy for
//! the flow being offloaded" — possible because the controllers know every
//! tenant rule and its priority. The synthesized bundle carries the ACL
//! allow and (implicitly, via the ToR's tunnel directory) the GRE mapping;
//! no QoS class is synthesized.
//!
//! Safety rule: an aggregate is only offloadable when **no deny rule can
//! match any flow inside it** at a priority that would win. Otherwise
//! hardware (which holds only the synthesized allow) would pass traffic the
//! vswitch would have dropped.

use fastrak_net::addr::TenantId;
use fastrak_net::ctrl::TorRule;
use fastrak_net::flow::{FlowAggregate, FlowSpec};
use fastrak_net::rules::{Action, RuleSet};
use fastrak_sim::FxHashMap;

/// Why an aggregate could not be offloaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthesisError {
    /// A deny rule overlaps the aggregate and could win on priority.
    DenyOverlap,
}

/// Can two specs match a common flow? (Conservative: true unless a concrete
/// field conflicts.)
pub fn specs_intersect(a: &FlowSpec, b: &FlowSpec) -> bool {
    fn ok<T: PartialEq>(x: Option<T>, y: Option<T>) -> bool {
        match (x, y) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        }
    }
    ok(a.tenant, b.tenant)
        && ok(a.src_ip, b.src_ip)
        && ok(a.dst_ip, b.dst_ip)
        && ok(a.proto, b.proto)
        && ok(a.src_port, b.src_port)
        && ok(a.dst_port, b.dst_port)
}

/// The rule manager: tenant policies + synthesis.
#[derive(Debug, Clone, Default)]
pub struct RuleManager {
    policies: FxHashMap<TenantId, RuleSet>,
}

impl RuleManager {
    /// Empty manager (tenants default to allow-all, mirroring the
    /// default-open vswitch; the ToR stays default-deny and only passes
    /// synthesized rules).
    pub fn new() -> RuleManager {
        RuleManager::default()
    }

    /// Install a tenant's policy.
    pub fn set_policy(&mut self, tenant: TenantId, rules: RuleSet) {
        self.policies.insert(tenant, rules);
    }

    /// Synthesize the ToR rule bundle for an offloaded aggregate.
    pub fn synthesize(
        &self,
        agg: &FlowAggregate,
        priority: u16,
    ) -> Result<TorRule, SynthesisError> {
        let tenant = agg.tenant();
        let spec = agg.to_spec();
        if let Some(policy) = self.policies.get(&tenant) {
            // A deny rule that intersects the aggregate makes hardware
            // offload unsafe: some flow inside the aggregate would have
            // been dropped by the vswitch. (An allow rule that *covers*
            // the spec with strictly higher priority than every
            // intersecting deny would be safe, but proving coverage for
            // every flow is the same intersection test, so stay simple and
            // conservative.)
            for r in policy.security_rules() {
                if r.action == Action::Deny && specs_intersect(&r.spec, &spec) {
                    let overridden = policy.security_rules().any(|a| {
                        a.action == Action::Allow
                            && a.spec.covers(&spec)
                            && (a.priority, a.spec.specificity())
                                > (r.priority, r.spec.specificity())
                    });
                    if !overridden {
                        return Err(SynthesisError::DenyOverlap);
                    }
                }
            }
        }
        Ok(TorRule {
            tenant,
            spec,
            priority,
            action: Action::Allow,
            tunnel: None, // resolved by the ToR's tunnel directory
            qos: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::addr::Ip;
    use fastrak_net::rules::SecurityRule;

    fn agg() -> FlowAggregate {
        FlowAggregate::DstApp {
            tenant: TenantId(1),
            ip: Ip::tenant_vm(9),
            port: 11211,
        }
    }

    #[test]
    fn specs_intersection_logic() {
        let a = FlowSpec {
            tenant: Some(TenantId(1)),
            dst_port: Some(80),
            ..FlowSpec::ANY
        };
        let b = FlowSpec {
            tenant: Some(TenantId(1)),
            src_port: Some(99),
            ..FlowSpec::ANY
        };
        let c = FlowSpec {
            tenant: Some(TenantId(1)),
            dst_port: Some(81),
            ..FlowSpec::ANY
        };
        assert!(specs_intersect(&a, &b));
        assert!(!specs_intersect(&a, &c));
        assert!(specs_intersect(&FlowSpec::ANY, &a));
    }

    #[test]
    fn default_policy_synthesizes_allow() {
        let rm = RuleManager::new();
        let r = rm.synthesize(&agg(), 7).unwrap();
        assert_eq!(r.action, Action::Allow);
        assert_eq!(r.priority, 7);
        assert_eq!(r.spec, agg().to_spec());
        assert!(r.qos.is_none());
    }

    #[test]
    fn deny_overlap_blocks_offload() {
        let mut rm = RuleManager::new();
        let mut rs = RuleSet::new();
        rs.add_security(SecurityRule {
            spec: FlowSpec {
                tenant: Some(TenantId(1)),
                dst_port: Some(11211),
                ..FlowSpec::ANY
            },
            priority: 10,
            action: Action::Deny,
        });
        rm.set_policy(TenantId(1), rs);
        assert_eq!(rm.synthesize(&agg(), 7), Err(SynthesisError::DenyOverlap));
    }

    #[test]
    fn non_overlapping_deny_is_fine() {
        let mut rm = RuleManager::new();
        let mut rs = RuleSet::new();
        rs.add_security(SecurityRule {
            spec: FlowSpec {
                tenant: Some(TenantId(1)),
                dst_port: Some(22),
                ..FlowSpec::ANY
            },
            priority: 10,
            action: Action::Deny,
        });
        rm.set_policy(TenantId(1), rs);
        assert!(rm.synthesize(&agg(), 7).is_ok());
    }

    #[test]
    fn higher_priority_covering_allow_overrides_deny() {
        let mut rm = RuleManager::new();
        let mut rs = RuleSet::new();
        rs.add_security(SecurityRule {
            spec: FlowSpec::tenant(TenantId(1)),
            priority: 5,
            action: Action::Deny,
        });
        rs.add_security(SecurityRule {
            spec: FlowSpec {
                tenant: Some(TenantId(1)),
                dst_ip: Some(Ip::tenant_vm(9)),
                ..FlowSpec::ANY
            },
            priority: 20,
            action: Action::Allow,
        });
        rm.set_policy(TenantId(1), rs);
        assert!(rm.synthesize(&agg(), 7).is_ok());
    }
}
