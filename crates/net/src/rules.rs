//! Tenant network-virtualization rules.
//!
//! A tenant VM carries up to hundreds of security rules (the paper cites
//! Amazon VPC's 250-rule-per-VM limit, §2.1). Rules are priority
//! ordered; the highest-priority matching rule wins (ties break toward the
//! more specific rule, then insertion order, mirroring OVS semantics).

use crate::flow::{FlowKey, FlowSpec};

/// Disposition of a matched security rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Permit the traffic.
    Allow,
    /// Drop the traffic.
    Deny,
}

/// A QoS class a flow may be mapped into (ToR queue / DSCP marking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QosClass(pub u8);

/// One tenant security rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityRule {
    /// Match pattern.
    pub spec: FlowSpec,
    /// Higher wins.
    pub priority: u16,
    /// Allow or deny.
    pub action: Action,
}

/// A tenant's security policy: the "unified set" the FasTrak rule manager
/// splits between software and hardware.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    security: Vec<SecurityRule>,
}

impl RuleSet {
    /// Empty policy (default deny is applied by the *evaluation point*, not
    /// the rule set: OVS defaults open, the ToR defaults closed, §4.1.3).
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Add a security rule.
    pub fn add_security(&mut self, rule: SecurityRule) {
        self.security.push(rule);
    }

    /// Number of security rules.
    pub fn security_len(&self) -> usize {
        self.security.len()
    }

    /// Iterate security rules.
    pub fn security_rules(&self) -> impl Iterator<Item = &SecurityRule> {
        self.security.iter()
    }

    /// Evaluate the security policy for a flow. Returns the action of the
    /// best-matching rule, or `None` when nothing matches.
    ///
    /// "Best" = highest priority, then most specific, then first inserted.
    pub fn evaluate(&self, key: &FlowKey) -> Option<Action> {
        self.best_security(key).map(|r| r.action)
    }

    /// The best-matching security rule itself (the rule manager synthesizes
    /// hardware rules from it, §4.3).
    pub fn best_security(&self, key: &FlowKey) -> Option<&SecurityRule> {
        self.security
            .iter()
            .filter(|r| r.spec.matches(key))
            .max_by(|a, b| {
                (a.priority, a.spec.specificity()).cmp(&(b.priority, b.spec.specificity()))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ip, TenantId};
    use crate::flow::Proto;

    fn key(dst_port: u16) -> FlowKey {
        FlowKey {
            tenant: TenantId(1),
            src_ip: Ip::new(10, 0, 0, 1),
            dst_ip: Ip::new(10, 0, 0, 2),
            proto: Proto::Tcp,
            src_port: 55555,
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

    #[test]
    fn empty_ruleset_matches_nothing() {
        let rs = RuleSet::new();
        assert_eq!(rs.evaluate(&key(80)), None);
    }

    #[test]
    fn priority_wins() {
        let mut rs = RuleSet::new();
        rs.add_security(SecurityRule {
            spec: FlowSpec::tenant(TenantId(1)),
            priority: 10,
            action: Action::Deny,
        });
        rs.add_security(SecurityRule {
            spec: port_spec(11211),
            priority: 20,
            action: Action::Allow,
        });
        assert_eq!(rs.evaluate(&key(11211)), Some(Action::Allow));
        assert_eq!(rs.evaluate(&key(80)), Some(Action::Deny));
    }

    #[test]
    fn specificity_breaks_priority_ties() {
        let mut rs = RuleSet::new();
        rs.add_security(SecurityRule {
            spec: FlowSpec::tenant(TenantId(1)),
            priority: 10,
            action: Action::Deny,
        });
        rs.add_security(SecurityRule {
            spec: port_spec(22),
            priority: 10,
            action: Action::Allow,
        });
        assert_eq!(rs.evaluate(&key(22)), Some(Action::Allow));
    }

    #[test]
    fn wrong_tenant_does_not_match() {
        let mut rs = RuleSet::new();
        rs.add_security(SecurityRule {
            spec: FlowSpec::tenant(TenantId(2)),
            priority: 1,
            action: Action::Allow,
        });
        assert_eq!(rs.evaluate(&key(80)), None);
    }

    #[test]
    fn best_security_exposes_matched_rule() {
        let mut rs = RuleSet::new();
        let r = SecurityRule {
            spec: port_spec(443),
            priority: 9,
            action: Action::Allow,
        };
        rs.add_security(r);
        assert_eq!(rs.best_security(&key(443)), Some(&r));
        assert_eq!(rs.security_len(), 1);
    }

    #[test]
    fn ten_thousand_rules_still_evaluate() {
        // Paper §3.2: 10,000 installed rules show no measurable overhead in
        // the datapath thanks to the O(1) cache; the slow path still has to
        // scan. This test pins correctness at that scale.
        let mut rs = RuleSet::new();
        for i in 0..10_000u16 {
            rs.add_security(SecurityRule {
                spec: port_spec(i),
                priority: 5,
                action: if i % 2 == 0 {
                    Action::Allow
                } else {
                    Action::Deny
                },
            });
        }
        assert_eq!(rs.evaluate(&key(400)), Some(Action::Allow));
        assert_eq!(rs.evaluate(&key(401)), Some(Action::Deny));
        assert_eq!(rs.evaluate(&key(20_000)), None);
    }
}
