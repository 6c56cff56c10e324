//! Control-plane protocol between the FasTrak controllers and the data
//! plane (vswitches, flow placers, ToR switches).
//!
//! This mirrors the paper's use of OpenFlow: the flow placer "exposes an
//! OpenFlow interface, allowing the FasTrak rule manager to direct a subset
//! of flows via the SR-IOV interface" (§4.1.1), and the TOR controller
//! "issues OpenFlow table and flow stats requests" (§5.2). Messages are
//! typed Rust structs carried in [`crate::event::CtlMsg`] envelopes; the
//! request/reply correlation id plays the role of OpenFlow's xid.

use crate::addr::{Ip, TenantId};
use crate::flow::{FlowKey, FlowSpec};
use crate::packet::PathTag;
use crate::rules::{Action, QosClass};
use crate::tunnel::TunnelMapping;

/// Traffic direction for rate limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Traffic leaving the VM.
    Egress,
    /// Traffic entering the VM.
    Ingress,
}

/// One row of a flow-stats dump (OpenFlow `ofp_flow_stats` equivalent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStatEntry {
    /// The exact flow.
    pub key: FlowKey,
    /// Packets matched so far (cumulative).
    pub packets: u64,
    /// Bytes matched so far (cumulative).
    pub bytes: u64,
}

/// A rule bundle installed at a ToR VRF for one offloaded flow/aggregate:
/// the most-specific ACL, the GRE tunnel mapping, and an optional QoS class
/// (paper §4.1.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TorRule {
    /// Owning tenant (selects the VRF).
    pub tenant: TenantId,
    /// Match pattern (tenant-space addresses).
    pub spec: FlowSpec,
    /// Priority within the VRF.
    pub priority: u16,
    /// Allow (offloaded flows are explicit allows; default is deny).
    pub action: Action,
    /// GRE tunnel destination for egress traffic matching this rule, if the
    /// destination is remote. `None` for rules that only admit ingress.
    pub tunnel: Option<TunnelMapping>,
    /// QoS queue assignment.
    pub qos: Option<QosClass>,
}

/// Requests a controller can send to a data-plane element.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlRequest {
    /// Dump per-flow statistics from a vswitch datapath (local controller →
    /// its server) or from a ToR's VRF rule counters (TOR controller → ToR).
    DumpFlowStats {
        /// Correlation id echoed in the reply.
        xid: u64,
    },
    /// Install a flow-placer redirection rule on one VM.
    InstallPlacerRule {
        /// Target VM (tenant IP on this server).
        vm_ip: Ip,
        /// Owning tenant.
        tenant: TenantId,
        /// Match pattern.
        spec: FlowSpec,
        /// Priority.
        priority: u16,
        /// Output path for matching flows.
        path: PathTag,
    },
    /// Remove flow-placer rules with exactly this spec from one VM.
    RemovePlacerRule {
        /// Target VM.
        vm_ip: Ip,
        /// Owning tenant.
        tenant: TenantId,
        /// Spec to remove.
        spec: FlowSpec,
    },
    /// Set the software (VIF) rate limit for a VM in one direction.
    SetVifRate {
        /// Owning tenant (tenant address spaces overlap: the IP alone does
        /// not name a VM).
        tenant: TenantId,
        /// Target VM tenant IP.
        vm_ip: Ip,
        /// Direction.
        dir: Dir,
        /// New limit in bits/sec.
        bps: u64,
    },
    /// Install rule bundles in the ToR's VRF fast path.
    InstallTorRules {
        /// Rules to install.
        rules: Vec<TorRule>,
        /// Correlation id echoed in the (Ack/Error) reply.
        xid: u64,
    },
    /// Remove ToR rules matching (tenant, spec) pairs exactly.
    RemoveTorRules {
        /// (tenant, spec) pairs.
        rules: Vec<(TenantId, FlowSpec)>,
    },
    /// Dump the identity of every ACL rule installed across the ToR's VRFs
    /// (no counters — the reconciliation sweep only needs existence).
    DumpTorRules {
        /// Correlation id echoed in the reply.
        xid: u64,
    },
    /// Hardware-path liveness probe (an OpenFlow echo request). The ToR
    /// answers with [`CtrlReply::ProbeReply`] carrying its boot generation,
    /// or a definitive [`CtrlReply::Error`] while it is rebooting.
    Probe {
        /// Correlation id echoed in the reply.
        xid: u64,
    },
    /// Set the hardware-path rate limit for a VM in one direction
    /// (enforced at the ToR, §4.1.4).
    SetHwRate {
        /// Owning tenant.
        tenant: TenantId,
        /// Target VM tenant IP.
        vm_ip: Ip,
        /// Direction.
        dir: Dir,
        /// New limit in bits/sec.
        bps: u64,
    },
}

/// One row of a ToR VRF rule-stats dump (rules are wildcard specs, so the
/// row is keyed by `(tenant, spec)` rather than an exact flow).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TorStatEntry {
    /// Owning tenant (VRF).
    pub tenant: TenantId,
    /// The installed rule's match pattern.
    pub spec: FlowSpec,
    /// Packets matched (cumulative).
    pub packets: u64,
    /// Bytes matched (cumulative).
    pub bytes: u64,
}

/// Replies from data-plane elements.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlReply {
    /// Flow statistics dump.
    FlowStats {
        /// Correlation id from the request.
        xid: u64,
        /// Per-flow cumulative counters.
        entries: Vec<FlowStatEntry>,
    },
    /// ToR per-rule statistics dump.
    TorFlowStats {
        /// Correlation id from the request.
        xid: u64,
        /// Per-rule cumulative counters.
        entries: Vec<TorStatEntry>,
    },
    /// Identity dump of every installed ToR ACL rule (reply to
    /// [`CtrlRequest::DumpTorRules`]; consumed by the TOR controller's
    /// reconciliation sweep).
    TorRuleDump {
        /// Correlation id from the request.
        xid: u64,
        /// Every installed `(tenant, spec)` ACL rule.
        rules: Vec<(TenantId, FlowSpec)>,
        /// Fast-path entries in use (ACL rules + tunnel mappings), for
        /// invariant checking.
        fastpath_used: usize,
        /// The ToR's boot generation when the dump was snapshotted. A dump
        /// older than the controller's known generation is stale (taken
        /// before a reboot wiped the table) and must be discarded, never
        /// used to resurrect wiped rules.
        boot_generation: u64,
    },
    /// Liveness probe reply (the ToR is up and reachable).
    ProbeReply {
        /// Correlation id from the request.
        xid: u64,
        /// The ToR's current boot generation: increments on every reboot,
        /// so a generation newer than the controller's view proves a reboot
        /// happened (and the hardware table was wiped) since the last probe.
        boot_generation: u64,
    },
    /// Positive acknowledgement.
    Ack {
        /// Correlation id from the request.
        xid: u64,
    },
    /// A request failed (e.g. ToR fast-path memory exhausted).
    Error {
        /// Correlation id from the request.
        xid: u64,
        /// Human-readable reason.
        reason: &'static str,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CtlMsg;

    #[test]
    fn requests_travel_through_ctlmsg() {
        let req = CtrlRequest::DumpFlowStats { xid: 42 };
        let msg = CtlMsg::new(5, req.clone());
        let (from, got) = msg.downcast::<CtrlRequest>().unwrap();
        assert_eq!(from, 5);
        assert_eq!(got, req);
    }

    #[test]
    fn replies_travel_through_ctlmsg() {
        let rep = CtrlReply::Error {
            xid: 7,
            reason: "fast-path memory exhausted",
        };
        let msg = CtlMsg::new(2, rep.clone());
        let (_, got) = msg.downcast::<CtrlReply>().unwrap();
        assert_eq!(got, rep);
    }
}
