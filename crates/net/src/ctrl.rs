//! Control-plane protocol between the FasTrak controllers and the data
//! plane (vswitches, flow placers, ToR switches), and between the
//! controllers themselves.
//!
//! This mirrors the paper's use of OpenFlow: the flow placer "exposes an
//! OpenFlow interface, allowing the FasTrak rule manager to direct a subset
//! of flows via the SR-IOV interface" (§4.1.1), and the TOR controller
//! "issues OpenFlow table and flow stats requests" (§5.2). The request/reply
//! correlation id plays the role of OpenFlow's xid. The controllers' own
//! messages (Figs. 8–9) are the locals' [`DemandReport`] and
//! [`HwPathReport`], the TOR controller's [`OffloadDecision`] and the
//! harness's [`MigrationPrepare`]. [`Ctl`] closes the vocabulary: every
//! control message is one of its six variants, carried in a
//! [`crate::event::CtlMsg`] envelope.

use crate::addr::{Ip, TenantId};
use crate::flow::{FlowAggregate, FlowKey, FlowSpec};
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

/// One aggregate's measured demand in a local controller's report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggDemand {
    /// The aggregate.
    pub agg: FlowAggregate,
    /// Packets/sec in the most recent epoch.
    pub pps: f64,
    /// Bytes/sec in the most recent epoch.
    pub bps: f64,
    /// Epochs (of those remembered) in which the aggregate was active.
    pub n_active: u32,
    /// Median pps over the remembered epochs (N epochs × M intervals).
    pub m_pps: f64,
    /// Median bps over the remembered epochs.
    pub m_bps: f64,
}

/// A local controller's per-control-interval demand report (§4.3.1):
/// `<flow/flowaggregate, pps, bps, epoch#>` rows plus the median history
/// folded into each row.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandReport {
    /// Control interval sequence number.
    pub interval: u64,
    /// Reporting server's provider IP (identifies the local controller).
    pub server_ip: Ip,
    /// Aggregate demand rows.
    pub entries: Vec<AggDemand>,
}

/// The TOR controller's decision broadcast (§4.3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadDecision {
    /// Control interval this decision was computed in.
    pub interval: u64,
    /// Newly offloaded aggregates (ToR rules are already installed when
    /// this message is sent, so flipping placers cannot blackhole traffic).
    pub offload: Vec<FlowAggregate>,
    /// Aggregates demoted back to software (placers flip first; the ToR
    /// rules are garbage-collected after a grace period).
    pub demote: Vec<FlowAggregate>,
    /// Measured hardware-path rates per currently offloaded aggregate
    /// (bits/sec), for the local controllers' FPS rate splits.
    pub hw_agg_bps: Vec<(FlowAggregate, f64)>,
}

/// Harness-initiated VM migration preparation (S4): the TOR controller
/// demotes every aggregate touching the VM so its flows are all back in
/// software before the VM moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPrepare {
    /// Owning tenant.
    pub tenant: TenantId,
    /// The VM about to move.
    pub vm_ip: Ip,
}

/// Local controller → TOR controller: the server's SR-IOV hardware path
/// changed liveness. Sent only on transitions (the local controller polls
/// its NIC each measurement epoch). On `up: false` the TOR controller
/// force-demotes every offloaded aggregate touching the listed VMs — their
/// express lane is dark, so the software path is strictly better — and
/// bars them from re-offload until the matching `up: true` report.
#[derive(Debug, Clone, PartialEq)]
pub struct HwPathReport {
    /// Reporting server's provider IP.
    pub server_ip: Ip,
    /// New liveness of the server's SR-IOV path.
    pub up: bool,
    /// The VMs hosted on that server (their `(tenant, ip)` identities),
    /// i.e. the endpoints whose hardware path this report covers.
    pub vms: Vec<(TenantId, Ip)>,
}

/// Every control-plane message there is. A receiver matches it
/// exhaustively, naming the variants it ignores, so adding a message type
/// makes the compiler visit every node.
#[derive(Debug, Clone, PartialEq)]
pub enum Ctl {
    /// Controller → data-plane element (server or ToR).
    Req(CtrlRequest),
    /// Data-plane element → controller.
    Reply(CtrlReply),
    /// Local controller → TOR controller, each control interval.
    Report(DemandReport),
    /// TOR controller → local controllers.
    Decision(OffloadDecision),
    /// Harness → TOR controller, before a VM moves.
    Migration(MigrationPrepare),
    /// Local controller → TOR controller, on an SR-IOV liveness change.
    HwPath(HwPathReport),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CtlMsg, Event};

    /// Wrap `body` as node `from` would send it and unwrap it as a
    /// receiver does.
    fn deliver(from: usize, body: Ctl) -> (usize, Ctl) {
        match Event::ctl(from, body) {
            Event::Ctl(msg) => {
                let CtlMsg { from, body } = *msg;
                (from, body)
            }
            other => panic!("not a control message: {other:?}"),
        }
    }

    #[test]
    fn requests_travel_through_ctlmsg() {
        let req = CtrlRequest::DumpFlowStats { xid: 42 };
        assert_eq!(deliver(5, Ctl::Req(req.clone())), (5, Ctl::Req(req)));
    }

    #[test]
    fn replies_travel_through_ctlmsg() {
        let rep = CtrlReply::Error {
            xid: 7,
            reason: "fast-path memory exhausted",
        };
        assert_eq!(deliver(2, Ctl::Reply(rep.clone())), (2, Ctl::Reply(rep)));
    }
}
