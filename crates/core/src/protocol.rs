//! Controller-to-controller protocol (paper Fig. 8/9): local controllers
//! report network demand to their TOR controller every control interval;
//! the TOR controller broadcasts offload/demote decisions back.

use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::flow::FlowAggregate;

use crate::me::AggDemand;

/// A local controller's per-control-interval demand report (§4.3.1):
/// `<flow/flowaggregate, pps, bps, epoch#>` rows plus the median history
/// folded into each row.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone)]
pub struct HwPathReport {
    /// Reporting server's provider IP.
    pub server_ip: Ip,
    /// New liveness of the server's SR-IOV path.
    pub up: bool,
    /// The VMs hosted on that server (their `(tenant, ip)` identities),
    /// i.e. the endpoints whose hardware path this report covers.
    pub vms: Vec<(TenantId, Ip)>,
}

/// Per-VM rate limit configuration (what the tenant paid for).
#[derive(Debug, Clone, Copy)]
pub struct VmLimit {
    /// Owning tenant.
    pub tenant: TenantId,
    /// The VM.
    pub vm_ip: Ip,
    /// Total egress limit (bits/sec), if limited.
    pub egress_bps: Option<u64>,
    /// Total ingress limit (bits/sec), if limited.
    pub ingress_bps: Option<u64>,
}
