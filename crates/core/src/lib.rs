//! # fastrak
//!
//! The paper's primary contribution: the FasTrak rule-management system —
//! a distributed controller that splits network-virtualization rules
//! between the hypervisor vswitch and switch hardware, migrating the rules
//! for the highest-packets-per-second flow aggregates into the ToR's
//! bounded fast path and back as traffic changes.
//!
//! * [`me`] — the Measurement Engine (Δp/t, Δb/t epochs, per-VM-per-app
//!   aggregation, median history);
//! * [`de`] — the Decision Engine (`S = n × m_pps` ranking under the
//!   fast-path budget, hysteresis, per-tenant fast-path policy);
//! * [`rules`] — the unified rule manager (most-specific ACL rule
//!   synthesis, deny-overlap safety);
//! * [`fps`] — the Flow Proportional Share split of per-VM rate limits
//!   across the two interfaces, with overflow probing;
//! * [`local`] / [`tor_ctrl`] — the controller processes, wired as DES
//!   nodes speaking the OpenFlow-style control protocol of `fastrak-net`;
//! * [`attach`] — one call to deploy FasTrak onto a
//!   [`fastrak_workload::Testbed`].

pub mod de;
pub mod de_inc;
pub mod fps;
pub mod local;
pub mod me;
pub mod meter;
pub mod policy;
pub mod rules;
pub mod tor_ctrl;

pub use de::{DeConfig, Decision};
pub use de_inc::{DeEpochStats, IncrementalDecisionEngine};
pub use fastrak_net::ctrl::{DemandReport, HwPathReport, MigrationPrepare, OffloadDecision};
pub use fps::{fps_split, FpsInput, FpsSplit};
pub use local::{LocalController, LocalControllerConfig, Timing, VmLimit};
pub use me::{AggDemand, MeasurementEngine};
pub use meter::{epoch_rates, RateWindow};
pub use policy::FastPathPolicy;
pub use rules::{RuleManager, SynthesisError};
pub use tor_ctrl::{CtrlCounterIds, CtrlPlaneConfig, TorController, TorControllerConfig};

use fastrak_net::ctrl::Ctl;
use fastrak_net::event::Event;
use fastrak_sim::kernel::NodeId;
use fastrak_sim::time::SimTime;
use fastrak_workload::Testbed;

/// FasTrak deployment configuration.
pub struct FasTrakConfig {
    /// Measurement timing (`t`, `T`, `N`, `M`).
    pub timing: Timing,
    /// Decision engine settings.
    pub de: DeConfig,
    /// Per-VM rate limits.
    pub limits: Vec<VmLimit>,
    /// Fast-path entries the controller may use.
    pub budget: usize,
    /// Tenant policies for rule synthesis.
    pub rule_manager: RuleManager,
    /// Liveness probing and blackhole detection (both default off).
    pub ctrl: CtrlPlaneConfig,
}

impl Default for FasTrakConfig {
    fn default() -> Self {
        FasTrakConfig {
            timing: Timing::fine(),
            de: DeConfig::paper(),
            limits: Vec::new(),
            budget: 256,
            rule_manager: RuleManager::new(),
            ctrl: CtrlPlaneConfig::default(),
        }
    }
}

/// Handles to a deployed FasTrak instance.
#[derive(Clone)]
pub struct FasTrak {
    /// The TOR controller node.
    pub tor_ctrl: NodeId,
    /// Local controller nodes, indexed like the testbed's servers.
    pub locals: Vec<NodeId>,
}

/// Deploy FasTrak onto a testbed: one local controller per server, one TOR
/// controller for the rack. Call [`FasTrak::start`] (before or after
/// `Testbed::start`) to begin the measurement loops.
///
/// Panics, naming the field, when `cfg.timing` fails [`Timing::validate`]
/// or `cfg.budget` is zero (a controller that may never offload).
pub fn attach(bed: &mut Testbed, cfg: FasTrakConfig) -> FasTrak {
    if let Err(e) = cfg.timing.validate() {
        panic!("FasTrakConfig.timing: {e}");
    }
    assert!(cfg.budget > 0, "FasTrakConfig.budget must be > 0");
    // Collect per-server VM lists first (immutably).
    let n = bed.servers.len();
    let mut per_server_vms: Vec<Vec<(fastrak_net::addr::TenantId, fastrak_net::addr::Ip)>> =
        vec![Vec::new(); n];
    for v in bed.vms() {
        per_server_vms[v.server].push((v.tenant, v.ip));
    }
    let server_ips: Vec<fastrak_net::addr::Ip> =
        (0..n).map(|i| bed.server(i).cfg.provider_ip).collect();

    // Create the TOR controller first so locals can reference it. Its
    // fault/recovery counters live in the telemetry registry (dense ids,
    // registered once here; the registry is the single source of truth).
    let counters = CtrlCounterIds::register(&mut bed.kernel.ctx.telemetry.registry);
    let tor_node = bed.tor;
    let tor_ctrl = bed.kernel.add_node(TorController::new(TorControllerConfig {
        tor: tor_node,
        locals: Vec::new(), // patched below
        timing: cfg.timing,
        de: cfg.de,
        budget: cfg.budget,
        rule_manager: cfg.rule_manager,
        ctrl: cfg.ctrl,
        counters,
    }));

    let mut locals = Vec::new();
    for i in 0..n {
        let limits = cfg
            .limits
            .iter()
            .copied()
            .filter(|l| per_server_vms[i].contains(&(l.tenant, l.vm_ip)))
            .collect();
        let id = bed
            .kernel
            .add_node(LocalController::new(LocalControllerConfig {
                server: bed.servers[i],
                server_ip: server_ips[i],
                tor_ctrl,
                tor: tor_node,
                timing: cfg.timing,
                vms: per_server_vms[i].clone(),
                limits,
            }));
        locals.push(id);
    }
    bed.kernel
        .node_mut::<TorController>(tor_ctrl)
        .set_locals(locals.clone());
    FasTrak { tor_ctrl, locals }
}

impl FasTrak {
    /// Start the measurement/decision loops at the current simulated time.
    pub fn start(&self, bed: &mut Testbed) {
        let now = bed.kernel.now();
        bed.kernel
            .post(self.tor_ctrl, now, TorController::boot_event());
        for &l in &self.locals {
            bed.kernel.post(l, now, LocalController::boot_event());
        }
    }

    /// Ask the TOR controller to pull a VM's flows back to software before
    /// a migration (S4). Run the kernel for at least one demote-grace after
    /// this before moving the VM.
    pub fn prepare_migration(
        &self,
        bed: &mut Testbed,
        tenant: fastrak_net::addr::TenantId,
        vm_ip: fastrak_net::addr::Ip,
        at: SimTime,
    ) {
        bed.kernel.post(
            self.tor_ctrl,
            at,
            // Origin: ourselves (harness-injected).
            Event::ctl(
                self.tor_ctrl,
                Ctl::Migration(MigrationPrepare { tenant, vm_ip }),
            ),
        );
    }

    /// Publish the controllers' per-tenant `ctrl.tenant.*` metrics into
    /// the testbed's telemetry registry — fast-path occupancy from the TOR
    /// controller, FPS sw/hw splits summed across the local controllers.
    /// Pull-model, same contract as `Testbed::publish_telemetry`: call at
    /// collection points; hot paths never touch the registry.
    pub fn publish_telemetry(&self, bed: &mut Testbed) {
        let mut reg = std::mem::take(&mut bed.kernel.ctx.telemetry.registry);
        bed.kernel
            .node_mut::<TorController>(self.tor_ctrl)
            .publish_telemetry(&mut reg);
        let mut per: std::collections::BTreeMap<fastrak_net::addr::TenantId, (u64, u64)> =
            std::collections::BTreeMap::new();
        for &l in &self.locals {
            for (t, (sw, hw)) in bed.kernel.node::<LocalController>(l).tenant_fps_totals() {
                let e = per.entry(t).or_default();
                e.0 += sw;
                e.1 += hw;
            }
        }
        for (t, (sw, hw)) in per {
            let label = t.0.to_string();
            let g = reg.gauge("ctrl.tenant.fps_sw_bps", &[("tenant", &label)]);
            reg.gauge_set(g, sw as f64);
            let g = reg.gauge("ctrl.tenant.fps_hw_bps", &[("tenant", &label)]);
            reg.gauge_set(g, hw as f64);
        }
        bed.kernel.ctx.telemetry.registry = reg;
    }

    /// The set of currently offloaded aggregates (inspection).
    pub fn offloaded<'a>(
        &self,
        bed: &'a Testbed,
    ) -> &'a std::collections::HashSet<fastrak_net::flow::FlowAggregate> {
        bed.kernel.node::<TorController>(self.tor_ctrl).offloaded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_workload::TestbedConfig;

    /// It used to hang instead: each local controller re-armed its epoch
    /// timer at the instant it fired.
    #[test]
    #[should_panic(expected = "FasTrakConfig.timing: Timing.epoch must be > 0")]
    fn attach_refuses_a_zero_epoch() {
        let mut bed = Testbed::build(TestbedConfig {
            n_servers: 1,
            ..TestbedConfig::default()
        });
        let timing = Timing {
            epoch: fastrak_sim::time::SimDuration::ZERO,
            ..Timing::fine()
        };
        attach(
            &mut bed,
            FasTrakConfig {
                timing,
                ..FasTrakConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "FasTrakConfig.budget must be > 0")]
    fn attach_refuses_a_zero_budget() {
        let mut bed = Testbed::build(TestbedConfig {
            n_servers: 1,
            ..TestbedConfig::default()
        });
        attach(
            &mut bed,
            FasTrakConfig {
                budget: 0,
                ..FasTrakConfig::default()
            },
        );
    }
}
