//! Kernel-free test rigs: a [`Bench`] that hands one component a [`Cx`] and
//! keeps what it emitted, and a [`World`] that closes the loop between the
//! whole controller and a fake ToR — messages in flight and armed timers
//! are plain lists the test picks from, so any interleaving is a `Vec` of
//! choices. `World` re-checks the controller's safety invariants after
//! every input it feeds.

use std::collections::HashSet;

use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::ctrl::{Ctl, CtrlReply, CtrlRequest, DemandReport, TorStatEntry};
use fastrak_net::flow::FlowAggregate;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_telemetry::Telemetry;

use super::ledger::RuleId;
use super::{
    CtrlCounterIds, CtrlIn, CtrlOut, CtrlPlaneConfig, Cx, Timer, TorController, TorControllerConfig,
};
use crate::de::DeConfig;
use crate::local::Timing;
use crate::me::AggDemand;
use crate::rules::RuleManager;

pub(crate) fn agg(port: u16) -> FlowAggregate {
    FlowAggregate::SrcApp {
        tenant: TenantId(1),
        ip: Ip::tenant_vm(1),
        port,
    }
}

pub(crate) fn rule(a: &FlowAggregate) -> RuleId {
    (a.tenant(), a.to_spec())
}

pub(crate) struct Bench {
    pub tel: Telemetry,
    /// What the last handler given [`Bench::cx`] emitted.
    pub out: Vec<CtrlOut>,
    pub c: CtrlCounterIds,
    pub now: SimTime,
}

impl Bench {
    pub(crate) fn new() -> Bench {
        let mut tel = Telemetry::default();
        let c = CtrlCounterIds::register(&mut tel.registry);
        Bench {
            tel,
            out: Vec::new(),
            c,
            now: SimTime::from_millis(1),
        }
    }

    /// A fresh context for one handler call (forgets the previous call's
    /// outputs).
    pub(crate) fn cx(&mut self) -> Cx<'_> {
        self.out.clear();
        Cx {
            now: self.now,
            tel: &mut self.tel,
            out: &mut self.out,
            c: self.c,
        }
    }

    pub(crate) fn count(&self, name: &str) -> u64 {
        self.tel.registry.counter_by_name(name).unwrap_or(0)
    }
}

/// A ToR reduced to what the controller can observe of it: the installed
/// rule set (counters frozen at zero) and the boot generation. Serves every
/// request at once; the delays live in [`World::wire`].
#[derive(Default)]
pub(crate) struct FakeTor {
    pub rules: Vec<RuleId>,
    pub generation: u64,
}

impl FakeTor {
    fn serve(&mut self, req: CtrlRequest) -> Option<CtrlReply> {
        match req {
            CtrlRequest::DumpFlowStats { xid } => {
                let row = |&(tenant, spec): &RuleId| TorStatEntry {
                    tenant,
                    spec,
                    packets: 0,
                    bytes: 0,
                };
                let entries = self.rules.iter().map(row).collect();
                Some(CtrlReply::TorFlowStats { xid, entries })
            }
            CtrlRequest::InstallTorRules { rules, xid } => {
                for r in rules {
                    if !self.rules.contains(&(r.tenant, r.spec)) {
                        self.rules.push((r.tenant, r.spec));
                    }
                }
                Some(CtrlReply::Ack { xid })
            }
            CtrlRequest::RemoveTorRules { rules } => {
                self.rules.retain(|r| !rules.contains(r));
                None
            }
            CtrlRequest::DumpTorRules { xid } => Some(CtrlReply::TorRuleDump {
                xid,
                rules: self.rules.clone(),
                boot_generation: self.generation,
            }),
            CtrlRequest::Probe { xid } => Some(CtrlReply::ProbeReply {
                xid,
                boot_generation: self.generation,
            }),
            other => panic!("the TOR controller never sends {other:?}"),
        }
    }

    pub(crate) fn reboot(&mut self) {
        self.rules.clear();
        self.generation += 1;
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Msg {
    ToTor(CtrlRequest),
    ToCtl(CtrlReply),
}

pub(crate) struct World {
    pub b: Bench,
    pub ctl: TorController,
    pub tor: FakeTor,
    /// Messages in flight, oldest first.
    pub wire: Vec<Msg>,
    /// Armed timers, oldest first.
    pub timers: Vec<Timer>,
    incarnation: u64,
}

impl World {
    /// Two aggregates ([`agg`]`(1)` and `(2)`) may compete for `budget`
    /// entries; one epoch per control interval.
    pub(crate) fn new(budget: usize, ctrl: CtrlPlaneConfig) -> World {
        let b = Bench::new();
        let ctl = TorController::new(TorControllerConfig {
            tor: 0,
            locals: Vec::new(),
            timing: Timing {
                epochs_per_interval: 1,
                ..Timing::fine()
            },
            de: DeConfig::paper(),
            budget,
            rule_manager: RuleManager::new(),
            ctrl,
            counters: b.c,
        });
        World {
            b,
            ctl,
            tor: FakeTor::default(),
            wire: Vec::new(),
            timers: Vec::new(),
            incarnation: 0,
        }
    }

    /// Run one controller handler, route what it emitted, and check the
    /// invariants that must hold after *every* step.
    fn step(&mut self, f: impl FnOnce(&mut TorController, &mut Cx<'_>)) -> Vec<CtrlOut> {
        self.b.now += SimDuration::from_millis(1);
        f(&mut self.ctl, &mut self.b.cx());
        let outs = std::mem::take(&mut self.b.out);
        for o in &outs {
            match o {
                CtrlOut::ToTor(_, req) => {
                    if let CtrlRequest::RemoveTorRules { rules } = req {
                        let held = self.ctl.ledger.spec_to_agg();
                        assert!(
                            !rules.iter().any(|r| held.contains_key(r)),
                            "asked the ToR to remove a rule an aggregate holds: {rules:?}"
                        );
                    }
                    self.wire.push(Msg::ToTor(req.clone()));
                }
                CtrlOut::Broadcast(_) => {}
                CtrlOut::Arm(_, t) => self.timers.push(*t),
                CtrlOut::Disarm(t) => self.timers.retain(|x| x != t),
            }
        }
        let l = &self.ctl.ledger;
        assert_eq!(self.ctl.entries_used, l.installed(), "entries_used drifted");
        assert!(
            l.offloaded().iter().all(|a| l.rule_of(a).is_some()),
            "an offloaded aggregate holds no entry"
        );
        outs
    }

    pub(crate) fn input(&mut self, input: CtrlIn) -> Vec<CtrlOut> {
        self.step(|ctl, cx| ctl.handle(input, cx))
    }

    /// Fire a timer (armed or not — the caller may know better).
    pub(crate) fn fire(&mut self, t: Timer) -> Vec<CtrlOut> {
        if let Some(i) = self.timers.iter().position(|x| *x == t) {
            self.timers.remove(i);
        }
        self.input(CtrlIn::Timer(t))
    }

    /// The local controllers report these software-path rates.
    pub(crate) fn report(&mut self, pps: [f64; 2]) {
        let row = |(a, pps): (FlowAggregate, f64)| AggDemand {
            agg: a,
            pps,
            bps: pps * 100.0,
            n_active: 6,
            m_pps: pps,
            m_bps: pps * 100.0,
        };
        self.input(CtrlIn::Msg(Ctl::Report(DemandReport {
            interval: 0,
            server_ip: Ip::tenant_vm(100),
            entries: [agg(1), agg(2)].into_iter().zip(pps).map(row).collect(),
        })));
    }

    /// Take `wire[i]` off the wire and hand it to its addressee.
    pub(crate) fn deliver(&mut self, i: usize) -> Vec<CtrlOut> {
        let msg = self.wire.remove(i);
        self.hand_over(msg)
    }

    pub(crate) fn hand_over(&mut self, msg: Msg) -> Vec<CtrlOut> {
        match msg {
            Msg::ToTor(req) => {
                let reply = self.tor.serve(req);
                self.wire.extend(reply.map(Msg::ToCtl));
                Vec::new()
            }
            Msg::ToCtl(reply) => self.receive(reply),
        }
    }

    fn receive(&mut self, reply: CtrlReply) -> Vec<CtrlOut> {
        // A dump older than the boot the controller already knows of must
        // cause no corrective action — only, at most, a fresh dump request.
        let stale = matches!(reply, CtrlReply::TorRuleDump { boot_generation, .. }
            if boot_generation < self.ctl.tor_generation());
        let before = (self.ctl.offloaded().clone(), self.ctl.entries_used);
        let outs = self.input(CtrlIn::Msg(Ctl::Reply(reply)));
        if stale {
            let asks_again =
                |o: &CtrlOut| matches!(o, CtrlOut::ToTor(_, CtrlRequest::DumpTorRules { .. }));
            assert!(
                outs.iter().all(asks_again),
                "acted on a pre-reboot dump: {outs:?}"
            );
            assert_eq!(
                before,
                (self.ctl.offloaded().clone(), self.ctl.entries_used)
            );
        }
        outs
    }

    pub(crate) fn restart(&mut self) {
        self.incarnation += 1;
        let n = self.incarnation;
        self.step(|ctl, cx| ctl.restart(n, cx));
    }

    /// Let everything in flight land and every one-shot timer (install and
    /// probe deadlines, GC graces) run out, oldest first, until quiet. The
    /// periodic chains stay armed.
    pub(crate) fn settle(&mut self) {
        loop {
            while !self.wire.is_empty() {
                self.deliver(0);
            }
            let one_shot = |t: &Timer| {
                matches!(
                    t,
                    Timer::InstallTimeout { .. } | Timer::Gc(_) | Timer::ProbeTimeout(_)
                )
            };
            match self.timers.iter().copied().find(one_shot) {
                Some(t) => self.fire(t),
                None => return,
            };
        }
    }

    /// The rules the controller believes it holds, vs. what the ToR has.
    pub(crate) fn assert_agrees_with_hardware(&self) {
        let l = &self.ctl.ledger;
        let held: HashSet<&RuleId> = l.spec_to_agg().keys().collect();
        let installed: HashSet<&RuleId> = self.tor.rules.iter().collect();
        assert_eq!(held, installed, "ledger and ToR rule table differ");
        assert_eq!(self.ctl.entries_used, self.tor.rules.len());
        assert_eq!(l.offloaded().len(), l.installed(), "an entry nobody uses");
    }

    /// Nothing is waited for: every request was answered or given up on.
    pub(crate) fn assert_awaits_nothing(&self) {
        assert!(self.ctl.txns.is_idle(), "an install is awaited forever");
        assert!(self.ctl.recon.is_idle(), "a rule dump is awaited forever");
        assert!(
            !self.ctl.health.awaits_probe(),
            "a probe is awaited forever"
        );
        assert!(!self.ctl.is_recovering());
    }
}
