//! Bounded exhaustive interleaving check (ROADMAP item 3 (ii)): the real
//! controller against the fake ToR of [`super::testkit`], two aggregates
//! competing for the fast path. From each of a few reachable starting
//! points, *every* sequence of up to [`DEPTH`] choices is tried — deliver,
//! drop or duplicate any message in flight, reject any install; fire any
//! armed deadline, grace or sweep; run a decision round; flip the demand;
//! reboot the ToR; restart the controller — and after each sequence the
//! world is left to quiesce.
//!
//! Checked after every single step (by [`World`]): `entries_used ==
//! installed_spec.len()`, `offloaded ⊆ installed_spec`, no `RemoveTorRules`
//! ever names a rule an aggregate holds, a dump older than the known boot
//! generation causes no corrective action. Checked at quiescence: no xid is
//! awaited forever, the ledger's rules are exactly the fake ToR's, no count
//! repair was ever needed, and one more sweep changes nothing.
//!
//! The GC double-free (PR 3) and the stale-dump resurrection (PR 9) were
//! each found by one lucky seed; here re-introducing the first fails while
//! [`regrace`] merely quiesces, and the second within four choices of
//! [`crossed_sweeps`] (mutation results in CHANGES.md, PR 22).

use fastrak_net::addr::TenantId;
use fastrak_net::ctrl::{CtrlReply, CtrlRequest};
use fastrak_net::flow::FlowSpec;

use super::testkit::{agg, Msg, World};
use super::{CtrlPlaneConfig, Timer};

/// Choices per sequence. 4 is the deepest that keeps the whole check
/// under ~10 s in a debug build.
const DEPTH: usize = 4;

/// A reachable state to explore from (rebuilt for every sequence).
type Start = fn() -> World;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Act {
    Deliver(usize),
    Drop(usize),
    /// Deliver a copy; the original stays in flight.
    Duplicate(usize),
    /// The ToR answers an install with a definitive Error (dark, or full).
    Reject(usize),
    Fire(Timer),
    /// A decision round, whenever: relative to everything else in flight a
    /// control interval can end at any point.
    Decide,
    /// The other aggregate becomes the hot one.
    Flip,
    Reboot,
    Restart,
}

const HOT: [f64; 2] = [10_000.0, 1_000.0];
const FLIPPED: [f64; 2] = [1_000.0, 10_000.0];

fn apply(w: &mut World, flipped: &mut bool, act: Act) {
    match act {
        Act::Deliver(i) => drop(w.deliver(i)),
        Act::Drop(i) => drop(w.wire.remove(i)),
        Act::Duplicate(i) => drop(w.hand_over(w.wire[i].clone())),
        Act::Reject(i) => {
            let Msg::ToTor(CtrlRequest::InstallTorRules { xid, .. }) = w.wire.remove(i) else {
                unreachable!("only installs are offered for rejection")
            };
            let reason = "rejected by the test";
            w.wire.push(Msg::ToCtl(CtrlReply::Error { xid, reason }));
        }
        Act::Fire(t) => drop(w.fire(t)),
        Act::Decide => drop(w.fire(Timer::Decide)),
        Act::Flip => {
            *flipped = !*flipped;
            w.report(if *flipped { FLIPPED } else { HOT });
        }
        Act::Reboot => w.tor.reboot(),
        Act::Restart => w.restart(),
    }
}

/// What can happen next. The measurement cadence (`Epoch`, `SampleB`) is
/// left out — it only feeds rates, and the demand here is scripted — and
/// the rare events are rationed so the tree stays finite in breadth too.
fn choices(w: &World, path: &[Act]) -> Vec<Act> {
    let mut acts = Vec::new();
    for i in 0..w.wire.len() {
        acts.extend([Act::Deliver(i), Act::Drop(i), Act::Duplicate(i)]);
        if matches!(w.wire[i], Msg::ToTor(CtrlRequest::InstallTorRules { .. })) {
            acts.push(Act::Reject(i));
        }
    }
    let explored = |t: &&Timer| !matches!(t, Timer::Epoch | Timer::SampleB | Timer::Decide);
    acts.extend(w.timers.iter().filter(explored).map(|t| Act::Fire(*t)));
    let done = |a: Act| path.iter().filter(|p| **p == a).count();
    if done(Act::Decide) < 2 {
        acts.push(Act::Decide);
    }
    for once in [Act::Flip, Act::Reboot, Act::Restart] {
        if done(once) == 0 {
            acts.push(once);
        }
    }
    acts
}

/// Quiesce and check the end state.
fn finish(mut w: World, path: &[Act]) {
    let repairs = w.b.count("ctrl.reconcile_counter_repairs");
    w.settle();
    // A dropped recovery dump is re-asked for on the reconcile cadence, so
    // the first tick may not be a sweep yet; by the third, two have run.
    for _ in 0..3 {
        w.fire(Timer::Reconcile);
        w.settle();
    }
    w.assert_awaits_nothing();
    w.assert_agrees_with_hardware();
    assert_eq!(
        w.b.count("ctrl.reconcile_counter_repairs"),
        repairs,
        "a sweep had to repair entries_used"
    );
    let before = (w.ctl.offloaded().clone(), w.tor.rules.clone());
    w.fire(Timer::Reconcile);
    w.settle();
    let after = (w.ctl.offloaded().clone(), w.tor.rules.clone());
    assert_eq!(before, after, "not a fixpoint after {path:?}");
}

/// Depth-first over every choice sequence. The controller is not `Clone`
/// (nor should it be for a test's sake), so a node is reached by replaying
/// its path from the start; returns the number of sequences checked.
fn explore(start: Start, path: &mut Vec<Act>) -> u64 {
    let mut w = start();
    let mut flipped = false;
    for &act in path.iter() {
        apply(&mut w, &mut flipped, act);
    }
    let next = if path.len() < DEPTH {
        choices(&w, path)
    } else {
        Vec::new()
    };
    finish(w, path);
    let mut checked = 1;
    for act in next {
        path.push(act);
        checked += explore(start, path);
        path.pop();
    }
    checked
}

/// Run `explore`, naming the failing sequence on a panic from any depth.
fn check(start: Start) -> u64 {
    let mut path = Vec::new();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| explore(start, &mut path)));
    run.unwrap_or_else(|e| {
        eprintln!("interleaving that failed: {path:?}");
        std::panic::resume_unwind(e)
    })
}

/// Booted, the first report in, nothing decided yet.
fn booted(budget: usize) -> World {
    let mut w = World::new(budget, CtrlPlaneConfig::default());
    w.fire(Timer::Epoch);
    w.settle();
    w.report(HOT);
    w
}

fn cold() -> World {
    booted(1)
}

/// Entries to spare: a round that runs while the previous round's install
/// is still in flight is not stopped by the budget from picking the same
/// aggregates again.
fn roomy() -> World {
    booted(3)
}

/// Aggregate 1 offloaded and acked.
fn offloaded() -> World {
    let mut w = cold();
    w.fire(Timer::Decide);
    w.settle();
    assert!(w.ctl.offloaded().contains(&agg(1)));
    w
}

/// The swap: demand flipped, the round demoted 1 (GC grace running) and
/// sent 2's install, which is still in flight.
fn swap() -> World {
    let mut w = offloaded();
    w.report(FLIPPED);
    w.fire(Timer::Decide);
    assert_eq!(w.wire.len(), 1);
    w
}

/// Re-offload inside the grace period: 2 was acked, demand flipped back,
/// and the round demoted 2 and re-reserved 1 while the GC batch holding 1's
/// old rule has not run yet. Both graces and the install are pending.
fn regrace() -> World {
    let mut w = swap();
    w.deliver(0);
    w.deliver(0);
    assert!(w.ctl.offloaded().contains(&agg(2)));
    w.report(HOT);
    w.fire(Timer::Decide);
    let graces = w.timers.iter().filter(|t| matches!(t, Timer::Gc(_)));
    assert_eq!(graces.count(), 2);
    w
}

/// Two sweeps crossed on the wire: the ToR also holds a rule nobody
/// tracks; the older sweep's request is still in flight, the newer one's
/// was served and its (pre-reboot) reply is on its way back.
fn crossed_sweeps() -> World {
    let mut w = offloaded();
    w.tor.rules.push((TenantId(9), FlowSpec::ANY));
    w.fire(Timer::Reconcile);
    w.fire(Timer::Reconcile);
    w.deliver(1);
    assert!(matches!(w.wire[..], [Msg::ToTor(_), Msg::ToCtl(_)]));
    w
}

/// Liveness probes on: the probe and its deadline join the interleaving.
fn probing() -> World {
    let ctrl = CtrlPlaneConfig {
        probe_interval: super::RECONCILE_INTERVAL,
        ..CtrlPlaneConfig::default()
    };
    let mut w = World::new(1, ctrl);
    w.fire(Timer::Epoch);
    w.settle();
    w.report(HOT);
    w.fire(Timer::Decide);
    w.settle();
    w.fire(Timer::Probe);
    w
}

#[test]
fn every_interleaving_converges_with_zero_drift() {
    let starts: [(&str, Start); 7] = [
        ("cold", cold),
        ("roomy", roomy),
        ("offloaded", offloaded),
        ("swap", swap),
        ("regrace", regrace),
        ("crossed_sweeps", crossed_sweeps),
        ("probing", probing),
    ];
    for (name, start) in starts {
        let t0 = std::time::Instant::now();
        let n = check(start);
        eprintln!(
            "{name}: {n} sequences to depth {DEPTH} in {:?}",
            t0.elapsed()
        );
        assert!(n > 1_000, "{name}: the tree collapsed to {n} sequences");
    }
}
