//! The discrete-event kernel: a time-ordered event queue plus a set of nodes.
//!
//! A **node** models one independently scheduled entity — in this repository a
//! physical server (with its VMs, vswitch and NIC inside), a ToR switch, or
//! a controller process. Nodes interact exclusively by sending each other
//! timestamped events through [`Api::send`], which keeps the simulation
//! deterministic and makes causality auditable in traces.
//!
//! The kernel is generic over the event type `E` and a shared context `C`
//! (topology, global configuration, metric registries). Event delivery order
//! is total: ties on timestamp break by schedule order (FIFO), so repeated
//! runs replay identically.
//!
//! Event storage is delegated to [`crate::sched::Calendar`], a one-level
//! calendar queue: O(1) schedule for every delay inside its ≈ 1 ms ring
//! span, a far heap beyond it, and amortised O(1) in-place cancel.
//! `tests/sched_differential.rs` pins its delivery order against a
//! binary-heap reference model.
//!
//! Delivery is in place: the node being delivered to is borrowed out of the
//! node table while the [`Api`] borrows the kernel's other fields, and `Api`
//! has no path back to the node table, so a node can never be delivered to
//! recursively or inspected mid-delivery.

use std::any::Any;

use crate::fault::{FaultDecision, FaultLayer};
use crate::rng::Rng;
use crate::sched::Calendar;
use crate::time::{SimDuration, SimTime};

pub use crate::sched::EventHandle;

/// Index of a node registered with the kernel.
pub type NodeId = usize;

/// A simulated entity that receives timestamped events.
///
/// Nodes are `Send` so that a whole world can move to the thread that runs
/// it.
pub trait Node<E, C>: Any + Send {
    /// Handle one event addressed to this node. `api` gives access to the
    /// clock, shared context, RNG, and event scheduling.
    fn on_event(&mut self, ev: E, api: &mut Api<'_, E, C>);

    /// Human-readable name for traces and panics. Borrowed, not allocated:
    /// callers that need an owned copy (trace records) pay for it
    /// explicitly.
    fn name(&self) -> &str {
        "node"
    }

    /// An independent copy of this node, for [`Kernel::fork`]. `None` (the
    /// default) means the node cannot be copied, and neither can a kernel
    /// that holds it.
    fn fork(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// The one place events enter the scheduler: applies fault injection (when
/// a layer is attached and the send crosses nodes), clamps past timestamps
/// to `now`, assigns the FIFO tie-break sequence number, and inserts. Both
/// [`Api::send_at`] and [`Kernel::post`] funnel through here so the
/// (time, seq) total order has a single owner.
///
/// `src` is `Some` only for node-originated sends ([`Api::send_at`]);
/// harness-level [`Kernel::post`] passes `None` and is never faulted, and
/// self-sends (timers) are exempt because they model node-internal
/// scheduling, not network messages. A dropped event returns
/// [`EventHandle::NULL`], which `cancel` treats as a no-op.
#[inline]
#[allow(clippy::too_many_arguments)] // the kernel's single scheduling funnel
fn schedule_event<E>(
    sched: &mut Calendar<E>,
    next_seq: &mut u64,
    fault: &mut Option<FaultLayer<E>>,
    now: SimTime,
    src: Option<NodeId>,
    dst: NodeId,
    at: SimTime,
    ev: E,
) -> EventHandle {
    let mut at = at.max(now);
    let mut dup: Option<(E, SimTime)> = None;
    if let (Some(layer), Some(src)) = (fault.as_mut(), src) {
        // Component outages first: a dark ToR or flapping link blackholes
        // data-plane frames outright (no RNG — the chaos plane is scripted).
        if !layer.plane.chaos.is_idle()
            && src != dst
            && (layer.is_frame)(&ev)
            && layer.plane.chaos.frame_blocked(src, dst, now)
        {
            return EventHandle::NULL;
        }
        if !layer.plane.is_idle() && src != dst && (layer.classify)(&ev) {
            match layer.plane.decide(src, dst) {
                FaultDecision::Deliver => {}
                FaultDecision::Drop => return EventHandle::NULL,
                FaultDecision::Delay(extra) => at += extra,
                FaultDecision::DeliverAndDuplicate(extra) => {
                    dup = (layer.duplicate)(&ev).map(|copy| (copy, at + extra));
                }
            }
        }
    }
    let seq = *next_seq;
    *next_seq += 1;
    let handle = sched.schedule(at, seq, dst, ev);
    if let Some((copy, dup_at)) = dup {
        let seq = *next_seq;
        *next_seq += 1;
        sched.schedule(dup_at, seq, dst, copy);
    }
    handle
}

/// Per-event view handed to [`Node::on_event`].
///
/// Splitting the kernel into `Api` + the node being delivered to lets the
/// node mutate itself while scheduling follow-up events, without interior
/// mutability.
pub struct Api<'a, E, C> {
    /// Current simulated time.
    pub now: SimTime,
    /// The node currently handling an event.
    pub self_id: NodeId,
    /// Shared simulation context (topology, config, metrics).
    pub ctx: &'a mut C,
    /// Deterministic RNG (one shared stream; fork per node for isolation).
    pub rng: &'a mut Rng,
    sched: &'a mut Calendar<E>,
    next_seq: &'a mut u64,
    fault: &'a mut Option<FaultLayer<E>>,
    cancels_requested: &'a mut u64,
}

impl<'a, E, C> Api<'a, E, C> {
    /// Schedule `ev` for delivery to `dst` after `delay`.
    pub fn send(&mut self, dst: NodeId, delay: SimDuration, ev: E) -> EventHandle {
        self.send_at(dst, self.now + delay, ev)
    }

    /// Schedule `ev` for delivery to `dst` at absolute time `at` (clamped to
    /// now if in the past). Subject to fault injection when a layer is
    /// attached and `dst` is another node; a dropped message returns
    /// [`EventHandle::NULL`] (cancel-safe, refers to nothing).
    pub fn send_at(&mut self, dst: NodeId, at: SimTime, ev: E) -> EventHandle {
        schedule_event(
            self.sched,
            self.next_seq,
            self.fault,
            self.now,
            Some(self.self_id),
            dst,
            at,
            ev,
        )
    }

    /// True when a scripted fault window (see [`crate::fault`]) forces the
    /// current hardware rule install to fail. Always false when no fault
    /// layer is attached.
    pub fn fault_forces_install_failure(&mut self) -> bool {
        match self.fault.as_mut() {
            Some(layer) => layer.plane.install_should_fail(self.now),
            None => false,
        }
    }

    /// This node's chaos boot epoch (number of scripted ToR reboots that
    /// have started). 0 when no fault layer or chaos script is attached.
    /// The switch model wipes hardware state when the value changes.
    pub fn chaos_tor_boot_epoch(&self) -> u64 {
        match self.fault.as_ref() {
            Some(layer) => layer.plane.chaos.tor_boot_epoch(self.self_id, self.now),
            None => 0,
        }
    }

    /// Is this node (a ToR) currently inside a scripted outage window?
    pub fn chaos_tor_dark(&self) -> bool {
        match self.fault.as_ref() {
            Some(layer) => layer.plane.chaos.tor_dark(self.self_id, self.now),
            None => false,
        }
    }

    /// Is `node`'s SR-IOV hardware path currently scripted dark? Queried by
    /// the server for itself and by its local controller (a different node)
    /// standing in for NIC health registers.
    pub fn chaos_vf_down_at(&self, node: NodeId) -> bool {
        match self.fault.as_ref() {
            Some(layer) => layer.plane.chaos.vf_down(node, self.now),
            None => false,
        }
    }

    /// This node's chaos restart epoch (number of scripted controller
    /// crash+restart instants that have passed). 0 when nothing is
    /// attached. The controller model wipes volatile state on change.
    pub fn chaos_ctrl_restart_epoch(&self) -> u64 {
        match self.fault.as_ref() {
            Some(layer) => layer.plane.chaos.ctrl_restart_epoch(self.self_id, self.now),
            None => 0,
        }
    }

    /// Schedule an event to this node itself (timer idiom).
    pub fn timer(&mut self, delay: SimDuration, ev: E) -> EventHandle {
        self.send(self.self_id, delay, ev)
    }

    /// Cancel a previously scheduled event in amortised O(1). Cancelling an
    /// event that already fired is a harmless no-op (the calendar's
    /// generation stamp proves the event is gone).
    pub fn cancel(&mut self, h: EventHandle) {
        *self.cancels_requested += 1;
        self.sched.cancel(h);
    }
}

/// The simulation kernel: nodes + event scheduler + clock.
pub struct Kernel<E, C> {
    nodes: Vec<Box<dyn NodeObj<E, C>>>,
    sched: Calendar<E>,
    now: SimTime,
    next_seq: u64,
    events_processed: u64,
    cancels_requested: u64,
    fault: Option<FaultLayer<E>>,
    /// Shared context available to every node during event handling.
    pub ctx: C,
    /// Root RNG stream.
    pub rng: Rng,
}

/// Object-safe shim adding `Any`-based downcasting (and forking) on top of
/// [`Node`].
trait NodeObj<E, C>: Send {
    fn on_event_obj(&mut self, ev: E, api: &mut Api<'_, E, C>);
    fn fork_obj(&self) -> Option<Box<dyn NodeObj<E, C>>>;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn as_any(&self) -> &dyn Any;
}

impl<E, C, T: Node<E, C>> NodeObj<E, C> for T {
    fn on_event_obj(&mut self, ev: E, api: &mut Api<'_, E, C>) {
        self.on_event(ev, api)
    }
    fn fork_obj(&self) -> Option<Box<dyn NodeObj<E, C>>> {
        Some(Box::new(self.fork()?))
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl<E, C> Kernel<E, C> {
    /// Create a kernel with the given shared context and RNG seed.
    pub fn new(ctx: C, seed: u64) -> Self {
        Kernel {
            nodes: Vec::new(),
            sched: Calendar::default(),
            now: SimTime::ZERO,
            next_seq: 0,
            events_processed: 0,
            cancels_requested: 0,
            fault: None,
            ctx,
            rng: Rng::new(seed),
        }
    }

    /// Register a node; returns its id. Ids are dense and assigned in
    /// registration order (experiments rely on this for readable traces).
    pub fn add_node<T: Node<E, C>>(&mut self, node: T) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Box::new(node));
        id
    }

    /// An independent copy of the whole world: every node (through
    /// [`Node::fork`]), the calendar verbatim — arena, generations (so an
    /// [`EventHandle`] issued before the fork names the same event in both
    /// copies), the FIFO sequence counter — and the clock, the counters, the
    /// RNG, the context and the fault layer. Both copies then replay exactly
    /// what the original would have, and share nothing. `None` when some
    /// node cannot be copied.
    pub fn fork(&self) -> Option<Self>
    where
        E: Clone,
        C: Clone,
    {
        Some(Kernel {
            nodes: self
                .nodes
                .iter()
                .map(|n| n.fork_obj())
                .collect::<Option<_>>()?,
            sched: self.sched.clone(),
            now: self.now,
            next_seq: self.next_seq,
            events_processed: self.events_processed,
            cancels_requested: self.cancels_requested,
            fault: self.fault.clone(),
            ctx: self.ctx.clone(),
            rng: self.rng.clone(),
        })
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedule an event from outside any node (harness setup). Never
    /// subject to fault injection — the harness is not a simulated link.
    pub fn post(&mut self, dst: NodeId, at: SimTime, ev: E) -> EventHandle {
        schedule_event(
            &mut self.sched,
            &mut self.next_seq,
            &mut self.fault,
            self.now,
            None,
            dst,
            at,
            ev,
        )
    }

    /// Attach (or replace) the fault-injection layer. With no layer — or a
    /// layer whose probabilities are all zero — the send path is untouched
    /// and runs replay identically.
    pub fn set_fault_layer(&mut self, layer: FaultLayer<E>) {
        self.fault = Some(layer);
    }

    /// The attached fault plane, if any (experiments read its counters).
    pub fn fault_plane(&self) -> Option<&crate::fault::FaultPlane> {
        self.fault.as_ref().map(|l| &l.plane)
    }

    /// Mutable access to the attached fault plane, if any.
    pub fn fault_plane_mut(&mut self) -> Option<&mut crate::fault::FaultPlane> {
        self.fault.as_mut().map(|l| &mut l.plane)
    }

    /// Cancel an event scheduled via [`Kernel::post`] or [`Api::send`].
    /// Cancelling an event that already fired is a no-op and leaves no state
    /// behind.
    pub fn cancel(&mut self, h: EventHandle) {
        self.cancels_requested += 1;
        self.sched.cancel(h);
    }

    /// Immutable typed access to a node (harness inspection between events).
    ///
    /// # Panics
    /// Panics if the id is invalid or the concrete type does not match.
    pub fn node<T: Node<E, C>>(&self, id: NodeId) -> &T {
        self.nodes[id]
            .as_any()
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {id} has unexpected type"))
    }

    /// Mutable typed access to a node (harness configuration between events).
    ///
    /// # Panics
    /// Panics if the id is invalid or the concrete type does not match.
    pub fn node_mut<T: Node<E, C>>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id]
            .as_any_mut()
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} has unexpected type"))
    }

    /// Deliver the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_due(SimTime::MAX)
    }

    /// Deliver the next event if it is due at or before `deadline`.
    /// Returns `false` when nothing (live) is due.
    fn step_due(&mut self, deadline: SimTime) -> bool {
        let Some((time, dst, ev)) = self.sched.pop_due(deadline) else {
            return false;
        };
        debug_assert!(time >= self.now, "event queue time went backwards");
        self.now = time;
        self.events_processed += 1;
        let node = &mut self.nodes[dst];
        let mut api = Api {
            now: self.now,
            self_id: dst,
            ctx: &mut self.ctx,
            rng: &mut self.rng,
            sched: &mut self.sched,
            next_seq: &mut self.next_seq,
            fault: &mut self.fault,
            cancels_requested: &mut self.cancels_requested,
        };
        node.on_event_obj(ev, &mut api);
        true
    }

    /// Run until the queue is empty or simulated time would pass `deadline`.
    /// Events at exactly `deadline` are delivered.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.step_due(deadline) {}
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Run until the event queue drains completely.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Number of pending events (including cancelled-but-unreclaimed ones).
    pub fn pending_events(&self) -> usize {
        self.sched.len()
    }

    /// Number of cancelled-but-not-yet-reclaimed events; exposed so tests
    /// can assert the backlog does not leak across long runs.
    pub fn cancelled_backlog(&self) -> usize {
        self.sched.cancelled_backlog()
    }

    /// Mirror kernel-level counters (and the fault plane's, when attached)
    /// into a telemetry registry under `sim.*`.
    ///
    /// Pull model: called at snapshot time by the harness, so the event loop
    /// itself carries no registry writes. Values are absolute overwrites —
    /// the kernel's own fields stay the single source of truth.
    pub fn publish_telemetry_into(&self, reg: &mut fastrak_telemetry::Registry) {
        let c = reg.counter("sim.kernel.events_processed", &[]);
        reg.set_counter(c, self.events_processed);
        let c = reg.counter("sim.kernel.cancels_requested", &[]);
        reg.set_counter(c, self.cancels_requested);
        let g = reg.gauge("sim.kernel.pending_events", &[]);
        reg.gauge_set(g, self.pending_events() as f64);
        let g = reg.gauge("sim.kernel.cancelled_backlog", &[]);
        reg.gauge_set(g, self.cancelled_backlog() as f64);
        if let Some(plane) = self.fault_plane() {
            plane.stats.publish_into(reg);
            plane.chaos.stats.publish_into(reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Clone)]
    enum Ev {
        Ping(u32),
        Tick,
    }

    #[derive(Default, Clone)]
    struct Ctx {
        log: Vec<(u64, usize, u32)>,
    }

    struct Echo {
        peer: Option<NodeId>,
        received: Vec<u32>,
        ticks: u32,
    }

    impl Node<Ev, Ctx> for Echo {
        fn on_event(&mut self, ev: Ev, api: &mut Api<'_, Ev, Ctx>) {
            match ev {
                Ev::Ping(n) => {
                    self.received.push(n);
                    api.ctx.log.push((api.now.as_nanos(), api.self_id, n));
                    if n > 0 {
                        if let Some(peer) = self.peer {
                            api.send(peer, SimDuration::from_micros(10), Ev::Ping(n - 1));
                        }
                    }
                }
                Ev::Tick => {
                    self.ticks += 1;
                    if self.ticks < 3 {
                        api.timer(SimDuration::from_millis(1), Ev::Tick);
                    }
                }
            }
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    fn two_node_kernel() -> (Kernel<Ev, Ctx>, NodeId, NodeId) {
        let mut k = Kernel::new(Ctx::default(), 1);
        let a = k.add_node(Echo {
            peer: None,
            received: vec![],
            ticks: 0,
        });
        let b = k.add_node(Echo {
            peer: Some(a),
            received: vec![],
            ticks: 0,
        });
        k.node_mut::<Echo>(a).peer = Some(b);
        (k, a, b)
    }

    #[test]
    fn ping_pong_alternates_and_advances_time() {
        let (mut k, a, b) = two_node_kernel();
        k.post(a, SimTime::ZERO, Ev::Ping(4));
        k.run_to_completion();
        assert_eq!(k.node::<Echo>(a).received, vec![4, 2, 0]);
        assert_eq!(k.node::<Echo>(b).received, vec![3, 1]);
        // 4 forwarded pings at 10us apart.
        assert_eq!(k.now(), SimTime::from_micros(40));
        assert_eq!(k.events_processed(), 5);
    }

    #[test]
    fn ties_break_in_fifo_order() {
        let (mut k, a, b) = two_node_kernel();
        k.node_mut::<Echo>(a).peer = None;
        k.node_mut::<Echo>(b).peer = None;
        k.post(b, SimTime::from_micros(5), Ev::Ping(0));
        k.post(a, SimTime::from_micros(5), Ev::Ping(0));
        k.run_to_completion();
        // b was scheduled first at the same timestamp, so b logs first.
        let order: Vec<usize> = k.ctx.log.iter().map(|&(_, id, _)| id).collect();
        assert_eq!(order, vec![b, a]);
    }

    #[test]
    fn self_timers_fire() {
        let (mut k, a, _) = two_node_kernel();
        k.post(a, SimTime::ZERO, Ev::Tick);
        k.run_to_completion();
        assert_eq!(k.node::<Echo>(a).ticks, 3);
        assert_eq!(k.now(), SimTime::from_millis(2));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let (mut k, a, _) = two_node_kernel();
        k.post(a, SimTime::ZERO, Ev::Tick);
        k.run_until(SimTime::from_micros(1500));
        assert_eq!(k.node::<Echo>(a).ticks, 2); // ticks at 0 and 1ms.
        assert_eq!(k.now(), SimTime::from_micros(1500));
        k.run_to_completion();
        assert_eq!(k.node::<Echo>(a).ticks, 3);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let (mut k, a, _) = two_node_kernel();
        let h = k.post(a, SimTime::from_micros(5), Ev::Ping(0));
        k.cancel(h);
        k.post(a, SimTime::from_micros(9), Ev::Ping(0));
        k.run_to_completion();
        assert_eq!(k.node::<Echo>(a).received, vec![0]);
        assert_eq!(k.events_processed(), 1);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let (mut k, a, _) = two_node_kernel();
        let h = k.post(a, SimTime::ZERO, Ev::Ping(0));
        k.run_to_completion();
        k.cancel(h);
        k.post(a, SimTime::from_micros(1), Ev::Ping(0));
        k.run_to_completion();
        assert_eq!(k.node::<Echo>(a).received.len(), 2);
    }

    #[test]
    fn cancel_tombstones_stay_bounded_in_timer_heavy_run() {
        // The classic transport idiom: arm a retransmit timer, then cancel
        // it after it (logically) completed — i.e. cancel handles of events
        // that already fired. The seed kernel leaked one tombstone per such
        // cancel; the calendar's generation stamp makes them no-ops.
        let (mut k, a, _) = two_node_kernel();
        let mut fired: Vec<EventHandle> = Vec::new();
        for round in 0..10_000u64 {
            let h = k.post(a, SimTime::from_micros(round), Ev::Ping(0));
            fired.push(h);
            k.run_until(SimTime::from_micros(round));
            // Cancel the already-fired timer (no-op) plus a handful of old ones.
            k.cancel(h);
            if let Some(&old) = fired.get(round as usize / 2) {
                k.cancel(old);
            }
        }
        assert_eq!(
            k.cancelled_backlog(),
            0,
            "fired-event cancels must not leak"
        );

        // Live cancellations of RTO-style timers, far beyond the ring span:
        // after every cancel the far heap holds no more dead entries than
        // live ones, so a hundred cancels leave at most one behind.
        let pending: Vec<_> = (0..100)
            .map(|i| k.post(a, k.now() + SimDuration::from_millis(200 + i), Ev::Ping(0)))
            .collect();
        for h in &pending {
            k.cancel(*h);
            let dead = k.cancelled_backlog();
            assert!(dead <= k.pending_events() - dead, "{dead} dead");
        }
        assert!(k.cancelled_backlog() <= 1);
        k.run_to_completion();
        assert_eq!(k.cancelled_backlog(), 0, "popped tombstones must be pruned");
        assert_eq!(k.pending_events(), 0);
    }

    #[test]
    fn publish_telemetry_mirrors_kernel_counters() {
        let (mut k, a, _) = two_node_kernel();
        let h = k.post(a, SimTime::from_micros(5), Ev::Ping(0));
        k.cancel(h);
        k.post(a, SimTime::ZERO, Ev::Ping(2));
        k.run_to_completion();
        let mut reg = fastrak_telemetry::Registry::default();
        k.publish_telemetry_into(&mut reg);
        assert_eq!(
            reg.counter_by_name("sim.kernel.events_processed"),
            Some(k.events_processed())
        );
        assert_eq!(reg.counter_by_name("sim.kernel.cancels_requested"), Some(1));
        assert_eq!(reg.gauge_by_name("sim.kernel.pending_events"), Some(0.0));
        // No fault layer attached: no sim.fault.* metrics registered.
        assert_eq!(reg.counter_by_name("sim.fault.dropped"), None);
    }

    /// Answers every ping after a random delay of whole microseconds, so the
    /// delivered order depends on the RNG and on same-instant ties (the FIFO
    /// sequence counter).
    #[derive(Clone)]
    struct Chatter {
        peer: NodeId,
    }

    impl Node<Ev, Ctx> for Chatter {
        fn on_event(&mut self, ev: Ev, api: &mut Api<'_, Ev, Ctx>) {
            if let Ev::Ping(n) = ev {
                api.ctx.log.push((api.now.as_nanos(), api.self_id, n));
                if n > 0 {
                    let delay = SimDuration::from_micros(1 + api.rng.below(4));
                    api.send(self.peer, delay, Ev::Ping(n - 1));
                }
            }
        }
        fn fork(&self) -> Option<Self> {
            Some(self.clone())
        }
    }

    #[test]
    fn a_fork_replays_the_source_and_shares_nothing_with_it() {
        let mut k = Kernel::new(Ctx::default(), 7);
        let a = k.add_node(Chatter { peer: 1 });
        let b = k.add_node(Chatter { peer: a });
        k.post(a, SimTime(100), Ev::Ping(40));
        k.post(b, SimTime(120), Ev::Ping(40));
        let dead = k.post(a, SimTime(200), Ev::Ping(0));
        let ring_at = SimTime::from_micros(50);
        let handle = k.post(b, ring_at, Ev::Ping(30)); // the ring
        k.post(a, SimTime::from_millis(5), Ev::Ping(30)); // the far heap
                                                          // Opens the first bucket: 120 ns and 200 ns wait in the near window.
        k.run_until(SimTime(110));
        k.cancel(dead);
        assert_eq!((k.events_processed(), k.cancelled_backlog()), (1, 1));

        let mut twin = k.fork().expect("every node forks");
        let mut other = k.fork().expect("every node forks");
        other.cancel(handle);
        assert_eq!(other.cancelled_backlog(), 2);
        assert_eq!(k.cancelled_backlog(), 1, "the source keeps its event");
        assert_eq!(twin.cancelled_backlog(), 1);

        // Posted after the fork at the ring event's instant: it sorts behind
        // it in both copies only if the copy kept the sequence counter.
        for w in [&mut k, &mut twin] {
            w.post(a, ring_at, Ev::Ping(0));
            w.run_to_completion();
        }
        other.run_to_completion();
        assert_eq!(twin.ctx.log, k.ctx.log);
        assert_eq!(twin.events_processed(), k.events_processed());
        assert_eq!(twin.cancelled_backlog(), k.cancelled_backlog());
        assert_eq!(twin.now(), k.now());
        assert_eq!(k.events_processed(), 41 + 41 + 31 + 31 + 1);
        let ring_ping = (ring_at.as_nanos(), b, 30);
        let pos = |log: &[(u64, NodeId, u32)], e| log.iter().position(|x| *x == e);
        let late = (ring_at.as_nanos(), a, 0);
        assert!(pos(&k.ctx.log, ring_ping).unwrap() < pos(&k.ctx.log, late).unwrap());
        assert!(pos(&other.ctx.log, ring_ping).is_none());
    }

    #[test]
    fn a_node_without_fork_makes_the_kernel_unforkable() {
        let (k, _, _) = two_node_kernel();
        assert!(k.fork().is_none());
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn wrong_downcast_panics() {
        struct Other;
        impl Node<Ev, Ctx> for Other {
            fn on_event(&mut self, _: Ev, _: &mut Api<'_, Ev, Ctx>) {}
        }
        let mut k = Kernel::new(Ctx::default(), 1);
        let id = k.add_node(Other);
        let _ = k.node::<Echo>(id);
    }
}
