//! The shared simulation event vocabulary.
//!
//! Every node in the testbed (servers, ToR switches, the fabric core, the
//! FasTrak controllers) exchanges [`Event`]s through the DES kernel:
//!
//! * [`Event::Frame`] — a packet arriving on one of the node's ports after
//!   link serialization + propagation;
//! * [`Event::Timer`] — a self-scheduled timer (TCP retransmission, ME
//!   measurement epochs, workload pacing);
//! * [`Event::Ctl`] — a control-plane message. Control messages are typed
//!   per-protocol and carried as `Box<dyn Any + Send>` so that higher layers (the
//!   controllers in `fastrak`) can define message types without this crate
//!   depending on them. Control traffic is low-rate, so the downcast cost is
//!   irrelevant.

use std::any::Any;

use fastrak_sim::fault::{FaultConfig, FaultLayer};
use fastrak_sim::kernel::NodeId;
use fastrak_sim::trace::TraceRing;
use fastrak_telemetry::Telemetry;

use crate::packet::Packet;

/// A control-plane message between nodes.
pub struct CtlMsg {
    /// Sending node.
    pub from: NodeId,
    /// Typed body; receivers downcast to the protocol structs they speak.
    pub body: Box<dyn Any + Send>,
    /// Clones the body (the `dyn Any` erasure hides `Clone`; this restores
    /// it for duplication faults and forked worlds). Captured at
    /// construction, where `T` is still concrete.
    clone_body: fn(&(dyn Any + Send)) -> Box<dyn Any + Send>,
}

impl CtlMsg {
    /// Wrap a typed body. Bodies must be `Clone` so the fault-injection
    /// layer can model duplicated delivery and a world holding the message
    /// can be forked, and `Send` so that world can move between threads —
    /// every protocol struct is plain data, so this costs nothing.
    pub fn new<T: Any + Clone + Send>(from: NodeId, body: T) -> CtlMsg {
        CtlMsg {
            from,
            body: Box::new(body),
            clone_body: |b| Box::new(b.downcast_ref::<T>().expect("clone_body type").clone()),
        }
    }

    /// Downcast the body to a concrete message type.
    pub fn downcast<T: Any>(self) -> Result<(NodeId, T), CtlMsg> {
        let CtlMsg {
            from,
            body,
            clone_body,
        } = self;
        match body.downcast::<T>() {
            Ok(b) => Ok((from, *b)),
            Err(body) => Err(CtlMsg {
                from,
                body,
                clone_body,
            }),
        }
    }

    /// Peek at the body type without consuming.
    pub fn is<T: Any>(&self) -> bool {
        self.body.is::<T>()
    }

    /// Borrow the body as a concrete message type without consuming.
    /// Lets fault classifiers target specific protocol messages.
    pub fn peek<T: Any>(&self) -> Option<&T> {
        self.body.downcast_ref::<T>()
    }

    /// Deep-copy the message (same sender, cloned body).
    pub fn duplicate(&self) -> CtlMsg {
        CtlMsg {
            from: self.from,
            body: (self.clone_body)(self.body.as_ref()),
            clone_body: self.clone_body,
        }
    }
}

/// Clone hook for [`FaultLayer`]: control messages are duplicable, frames
/// and timers are not (faults only target the control plane).
pub fn duplicate_ctl_event(ev: &Event) -> Option<Event> {
    match ev {
        Event::Ctl(msg) => Some(Event::Ctl(msg.duplicate())),
        _ => None,
    }
}

/// Build a [`FaultLayer`] over [`Event`] that targets every control-plane
/// message ([`Event::Ctl`]) and leaves data-path frames and timers alone.
/// The chaos plane (scripted component outages in [`FaultConfig::chaos`])
/// gets the complementary classifier: it blackholes [`Event::Frame`]s on
/// dark ToRs and flapping links while control messages ride the out-of-band
/// management network. Attach with [`fastrak_sim::Kernel::set_fault_layer`].
pub fn ctl_fault_layer(cfg: FaultConfig) -> FaultLayer<Event> {
    FaultLayer::new(cfg, |ev| matches!(ev, Event::Ctl(_)), duplicate_ctl_event)
        .with_frame_classifier(|ev| matches!(ev, Event::Frame { .. }))
}

impl Clone for CtlMsg {
    fn clone(&self) -> CtlMsg {
        self.duplicate()
    }
}

impl std::fmt::Debug for CtlMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CtlMsg(from={})", self.from)
    }
}

/// The event type flowing through the simulation kernel. A clone deep-copies
/// a control message's body through [`CtlMsg::duplicate`].
#[derive(Debug, Clone)]
pub enum Event {
    /// A packet delivered to `port` of the receiving node.
    Frame {
        /// Ingress port index on the receiving node.
        port: usize,
        /// The packet.
        pkt: Packet,
    },
    /// A self-scheduled timer. `tag` selects the subsystem; `a`/`b` carry
    /// subsystem-specific identifiers (connection ids, epoch numbers, ...).
    Timer {
        /// Subsystem tag (see each component's timer constants).
        tag: u64,
        /// First auxiliary value.
        a: u64,
        /// Second auxiliary value.
        b: u64,
    },
    /// A control-plane message.
    Ctl(CtlMsg),
}

/// Shared kernel context: the global trace ring, the telemetry plane, and
/// the packet-id allocator.
#[derive(Debug, Clone)]
pub struct NetCtx {
    /// Global trace ring (receiver-side packet capture, controller events).
    pub trace: TraceRing,
    /// Observability plane: metrics registry, span log, flight recorder,
    /// decision audit log. Disabled by default (zero-cost contract).
    pub telemetry: Telemetry,
    next_packet_id: u64,
}

impl Default for NetCtx {
    fn default() -> Self {
        NetCtx {
            trace: TraceRing::new(1 << 20),
            telemetry: Telemetry::default(),
            next_packet_id: 0,
        }
    }
}

impl NetCtx {
    /// A context with the default 1M-record trace ring (disabled).
    pub fn new() -> NetCtx {
        NetCtx::default()
    }

    /// Allocate a unique packet id.
    pub fn alloc_packet_id(&mut self) -> u64 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Clone)]
    struct Hello(u32);
    #[derive(Debug, Clone)]
    struct Other;

    #[test]
    fn ctl_downcast_roundtrip() {
        let msg = CtlMsg::new(3, Hello(7));
        assert!(msg.is::<Hello>());
        let (from, hello) = msg.downcast::<Hello>().unwrap();
        assert_eq!(from, 3);
        assert_eq!(hello, Hello(7));
    }

    #[test]
    fn ctl_downcast_wrong_type_returns_message() {
        let msg = CtlMsg::new(1, Hello(9));
        let msg = msg.downcast::<Other>().unwrap_err();
        // Still intact and downcastable to the right type.
        let (_, hello) = msg.downcast::<Hello>().unwrap();
        assert_eq!(hello.0, 9);
    }

    #[test]
    fn ctl_peek_does_not_consume() {
        let msg = CtlMsg::new(2, Hello(5));
        assert_eq!(msg.peek::<Hello>(), Some(&Hello(5)));
        assert!(msg.peek::<Other>().is_none());
        let (_, hello) = msg.downcast::<Hello>().unwrap();
        assert_eq!(hello, Hello(5));
    }

    #[test]
    fn ctl_duplicate_deep_copies_body() {
        let msg = CtlMsg::new(4, Hello(11));
        let copy = msg.duplicate();
        assert_eq!(copy.from, 4);
        let (_, a) = msg.downcast::<Hello>().unwrap();
        let (_, b) = copy.downcast::<Hello>().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_ctl_event_skips_timers() {
        let timer = Event::Timer { tag: 1, a: 0, b: 0 };
        assert!(duplicate_ctl_event(&timer).is_none());
        let ctl = Event::Ctl(CtlMsg::new(0, Hello(1)));
        assert!(duplicate_ctl_event(&ctl).is_some());
    }

    #[test]
    fn event_moves_in_five_words() {
        // A frame is a port and a packet handle; the widest variant is the
        // control message. The kernel moves an `Event` at every hop, so a
        // field that grows it past this is paid per event.
        assert!(std::mem::size_of::<Event>() <= 40);
    }

    #[test]
    fn packet_ids_unique() {
        let mut ctx = NetCtx::new();
        let a = ctx.alloc_packet_id();
        let b = ctx.alloc_packet_id();
        assert_ne!(a, b);
    }
}
