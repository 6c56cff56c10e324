//! The shared simulation event vocabulary.
//!
//! Every node in the testbed (servers, ToR switches, the FasTrak
//! controllers) exchanges [`Event`]s through the DES kernel:
//!
//! * [`Event::Frame`] — a packet arriving on one of the node's ports after
//!   link serialization + propagation;
//! * [`Event::Timer`] — a self-scheduled timer (TCP retransmission, ME
//!   measurement epochs, workload pacing);
//! * [`Event::Ctl`] — a control-plane message: a sender and one of the six
//!   message types of the closed [`Ctl`] vocabulary. Boxed, so the rare
//!   control message does not widen the event every frame hop moves.

use fastrak_sim::fault::{FaultConfig, FaultLayer};
use fastrak_sim::kernel::NodeId;
use fastrak_sim::trace::TraceRing;
use fastrak_telemetry::Telemetry;

use crate::ctrl::Ctl;
use crate::packet::Packet;

/// A control-plane message between nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct CtlMsg {
    /// Sending node.
    pub from: NodeId,
    /// The message.
    pub body: Ctl,
}

/// Clone hook for [`FaultLayer`]: control messages are duplicable, frames
/// and timers are not (faults only target the control plane).
pub fn duplicate_ctl_event(ev: &Event) -> Option<Event> {
    match ev {
        Event::Ctl(_) => Some(ev.clone()),
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

/// The event type flowing through the simulation kernel.
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
    Ctl(Box<CtlMsg>),
}

impl Event {
    /// A control message from node `from`.
    pub fn ctl(from: NodeId, body: Ctl) -> Event {
        Event::Ctl(Box::new(CtlMsg { from, body }))
    }
}

/// Shared kernel context: the global trace ring, the telemetry plane, and
/// the packet-id allocator.
#[derive(Debug, Clone)]
pub struct NetCtx {
    /// Global trace ring: when enabled, the TCP segments servers put on
    /// their uplinks and deliver to their VMs.
    pub trace: TraceRing,
    /// Observability plane: metrics registry, span log, decision audit log.
    /// Disabled by default (zero-cost contract).
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

    use crate::ctrl::{CtrlRequest, MigrationPrepare};
    use crate::{Ip, TenantId};

    fn prepare() -> Ctl {
        Ctl::Migration(MigrationPrepare {
            tenant: TenantId(3),
            vm_ip: Ip::tenant_vm(11),
        })
    }

    #[test]
    fn ctl_duplicate_deep_copies_body() {
        let msg = Event::ctl(
            4,
            Ctl::Req(CtrlRequest::RemoveTorRules { rules: Vec::new() }),
        );
        let Some(Event::Ctl(mut copy)) = duplicate_ctl_event(&msg) else {
            panic!("a control message duplicates");
        };
        assert_eq!(copy.from, 4);
        if let Ctl::Req(CtrlRequest::RemoveTorRules { rules }) = &mut copy.body {
            rules.push((TenantId(1), Default::default()));
        }
        let Event::Ctl(orig) = msg else {
            unreachable!()
        };
        assert_eq!(
            orig.body,
            Ctl::Req(CtrlRequest::RemoveTorRules { rules: Vec::new() }),
            "the copy owns its body"
        );
    }

    #[test]
    fn duplicate_ctl_event_skips_timers() {
        let timer = Event::Timer { tag: 1, a: 0, b: 0 };
        assert!(duplicate_ctl_event(&timer).is_none());
        assert!(duplicate_ctl_event(&Event::ctl(0, prepare())).is_some());
    }

    #[test]
    fn debug_of_a_control_message_prints_its_body() {
        let shown = format!("{:?}", Event::ctl(7, prepare()));
        assert!(shown.contains("from: 7"), "{shown}");
        assert!(shown.contains("MigrationPrepare"), "{shown}");
        assert!(shown.contains("TenantId(3)"), "{shown}");
    }

    #[test]
    fn event_moves_in_four_words() {
        // A frame is a port and a packet handle, a control message one
        // handle; the widest variant is the timer. The kernel moves an
        // `Event` at every hop, so a field that grows it past this is paid
        // per event.
        assert!(std::mem::size_of::<Event>() <= 32);
    }

    #[test]
    fn packet_ids_unique() {
        let mut ctx = NetCtx::new();
        let a = ctx.alloc_packet_id();
        let b = ctx.alloc_packet_id();
        assert_ne!(a, b);
    }
}
