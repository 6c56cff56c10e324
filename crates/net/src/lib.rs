//! # fastrak-net
//!
//! Network data-plane vocabulary for the FasTrak reproduction: addresses,
//! byte-accurate wire headers, flow keys (the paper's 6-tuple including the
//! tenant ID), tenant security rules, and the match tables every component
//! shares:
//!
//! * [`tables::ExactMatchTable`] — the O(1) hash table used by the OVS kernel
//!   datapath (paper §2.2);
//! * [`tables::WildcardTable`] — priority-ordered wildcard matching with a
//!   bounded capacity, modelling switch fast-path (TCAM/VRF) memory
//!   (paper §4.1.3) and the flow placer's control plane (§4.1.1).
//!
//! [`port::EgressPort`] is the one output-queue model (drop-tail bound, ECN
//! marking, line-rate serialisation) that both the server NIC and the ToR use.
//!
//! [`headers`] implements real encode/decode for Ethernet/802.1Q, IPv4 (with
//! the internet checksum), TCP, UDP, GRE (with key) and VXLAN. The simulator
//! hot path carries structured [`packet::Packet`] metadata instead of bytes,
//! but sizes come from the real formats and the codecs are exercised by the
//! integration tests to prove the encap stack is wire-faithful.

pub mod addr;
pub mod checksum;
pub mod ctrl;
pub mod event;
pub mod flow;
pub mod headers;
pub mod packet;
pub mod port;
pub mod rules;
pub mod tables;
pub mod tunnel;
pub mod wire;

pub use addr::{Ip, Mac, TenantId, VlanId};
pub use ctrl::{Ctl, CtrlReply, CtrlRequest, Dir, FlowStatEntry, TorRule, TorStatEntry};
pub use event::{CtlMsg, Event, NetCtx};
pub use flow::{FlowAggregate, FlowKey, FlowSpec, Proto};
pub use packet::{Encap, EncapStack, L4Meta, Packet, PathTag, ENCAP_MAX_DEPTH};
pub use rules::{Action, QosClass, RuleSet, SecurityRule};
pub use tables::{ExactMatchTable, WildcardTable};
pub use tunnel::{TunnelKey, TunnelMapping};
