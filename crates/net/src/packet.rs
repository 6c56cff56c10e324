//! The simulated packet.
//!
//! On the hot path packets are structured metadata — flow key, L4 state,
//! payload size, an encapsulation stack — rather than byte buffers; all
//! sizes are derived from the real header formats in [`crate::headers`], and
//! [`Packet::encode_wire`] / [`Packet::decode_wire`] can materialize and
//! re-parse the actual bytes (used by tests to prove wire fidelity).

use crate::addr::{Ip, Mac, TenantId};
use crate::flow::{FlowKey, Proto};
use crate::headers::{
    ethertype, EthernetHeader, GreHeader, HeaderError, Ipv4Header, TcpHeader, UdpHeader,
    VxlanHeader,
};
use crate::wire::BytesMut;
use fastrak_sim::time::SimTime;

/// Maximum TCP payload per wire packet: the testbed's 1500-byte MTU
/// (§3.1) - IP(20) - TCP(20) - timestamp option (12), i.e. the 1448 bytes
/// the paper uses as an application data size precisely because it fills
/// one segment.
pub const MSS: u32 = 1448;

/// An encapsulation applied to a packet in flight, innermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encap {
    /// 802.1Q VLAN tag identifying the tenant on the server↔ToR hop
    /// (paper §4.2.1).
    Vlan(u16),
    /// GRE tunnel added by the ToR on the hardware path; `key` carries the
    /// tenant ID, `dst` the destination ToR's provider IP (paper §4.1.3).
    Gre {
        /// Tenant ID in the GRE key field.
        key: u32,
        /// Outer source (this ToR).
        src: Ip,
        /// Outer destination (destination ToR).
        dst: Ip,
    },
    /// VXLAN tunnel added by the vswitch on the software path; `vni` carries
    /// the tenant ID, `dst` the destination *server's* provider IP (§2.2).
    Vxlan {
        /// 24-bit VXLAN network identifier.
        vni: u32,
        /// Outer source (this server).
        src: Ip,
        /// Outer destination (destination server).
        dst: Ip,
    },
}

impl Encap {
    /// Extra on-the-wire bytes this encapsulation adds.
    pub fn overhead(self) -> u32 {
        match self {
            Encap::Vlan(_) => 4,
            Encap::Gre { .. } => (Ipv4Header::LEN + GreHeader::LEN) as u32,
            Encap::Vxlan { .. } => VxlanHeader::ENCAP_OVERHEAD as u32,
        }
    }
}

/// Maximum encapsulation depth any code path produces: one VLAN tag plus one
/// tunnel (GRE or VXLAN). The paper's datapath never nests tunnels.
pub const ENCAP_MAX_DEPTH: usize = 2;

/// Inline fixed-capacity encapsulation stack (innermost first).
///
/// The stack lives inside the [`PacketBody`], so a packet is one allocation
/// and pushing a tunnel header at a hop does not touch the heap. Pushing
/// beyond [`ENCAP_MAX_DEPTH`] panics — depth > 2 would mean a topology bug,
/// not a bigger stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncapStack {
    len: u8,
    slots: [Option<Encap>; ENCAP_MAX_DEPTH],
}

impl EncapStack {
    /// Empty stack.
    pub fn new() -> EncapStack {
        EncapStack::default()
    }

    /// Number of encapsulations on the stack.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no encapsulation is applied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Push an encapsulation (becomes the outermost layer).
    ///
    /// # Panics
    /// Panics if the stack already holds [`ENCAP_MAX_DEPTH`] layers.
    #[inline]
    pub fn push(&mut self, e: Encap) {
        let i = self.len as usize;
        assert!(
            i < ENCAP_MAX_DEPTH,
            "encap depth exceeds ENCAP_MAX_DEPTH ({ENCAP_MAX_DEPTH})"
        );
        self.slots[i] = Some(e);
        self.len += 1;
    }

    /// Pop the outermost encapsulation.
    #[inline]
    pub fn pop(&mut self) -> Option<Encap> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        self.slots[self.len as usize].take()
    }

    /// The outermost encapsulation, if any.
    #[inline]
    pub fn last(&self) -> Option<&Encap> {
        if self.len == 0 {
            None
        } else {
            self.slots[self.len as usize - 1].as_ref()
        }
    }

    /// Iterate innermost → outermost.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Encap> + ExactSizeIterator {
        self.slots[..self.len as usize]
            .iter()
            .map(|s| s.as_ref().expect("slot below len is filled"))
    }
}

/// Up to three SACK blocks (RFC 2018 limit with timestamps present), each a
/// `[start, end)` byte range the receiver holds above the cumulative ACK.
/// Carried as structured metadata next to [`L4Meta`] — the wire codec's
/// fixed 20-byte TCP header plus the 12-byte options allowance already
/// accounts for the option space, so sizes stay faithful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackBlocks {
    n: u8,
    blocks: [(u64, u64); 3],
}

impl SackBlocks {
    /// No blocks.
    pub const EMPTY: SackBlocks = SackBlocks {
        n: 0,
        blocks: [(0, 0); 3],
    };

    /// Append a `[start, end)` block; silently ignored beyond three (the
    /// receiver reports its most relevant ranges first).
    pub fn push(&mut self, start: u64, end: u64) {
        if (self.n as usize) < 3 && end > start {
            self.blocks[self.n as usize] = (start, end);
            self.n += 1;
        }
    }

    /// Number of blocks carried.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when no blocks are carried.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterate the carried `(start, end)` ranges.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.blocks[..self.n as usize].iter().copied()
    }
}

/// L4 metadata carried by a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L4Meta {
    /// A TCP segment. Sequence numbers are 64-bit internally (a 4 GB file
    /// transfer must not wrap); [`Packet::encode_wire`] truncates to the
    /// 32-bit wire representation.
    Tcp {
        /// Sequence number of the first payload byte.
        seq: u64,
        /// Cumulative acknowledgement number.
        ack: u64,
        /// TCP flags ([`crate::headers::tcp_flags`]).
        flags: u8,
    },
    /// A UDP datagram.
    Udp,
}

/// Which interface a flow leaves its server through: the bonding-driver
/// flow placer's per-flow decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathTag {
    /// Software path: VIF → vswitch → NIC.
    Vif,
    /// Hardware express lane: SR-IOV VF → NIC → ToR rules.
    SrIov,
}

/// A packet in flight through the simulation: an owning, pointer-sized
/// handle to a heap [`PacketBody`].
///
/// The body is written once where the packet is born ([`Packet::new`]) and
/// freed once where it dies (dropped at delivery or at a drop point); every
/// hop in between — event, scheduler entry, stage table — moves the 8-byte
/// handle. Fields are reached through `Deref`, so `pkt.flow`,
/// `pkt.ecn = ..` and `&pkt` read as they would on a plain struct. `Clone`
/// copies the body (the clone is independent), `==` and `Debug` go by body.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet(Box<PacketBody>);

/// The fields of a [`Packet`], reached through its `Deref`.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketBody {
    /// Unique id for tracing.
    pub id: u64,
    /// The (inner, tenant-space) flow this packet belongs to.
    pub flow: FlowKey,
    /// L4 metadata.
    pub l4: L4Meta,
    /// Application payload bytes in this packet (≤ MSS on the wire; larger
    /// values represent a TSO super-segment until segmentation).
    pub payload: u32,
    /// Encapsulation stack, innermost first (inline in the body).
    pub encaps: EncapStack,
    /// When the *application* handed the packet to its socket (end-to-end
    /// latency measurement).
    pub sent_at: SimTime,
    /// ECN codepoint ([`crate::headers::ecn`]): the low two bits of the IP
    /// DSCP/ECN byte. Senders set ECT(0) on ECN-negotiated flows; queues
    /// rewrite it to CE instead of dropping.
    pub ecn: u8,
    /// SACK blocks carried by a TCP ACK (empty on non-SACK flows).
    pub sack: SackBlocks,
}

impl std::ops::Deref for Packet {
    type Target = PacketBody;

    #[inline]
    fn deref(&self) -> &PacketBody {
        &self.0
    }
}

impl std::ops::DerefMut for Packet {
    #[inline]
    fn deref_mut(&mut self) -> &mut PacketBody {
        &mut self.0
    }
}

impl Packet {
    /// A payload-bearing packet with no encapsulation. The one place a
    /// packet body is allocated (besides `clone`).
    pub fn new(id: u64, flow: FlowKey, l4: L4Meta, payload: u32, sent_at: SimTime) -> Packet {
        Packet(Box::new(PacketBody {
            id,
            flow,
            l4,
            payload,
            encaps: EncapStack::new(),
            sent_at,
            ecn: 0,
            sack: SackBlocks::EMPTY,
        }))
    }

    /// Inner (pre-encap) wire length: Ethernet + IP + L4 + payload.
    pub fn inner_wire_len(&self) -> u32 {
        let l4 = match self.l4 {
            L4Meta::Tcp { .. } => TcpHeader::LEN as u32,
            L4Meta::Udp => UdpHeader::LEN as u32,
        };
        EthernetHeader::LEN as u32 + Ipv4Header::LEN as u32 + l4 + self.payload
    }

    /// Total on-the-wire length including all encapsulations.
    pub fn wire_len(&self) -> u32 {
        self.inner_wire_len() + self.encaps.iter().map(|e| e.overhead()).sum::<u32>()
    }

    /// Push an encapsulation (outermost last).
    pub fn encap(&mut self, e: Encap) {
        self.encaps.push(e);
    }

    /// Pop the outermost encapsulation.
    pub fn decap(&mut self) -> Option<Encap> {
        self.encaps.pop()
    }

    /// The outermost encapsulation, if any.
    pub fn outer(&self) -> Option<&Encap> {
        self.encaps.last()
    }

    /// The VLAN tag if the outermost encap is a VLAN.
    pub fn outer_vlan(&self) -> Option<u16> {
        match self.encaps.last() {
            Some(Encap::Vlan(v)) => Some(*v),
            _ => None,
        }
    }

    /// Number of wire packets this (possibly TSO super-segment) packet
    /// occupies when segmented to the MSS.
    pub fn wire_segments(&self) -> u32 {
        // Most packets are one segment: skip the division for them.
        if self.payload <= MSS {
            1
        } else {
            self.payload.div_ceil(MSS)
        }
    }

    /// Total bytes this packet occupies on the wire after TSO segmentation:
    /// every MSS-sized segment repeats the full header stack. This is the
    /// quantity link serialization and throughput accounting must use.
    pub fn wire_bytes_total(&self) -> u64 {
        let per_seg_overhead = self.wire_len() - self.payload;
        self.payload as u64 + per_seg_overhead as u64 * self.wire_segments() as u64
    }

    /// Materialize the real wire bytes of this packet (headers only; the
    /// payload is zero-filled). Innermost headers are emitted last.
    pub fn encode_wire(&self, src_mac: Mac, dst_mac: Mac) -> BytesMut {
        let mut buf = BytesMut::with_capacity(self.wire_len() as usize);
        // Outer headers first, outermost encap first.
        let mut stack: Vec<&Encap> = self.encaps.iter().collect();
        stack.reverse(); // outermost first
        let mut vlan_for_eth: Option<u16> = None;
        // Collect the sizes under each encap layer.
        let mut under: Vec<u32> = Vec::with_capacity(stack.len());
        {
            let mut acc = self.inner_wire_len();
            for e in self.encaps.iter() {
                under.push(acc);
                acc += e.overhead();
            }
            under.reverse();
        }
        for (idx, e) in stack.iter().enumerate() {
            match e {
                Encap::Vlan(v) => {
                    vlan_for_eth = Some(*v);
                }
                Encap::Gre { key, src, dst } => {
                    EthernetHeader {
                        dst: dst_mac,
                        src: src_mac,
                        vlan: vlan_for_eth.take(),
                        ethertype: ethertype::IPV4,
                    }
                    .encode(&mut buf);
                    Ipv4Header {
                        src: *src,
                        dst: *dst,
                        protocol: Ipv4Header::PROTO_GRE,
                        total_len: (under[idx] - EthernetHeader::LEN as u32
                            + (Ipv4Header::LEN + GreHeader::LEN) as u32)
                            as u16,
                        dscp_ecn: self.ecn,
                        ttl: 64,
                        ident: self.id as u16,
                    }
                    .encode(&mut buf);
                    GreHeader {
                        key: *key,
                        protocol: ethertype::IPV4,
                    }
                    .encode(&mut buf);
                    // GRE carries the inner IP directly; no inner Ethernet
                    // is emitted below (see `under_gre`).
                }
                Encap::Vxlan { vni, src, dst } => {
                    EthernetHeader {
                        dst: dst_mac,
                        src: src_mac,
                        vlan: vlan_for_eth.take(),
                        ethertype: ethertype::IPV4,
                    }
                    .encode(&mut buf);
                    let udp_len = (under[idx] + (UdpHeader::LEN + VxlanHeader::LEN) as u32) as u16;
                    Ipv4Header {
                        src: *src,
                        dst: *dst,
                        protocol: 17,
                        total_len: udp_len + Ipv4Header::LEN as u16,
                        dscp_ecn: self.ecn,
                        ttl: 64,
                        ident: self.id as u16,
                    }
                    .encode(&mut buf);
                    UdpHeader {
                        src_port: (self.flow.trace_hash() & 0x3fff) as u16 | 0xc000,
                        dst_port: UdpHeader::VXLAN_PORT,
                        length: udp_len,
                    }
                    .encode(&mut buf);
                    VxlanHeader { vni: *vni }.encode(&mut buf);
                }
            }
        }
        // Inner Ethernet (skipped under GRE which carries IP directly; for
        // simplicity we always emit it unless the outermost decap was GRE).
        let under_gre = self.encaps.iter().any(|e| matches!(e, Encap::Gre { .. }));
        if !under_gre {
            EthernetHeader {
                dst: dst_mac,
                src: src_mac,
                vlan: vlan_for_eth.take(),
                ethertype: ethertype::IPV4,
            }
            .encode(&mut buf);
        }
        let l4_len = match self.l4 {
            L4Meta::Tcp { .. } => TcpHeader::LEN,
            L4Meta::Udp => UdpHeader::LEN,
        } as u32;
        Ipv4Header {
            src: self.flow.src_ip,
            dst: self.flow.dst_ip,
            protocol: self.flow.proto.number(),
            total_len: (Ipv4Header::LEN as u32 + l4_len + self.payload) as u16,
            dscp_ecn: self.ecn,
            ttl: 64,
            ident: self.id as u16,
        }
        .encode(&mut buf);
        match self.l4 {
            L4Meta::Tcp { seq, ack, flags } => TcpHeader {
                src_port: self.flow.src_port,
                dst_port: self.flow.dst_port,
                seq: seq as u32,
                ack: ack as u32,
                flags,
                window: 0xffff,
            }
            .encode(&mut buf),
            L4Meta::Udp => UdpHeader {
                src_port: self.flow.src_port,
                dst_port: self.flow.dst_port,
                length: (UdpHeader::LEN as u32 + self.payload) as u16,
            }
            .encode(&mut buf),
        }
        buf.resize(buf.len() + self.payload as usize, 0);
        buf
    }

    /// Parse the *inner* flow key back out of wire bytes produced by
    /// [`Packet::encode_wire`] for a non-encapsulated packet.
    pub fn decode_wire(tenant: TenantId, bytes: &[u8]) -> Result<FlowKey, HeaderError> {
        let mut cur = bytes;
        let _eth = EthernetHeader::decode(&mut cur)?;
        let ip = Ipv4Header::decode(&mut cur)?;
        let proto = Proto::from_number(ip.protocol).ok_or(HeaderError::Malformed("ip protocol"))?;
        let (src_port, dst_port) = match proto {
            Proto::Tcp => {
                let t = TcpHeader::decode(&mut cur)?;
                (t.src_port, t.dst_port)
            }
            Proto::Udp => {
                let u = UdpHeader::decode(&mut cur)?;
                (u.src_port, u.dst_port)
            }
        };
        Ok(FlowKey {
            tenant,
            src_ip: ip.src,
            dst_ip: ip.dst,
            proto,
            src_port,
            dst_port,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowKey {
        FlowKey {
            tenant: TenantId(3),
            src_ip: Ip::new(10, 0, 0, 1),
            dst_ip: Ip::new(10, 0, 0, 2),
            proto: Proto::Tcp,
            src_port: 40000,
            dst_port: 11211,
        }
    }

    fn pkt(payload: u32) -> Packet {
        Packet::new(
            1,
            flow(),
            L4Meta::Tcp {
                seq: 100,
                ack: 0,
                flags: 0x10,
            },
            payload,
            SimTime::ZERO,
        )
    }

    #[test]
    fn plain_wire_len() {
        // ETH 14 + IP 20 + TCP 20 + payload.
        assert_eq!(pkt(100).wire_len(), 154);
        assert_eq!(pkt(0).wire_len(), 54);
    }

    #[test]
    fn encap_overheads_accumulate() {
        let mut p = pkt(100);
        p.encap(Encap::Vlan(5));
        assert_eq!(p.wire_len(), 158);
        p.decap();
        p.encap(Encap::Gre {
            key: 3,
            src: Ip::new(172, 31, 0, 1),
            dst: Ip::new(172, 31, 1, 1),
        });
        assert_eq!(p.wire_len(), 154 + 28);
        p.decap();
        p.encap(Encap::Vxlan {
            vni: 3,
            src: Ip::new(172, 16, 0, 1),
            dst: Ip::new(172, 16, 0, 2),
        });
        assert_eq!(p.wire_len(), 154 + 50);
    }

    #[test]
    fn decap_lifo() {
        let mut p = pkt(10);
        p.encap(Encap::Vlan(5));
        p.encap(Encap::Gre {
            key: 3,
            src: Ip::UNSPECIFIED,
            dst: Ip::UNSPECIFIED,
        });
        assert!(matches!(p.decap(), Some(Encap::Gre { .. })));
        assert_eq!(p.decap(), Some(Encap::Vlan(5)));
        assert_eq!(p.decap(), None);
    }

    #[test]
    fn outer_vlan_only_when_outermost() {
        let mut p = pkt(10);
        p.encap(Encap::Vlan(7));
        assert_eq!(p.outer_vlan(), Some(7));
        p.encap(Encap::Gre {
            key: 1,
            src: Ip::UNSPECIFIED,
            dst: Ip::UNSPECIFIED,
        });
        assert_eq!(p.outer_vlan(), None);
    }

    #[test]
    fn tso_segment_count() {
        assert_eq!(pkt(0).wire_segments(), 1);
        assert_eq!(pkt(1448).wire_segments(), 1);
        assert_eq!(pkt(1449).wire_segments(), 2);
        assert_eq!(pkt(32_000).wire_segments(), 23);
    }

    #[test]
    fn wire_bytes_total_repeats_headers_per_segment() {
        // Single-segment packet: identical to wire_len.
        assert_eq!(pkt(100).wire_bytes_total(), pkt(100).wire_len() as u64);
        // 2896-byte super-segment = 2 segments, headers (54B) twice.
        let p = pkt(2 * 1448);
        assert_eq!(p.wire_bytes_total(), 2 * 1448 + 2 * 54);
        // Pure-ack packets still occupy one header's worth of wire.
        assert_eq!(pkt(0).wire_bytes_total(), 54);
    }

    #[test]
    fn packet_is_a_pointer_sized_handle() {
        use std::mem::size_of;
        assert_eq!(size_of::<Packet>(), 8);
        assert_eq!(size_of::<Option<Packet>>(), 8);
    }

    #[test]
    fn an_aggregate_is_twelve_bytes() {
        // The key of every measurement, decision and meter map entry.
        assert_eq!(std::mem::size_of::<crate::flow::FlowAggregate>(), 12);
    }

    #[test]
    fn clone_is_deep_and_eq_and_debug_go_by_body() {
        let mut a = pkt(100);
        a.encap(Encap::Vlan(5));
        let mut b = a.clone();
        assert_eq!(a, b);
        b.encap(Encap::Gre {
            key: 3,
            src: Ip::UNSPECIFIED,
            dst: Ip::UNSPECIFIED,
        });
        b.ecn = crate::headers::ecn::CE;
        assert_ne!(a, b);
        assert_eq!(a.encaps.len(), 1);
        assert_eq!(a.ecn, 0);
        // Two separately born packets with equal bodies are equal.
        assert_eq!(pkt(7), pkt(7));
        assert_ne!(pkt(7), pkt(8));
        let dbg = format!("{a:?}");
        for field in ["id: 1", "payload: 100", "Vlan(5)", "src_port: 40000"] {
            assert!(dbg.contains(field), "{field} missing from {dbg}");
        }
    }

    #[test]
    fn encap_stack_is_inline_and_lifo() {
        let mut s = EncapStack::new();
        assert!(s.is_empty());
        s.push(Encap::Vlan(5));
        s.push(Encap::Gre {
            key: 1,
            src: Ip::UNSPECIFIED,
            dst: Ip::UNSPECIFIED,
        });
        assert_eq!(s.len(), 2);
        let layers: Vec<_> = s.iter().collect();
        assert!(matches!(layers[0], Encap::Vlan(5)));
        assert!(matches!(layers[1], Encap::Gre { .. }));
        assert!(matches!(s.pop(), Some(Encap::Gre { .. })));
        assert_eq!(s.pop(), Some(Encap::Vlan(5)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    #[should_panic(expected = "encap depth")]
    fn encap_stack_overflow_panics() {
        let mut p = pkt(0);
        p.encap(Encap::Vlan(1));
        p.encap(Encap::Vlan(2));
        p.encap(Encap::Vlan(3));
    }

    #[test]
    fn ecn_codepoint_rides_the_dscp_byte() {
        use crate::headers::ecn;
        let mut p = pkt(64);
        p.ecn = ecn::CE;
        let bytes = p.encode_wire(Mac::local(1), Mac::local(2));
        // Inner IPv4 header starts right after the 14-byte Ethernet header;
        // DSCP/ECN is its second byte.
        assert_eq!(bytes[EthernetHeader::LEN + 1], ecn::CE);
        // And on the *outer* header of an encapsulated packet.
        p.encap(Encap::Vxlan {
            vni: 3,
            src: Ip::new(172, 16, 0, 1),
            dst: Ip::new(172, 16, 0, 2),
        });
        let bytes = p.encode_wire(Mac::local(1), Mac::local(2));
        assert_eq!(bytes[EthernetHeader::LEN + 1], ecn::CE);
    }

    #[test]
    fn sack_blocks_cap_at_three_and_reject_empty() {
        let mut s = SackBlocks::EMPTY;
        assert!(s.is_empty());
        s.push(10, 10); // empty range ignored
        assert!(s.is_empty());
        s.push(10, 20);
        s.push(30, 40);
        s.push(50, 60);
        s.push(70, 80); // beyond three: dropped
        assert_eq!(s.len(), 3);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![(10, 20), (30, 40), (50, 60)]);
    }

    #[test]
    fn wire_bytes_match_wire_len_plain() {
        let p = pkt(64);
        let bytes = p.encode_wire(Mac::local(1), Mac::local(2));
        assert_eq!(bytes.len() as u32, p.wire_len());
        let key = Packet::decode_wire(TenantId(3), &bytes).unwrap();
        assert_eq!(key, flow());
    }

    #[test]
    fn wire_bytes_match_wire_len_vxlan() {
        let mut p = pkt(64);
        p.encap(Encap::Vxlan {
            vni: 3,
            src: Ip::new(172, 16, 0, 1),
            dst: Ip::new(172, 16, 0, 2),
        });
        let bytes = p.encode_wire(Mac::local(1), Mac::local(2));
        assert_eq!(bytes.len() as u32, p.wire_len());
    }

    #[test]
    fn wire_bytes_match_wire_len_vlan_gre() {
        // The hardware path: VLAN to the ToR, then ToR swaps VLAN for GRE.
        let mut p = pkt(64);
        p.encap(Encap::Gre {
            key: 3,
            src: Ip::new(172, 31, 0, 1),
            dst: Ip::new(172, 31, 1, 1),
        });
        let bytes = p.encode_wire(Mac::local(1), Mac::local(2));
        // GRE carries the inner IP without an inner Ethernet on the real
        // wire; the omitted inner Ethernet (-14) cancels the emitted outer
        // Ethernet (+14), so the byte count matches wire_len() exactly.
        assert_eq!(bytes.len() as u32, p.wire_len());
    }
}
