//! Byte-accurate wire header codecs.
//!
//! The simulator's hot path moves structured metadata, but the encapsulation
//! formats FasTrak relies on — 802.1Q tagging on the server↔ToR hop, GRE
//! with the tenant ID in the key field (paper §4.1.3), and VXLAN for the
//! software tunnel path (§2.2) — are encoded and decoded here exactly as on
//! the wire. Integration tests encode each experiment's encap stack through
//! these codecs to prove size accounting and field placement are faithful.

use crate::wire::{Buf, BytesMut};

use crate::addr::{Ip, Mac};
use crate::checksum::{fold, internet_checksum, sum_words};

/// Codec error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Not enough bytes to decode the header.
    Truncated,
    /// A field holds an unsupported or malformed value.
    Malformed(&'static str),
    /// IPv4 header checksum did not verify.
    BadChecksum,
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::Truncated => write!(f, "truncated header"),
            HeaderError::Malformed(what) => write!(f, "malformed field: {what}"),
            HeaderError::BadChecksum => write!(f, "bad IPv4 header checksum"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// EtherType values used in this system.
pub mod ethertype {
    /// IPv4.
    pub const IPV4: u16 = 0x0800;
    /// 802.1Q VLAN tag.
    pub const VLAN: u16 = 0x8100;
}

/// Ethernet II header, with an optional single 802.1Q tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: Mac,
    /// Source MAC.
    pub src: Mac,
    /// Optional 802.1Q VLAN ID (PCP/DEI encoded as zero).
    pub vlan: Option<u16>,
    /// Payload EtherType.
    pub ethertype: u16,
}

impl EthernetHeader {
    /// Untagged header length.
    pub const LEN: usize = 14;
    /// Tagged header length.
    pub const LEN_TAGGED: usize = 18;

    /// Encoded length of this header.
    #[allow(clippy::len_without_is_empty)] // a header is never "empty"
    pub fn len(&self) -> usize {
        if self.vlan.is_some() {
            Self::LEN_TAGGED
        } else {
            Self::LEN
        }
    }

    /// Append to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.dst.0);
        buf.put_slice(&self.src.0);
        if let Some(vid) = self.vlan {
            buf.put_u16(ethertype::VLAN);
            buf.put_u16(vid & 0x0fff);
        }
        buf.put_u16(self.ethertype);
    }

    /// Decode from the front of `buf`, consuming the header bytes.
    pub fn decode(buf: &mut &[u8]) -> Result<EthernetHeader, HeaderError> {
        if buf.len() < Self::LEN {
            return Err(HeaderError::Truncated);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        buf.copy_to_slice(&mut dst);
        buf.copy_to_slice(&mut src);
        let mut ethertype = buf.get_u16();
        let mut vlan = None;
        if ethertype == ethertype::VLAN {
            if buf.len() < 4 {
                return Err(HeaderError::Truncated);
            }
            vlan = Some(buf.get_u16() & 0x0fff);
            ethertype = buf.get_u16();
        }
        Ok(EthernetHeader {
            dst: Mac(dst),
            src: Mac(src),
            vlan,
            ethertype,
        })
    }
}

/// IPv4 header (no options), with a correct internet checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ip,
    /// Destination address.
    pub dst: Ip,
    /// Payload protocol number (6 = TCP, 17 = UDP, 47 = GRE).
    pub protocol: u8,
    /// Total length (header + payload) in bytes.
    pub total_len: u16,
    /// Differentiated services / ToS byte (carries QoS class).
    pub dscp_ecn: u8,
    /// Time to live.
    pub ttl: u8,
    /// Identification field.
    pub ident: u16,
}

impl Ipv4Header {
    /// Header length (no options).
    pub const LEN: usize = 20;
    /// GRE protocol number.
    pub const PROTO_GRE: u8 = 47;

    /// Append to `buf`, computing the checksum.
    pub fn encode(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(self.dscp_ecn);
        buf.put_u16(self.total_len);
        buf.put_u16(self.ident);
        buf.put_u16(0x4000); // DF, no fragments
        buf.put_u8(self.ttl);
        buf.put_u8(self.protocol);
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.src.octets());
        buf.put_slice(&self.dst.octets());
        let ck = internet_checksum(&buf[start..start + Self::LEN]);
        buf[start + 10..start + 12].copy_from_slice(&ck.to_be_bytes());
    }

    /// Decode from the front of `buf`, verifying version, IHL and checksum.
    pub fn decode(buf: &mut &[u8]) -> Result<Ipv4Header, HeaderError> {
        if buf.len() < Self::LEN {
            return Err(HeaderError::Truncated);
        }
        let raw = &buf[..Self::LEN];
        if raw[0] != 0x45 {
            return Err(HeaderError::Malformed("version/IHL"));
        }
        if fold(sum_words(raw)) != 0xffff {
            return Err(HeaderError::BadChecksum);
        }
        let h = Ipv4Header {
            dscp_ecn: raw[1],
            total_len: u16::from_be_bytes([raw[2], raw[3]]),
            ident: u16::from_be_bytes([raw[4], raw[5]]),
            ttl: raw[8],
            protocol: raw[9],
            src: Ip(u32::from_be_bytes([raw[12], raw[13], raw[14], raw[15]])),
            dst: Ip(u32::from_be_bytes([raw[16], raw[17], raw[18], raw[19]])),
        };
        buf.advance(Self::LEN);
        Ok(h)
    }
}

/// TCP header (no options in the base length; options length is carried so
/// sizes stay faithful when SACK/timestamps would be present).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flags byte (SYN/ACK/FIN/RST/PSH).
    pub flags: u8,
    /// Receive window.
    pub window: u16,
}

/// TCP flag bits.
pub mod tcp_flags {
    /// FIN.
    pub const FIN: u8 = 0x01;
    /// SYN.
    pub const SYN: u8 = 0x02;
    /// RST.
    pub const RST: u8 = 0x04;
    /// PSH.
    pub const PSH: u8 = 0x08;
    /// ACK.
    pub const ACK: u8 = 0x10;
    /// ECN-Echo (RFC 3168): receiver → sender congestion signal; on SYN /
    /// SYN|ACK it negotiates ECN capability.
    pub const ECE: u8 = 0x40;
    /// Congestion Window Reduced (RFC 3168): sender acknowledges an ECE.
    pub const CWR: u8 = 0x80;
}

/// ECN codepoints: the low two bits of the IPv4 DSCP/ECN byte (RFC 3168
/// §5). The upper six bits stay with the DSCP/QoS class.
pub mod ecn {
    /// Not ECN-capable transport.
    pub const NOT_ECT: u8 = 0b00;
    /// ECN-capable transport, codepoint 1.
    pub const ECT1: u8 = 0b01;
    /// ECN-capable transport, codepoint 0 (the one senders normally set).
    pub const ECT0: u8 = 0b10;
    /// Congestion experienced — set by a queue instead of dropping.
    pub const CE: u8 = 0b11;

    /// Is this codepoint ECN-capable (eligible for CE marking)?
    pub const fn is_ect(cp: u8) -> bool {
        cp & 0b11 != NOT_ECT
    }
}

impl TcpHeader {
    /// Base header length (no options).
    pub const LEN: usize = 20;

    /// Append to `buf` (checksum left zero: the simulator does not model
    /// payload bytes, and NICs offload TCP checksums anyway).
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8(0x50); // data offset 5 words
        buf.put_u8(self.flags);
        buf.put_u16(self.window);
        buf.put_u16(0); // checksum (offloaded)
        buf.put_u16(0); // urgent pointer
    }

    /// Decode from the front of `buf`.
    pub fn decode(buf: &mut &[u8]) -> Result<TcpHeader, HeaderError> {
        if buf.len() < Self::LEN {
            return Err(HeaderError::Truncated);
        }
        let h = TcpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: buf[13],
            window: u16::from_be_bytes([buf[14], buf[15]]),
        };
        if buf[12] >> 4 < 5 {
            return Err(HeaderError::Malformed("tcp data offset"));
        }
        buf.advance(Self::LEN);
        Ok(h)
    }
}

/// UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length (header + payload).
    pub length: u16,
}

impl UdpHeader {
    /// Header length.
    pub const LEN: usize = 8;
    /// IANA port for VXLAN.
    pub const VXLAN_PORT: u16 = 4789;

    /// Append to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(self.length);
        buf.put_u16(0); // checksum optional for IPv4
    }

    /// Decode from the front of `buf`.
    pub fn decode(buf: &mut &[u8]) -> Result<UdpHeader, HeaderError> {
        if buf.len() < Self::LEN {
            return Err(HeaderError::Truncated);
        }
        let h = UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            length: u16::from_be_bytes([buf[4], buf[5]]),
        };
        buf.advance(Self::LEN);
        Ok(h)
    }
}

/// GRE header with the key extension (RFC 2890). FasTrak reuses the 32-bit
/// key to carry the tenant ID (paper §4.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreHeader {
    /// The tenant ID carried in the key field.
    pub key: u32,
    /// Inner protocol EtherType (0x0800 for IPv4 payloads).
    pub protocol: u16,
}

impl GreHeader {
    /// Length with the key present (4 base + 4 key).
    pub const LEN: usize = 8;

    /// Append to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16(0x2000); // key present bit
        buf.put_u16(self.protocol);
        buf.put_u32(self.key);
    }

    /// Decode from the front of `buf`; requires the key-present bit.
    pub fn decode(buf: &mut &[u8]) -> Result<GreHeader, HeaderError> {
        if buf.len() < Self::LEN {
            return Err(HeaderError::Truncated);
        }
        let flags = u16::from_be_bytes([buf[0], buf[1]]);
        if flags & 0x2000 == 0 {
            return Err(HeaderError::Malformed("gre key absent"));
        }
        let h = GreHeader {
            protocol: u16::from_be_bytes([buf[2], buf[3]]),
            key: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
        };
        buf.advance(Self::LEN);
        Ok(h)
    }
}

/// VXLAN header (RFC 7348): 8 bytes carrying a 24-bit VNI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VxlanHeader {
    /// The 24-bit VXLAN network identifier (tenant ID).
    pub vni: u32,
}

impl VxlanHeader {
    /// Header length.
    pub const LEN: usize = 8;
    /// Total outer overhead of a VXLAN encap over inner Ethernet:
    /// outer ETH(14) + outer IP(20) + UDP(8) + VXLAN(8).
    pub const ENCAP_OVERHEAD: usize =
        EthernetHeader::LEN + Ipv4Header::LEN + UdpHeader::LEN + VxlanHeader::LEN;

    /// Append to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(0x08); // I flag: VNI valid
        buf.put_slice(&[0, 0, 0]);
        let v = self.vni & 0x00ff_ffff;
        buf.put_slice(&[(v >> 16) as u8, (v >> 8) as u8, v as u8]);
        buf.put_u8(0);
    }

    /// Decode from the front of `buf`; requires the I flag.
    pub fn decode(buf: &mut &[u8]) -> Result<VxlanHeader, HeaderError> {
        if buf.len() < Self::LEN {
            return Err(HeaderError::Truncated);
        }
        if buf[0] & 0x08 == 0 {
            return Err(HeaderError::Malformed("vxlan I flag"));
        }
        let vni = u32::from_be_bytes([0, buf[4], buf[5], buf[6]]);
        buf.advance(Self::LEN);
        Ok(VxlanHeader { vni })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_roundtrip_untagged() {
        let h = EthernetHeader {
            dst: Mac::local(1),
            src: Mac::local(2),
            vlan: None,
            ethertype: ethertype::IPV4,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), EthernetHeader::LEN);
        let mut slice = &buf[..];
        assert_eq!(EthernetHeader::decode(&mut slice).unwrap(), h);
        assert!(slice.is_empty());
    }

    #[test]
    fn ethernet_roundtrip_tagged() {
        let h = EthernetHeader {
            dst: Mac([0xff; 6]), // broadcast
            src: Mac::local(9),
            vlan: Some(100),
            ethertype: ethertype::IPV4,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), EthernetHeader::LEN_TAGGED);
        let mut slice = &buf[..];
        assert_eq!(EthernetHeader::decode(&mut slice).unwrap(), h);
    }

    #[test]
    fn ipv4_roundtrip_and_checksum() {
        let h = Ipv4Header {
            src: Ip::new(172, 16, 0, 1),
            dst: Ip::new(172, 16, 0, 2),
            protocol: 6,
            total_len: 1500,
            dscp_ecn: 0x10,
            ttl: 64,
            ident: 0xbeef,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut slice = &buf[..];
        assert_eq!(Ipv4Header::decode(&mut slice).unwrap(), h);
    }

    #[test]
    fn ipv4_corruption_detected() {
        let h = Ipv4Header {
            src: Ip::new(1, 2, 3, 4),
            dst: Ip::new(5, 6, 7, 8),
            protocol: 17,
            total_len: 100,
            dscp_ecn: 0,
            ttl: 64,
            ident: 1,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        buf[16] ^= 0xff; // corrupt dst
        let mut slice = &buf[..];
        assert_eq!(
            Ipv4Header::decode(&mut slice).unwrap_err(),
            HeaderError::BadChecksum
        );
    }

    #[test]
    fn tcp_roundtrip() {
        let h = TcpHeader {
            src_port: 40000,
            dst_port: 11211,
            seq: 0xdead_beef,
            ack: 0x0102_0304,
            flags: tcp_flags::ACK | tcp_flags::PSH,
            window: 65535,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), TcpHeader::LEN);
        let mut slice = &buf[..];
        assert_eq!(TcpHeader::decode(&mut slice).unwrap(), h);
    }

    #[test]
    fn udp_roundtrip() {
        let h = UdpHeader {
            src_port: 5000,
            dst_port: UdpHeader::VXLAN_PORT,
            length: 1000,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut slice = &buf[..];
        assert_eq!(UdpHeader::decode(&mut slice).unwrap(), h);
    }

    #[test]
    fn gre_roundtrip_carries_tenant_key() {
        let h = GreHeader {
            key: 0xffff_fffe,
            protocol: ethertype::IPV4,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), GreHeader::LEN);
        let mut slice = &buf[..];
        assert_eq!(GreHeader::decode(&mut slice).unwrap(), h);
    }

    #[test]
    fn gre_without_key_rejected() {
        let raw = [0u8, 0, 0x08, 0, 0, 0, 0, 0];
        let mut slice = &raw[..];
        assert!(matches!(
            GreHeader::decode(&mut slice),
            Err(HeaderError::Malformed(_))
        ));
    }

    #[test]
    fn vxlan_roundtrip_truncates_to_24_bits() {
        let h = VxlanHeader { vni: 0x0112_3456 };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut slice = &buf[..];
        assert_eq!(VxlanHeader::decode(&mut slice).unwrap().vni, 0x0012_3456);
    }

    #[test]
    fn truncated_inputs_error() {
        let short = [0u8; 3];
        let mut s = &short[..];
        assert_eq!(
            EthernetHeader::decode(&mut s).unwrap_err(),
            HeaderError::Truncated
        );
        let mut s = &short[..];
        assert_eq!(
            Ipv4Header::decode(&mut s).unwrap_err(),
            HeaderError::Truncated
        );
        let mut s = &short[..];
        assert_eq!(
            TcpHeader::decode(&mut s).unwrap_err(),
            HeaderError::Truncated
        );
        let mut s = &short[..];
        assert_eq!(
            GreHeader::decode(&mut s).unwrap_err(),
            HeaderError::Truncated
        );
    }

    #[test]
    fn vxlan_overhead_is_50_bytes() {
        assert_eq!(VxlanHeader::ENCAP_OVERHEAD, 50);
    }
}
