//! Transport protocols and the classic 5-tuple flow key.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;
use std::str::FromStr;

use pam_types::{FlowId, PamError};
use serde::{Deserialize, Serialize};

use crate::ipv4::Ipv4Packet;

/// The transport protocol carried by an IPv4 packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IpProtocol {
    /// TCP (protocol number 6).
    Tcp,
    /// UDP (protocol number 17).
    Udp,
    /// ICMP (protocol number 1) — carried but not interpreted.
    Icmp,
    /// Any other protocol, kept verbatim.
    Other(u8),
}

impl IpProtocol {
    /// The on-wire protocol number.
    pub const fn number(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }

    /// Parses an on-wire protocol number.
    pub const fn from_number(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }

    /// True for TCP or UDP, the protocols that carry ports.
    pub const fn has_ports(self) -> bool {
        matches!(self, IpProtocol::Tcp | IpProtocol::Udp)
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Tcp => write!(f, "TCP"),
            IpProtocol::Udp => write!(f, "UDP"),
            IpProtocol::Icmp => write!(f, "ICMP"),
            IpProtocol::Other(v) => write!(f, "proto-{v}"),
        }
    }
}

impl FromStr for IpProtocol {
    type Err = PamError;

    /// Parses exactly what [`IpProtocol`]'s `Display` prints.
    fn from_str(text: &str) -> Result<Self, PamError> {
        match text {
            "TCP" => Ok(IpProtocol::Tcp),
            "UDP" => Ok(IpProtocol::Udp),
            "ICMP" => Ok(IpProtocol::Icmp),
            _ => text
                .strip_prefix("proto-")
                .and_then(parse_canonical_decimal)
                .map(IpProtocol::Other)
                .ok_or_else(|| PamError::malformed("protocol", "not a protocol name")),
        }
    }
}

/// Parses a decimal number written the way `Display` writes one: ASCII
/// digits, no sign, no leading zero. Anything else is `None`, so that a
/// parse followed by a print reproduces the text byte for byte.
pub fn parse_canonical_decimal<T: FromStr>(text: &str) -> Option<T> {
    let canonical = !text.is_empty()
        && text.bytes().all(|b| b.is_ascii_digit())
        && (text == "0" || !text.starts_with('0'));
    if canonical {
        text.parse().ok()
    } else {
        None
    }
}

/// The classic 5-tuple identifying a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port (0 for port-less protocols).
    pub src_port: u16,
    /// Destination transport port (0 for port-less protocols).
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: IpProtocol,
}

impl FiveTuple {
    /// Builds a TCP 5-tuple.
    pub fn tcp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: IpProtocol::Tcp,
        }
    }

    /// Builds a UDP 5-tuple.
    pub fn udp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: IpProtocol::Udp,
        }
    }

    /// Extracts the 5-tuple from an IPv4 packet (ports are read from the
    /// first four payload bytes for TCP/UDP, zero otherwise).
    pub fn from_ipv4<T: AsRef<[u8]>>(packet: &Ipv4Packet<T>) -> Result<Self, PamError> {
        let protocol = packet.protocol();
        let (src_port, dst_port) = if protocol.has_ports() {
            let payload = packet.payload();
            if payload.len() < 4 {
                return Err(PamError::malformed(
                    "transport",
                    "payload too short to contain ports",
                ));
            }
            (
                u16::from_be_bytes([payload[0], payload[1]]),
                u16::from_be_bytes([payload[2], payload[3]]),
            )
        } else {
            (0, 0)
        };
        Ok(FiveTuple {
            src_ip: packet.src_addr(),
            dst_ip: packet.dst_addr(),
            src_port,
            dst_port,
            protocol,
        })
    }

    /// The same connection seen from the opposite direction.
    pub fn reversed(self) -> Self {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// A stable 64-bit hash of the tuple, used as the [`FlowId`] and for
    /// consistent-hash load balancing. Uses the FNV-1a construction so the
    /// value is identical across runs and platforms (unlike `DefaultHasher`).
    pub fn stable_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut feed = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        };
        for b in self.src_ip.octets() {
            feed(b);
        }
        for b in self.dst_ip.octets() {
            feed(b);
        }
        for b in self.src_port.to_be_bytes() {
            feed(b);
        }
        for b in self.dst_port.to_be_bytes() {
            feed(b);
        }
        feed(self.protocol.number());
        h
    }

    /// A direction-agnostic hash: both directions of a connection map to the
    /// same value. Stateful vNFs (NAT, load balancer) key their tables this way.
    pub fn bidirectional_hash(&self) -> u64 {
        let fwd = self.stable_hash();
        let rev = self.reversed().stable_hash();
        fwd ^ rev
    }

    /// The flow identifier derived from the stable hash.
    pub fn flow_id(&self) -> FlowId {
        FlowId::new(self.stable_hash())
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.protocol, self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

impl FromStr for FiveTuple {
    type Err = PamError;

    /// Parses exactly what [`FiveTuple`]'s `Display` prints
    /// (`"TCP 10.0.0.1:12345 -> 192.168.1.1:443"`), and nothing else: the
    /// parsed tuple prints back to the same text.
    fn from_str(text: &str) -> Result<Self, PamError> {
        let malformed = || PamError::malformed("5-tuple", "not a printed 5-tuple");
        let (protocol, endpoints) = text.split_once(' ').ok_or_else(malformed)?;
        let (src, dst) = endpoints.split_once(" -> ").ok_or_else(malformed)?;
        let endpoint = |text: &str| -> Option<(Ipv4Addr, u16)> {
            let (ip, port) = text.split_once(':')?;
            Some((ip.parse().ok()?, parse_canonical_decimal(port)?))
        };
        let (src_ip, src_port) = endpoint(src).ok_or_else(malformed)?;
        let (dst_ip, dst_port) = endpoint(dst).ok_or_else(malformed)?;
        Ok(FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: protocol.parse()?,
        })
    }
}

/// Hashes an arbitrary value with FNV-1a; used by modules that need a stable
/// hash of something other than a 5-tuple (e.g. backend names in the load
/// balancer's consistent-hash ring).
pub fn stable_hash_bytes(bytes: &[u8]) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    bytes.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{PacketBuilder, TransportKind};
    use std::collections::HashSet;

    fn tuple() -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            12345,
            Ipv4Addr::new(192, 168, 1, 1),
            443,
        )
    }

    #[test]
    fn protocol_numbers_round_trip() {
        for p in [
            IpProtocol::Tcp,
            IpProtocol::Udp,
            IpProtocol::Icmp,
            IpProtocol::Other(89),
        ] {
            assert_eq!(IpProtocol::from_number(p.number()), p);
        }
        assert!(IpProtocol::Tcp.has_ports());
        assert!(IpProtocol::Udp.has_ports());
        assert!(!IpProtocol::Icmp.has_ports());
        assert_eq!(IpProtocol::Other(89).to_string(), "proto-89");
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let t = tuple();
        let r = t.reversed();
        assert_eq!(r.src_ip, t.dst_ip);
        assert_eq!(r.dst_port, t.src_port);
        assert_eq!(r.reversed(), t);
    }

    #[test]
    fn stable_hash_is_deterministic_and_discriminating() {
        let t = tuple();
        assert_eq!(t.stable_hash(), t.stable_hash());
        let mut other = t;
        other.src_port = 12346;
        assert_ne!(t.stable_hash(), other.stable_hash());
        assert_eq!(t.flow_id(), FlowId::new(t.stable_hash()));
    }

    #[test]
    fn bidirectional_hash_matches_both_directions() {
        let t = tuple();
        assert_eq!(t.bidirectional_hash(), t.reversed().bidirectional_hash());
        assert_ne!(t.stable_hash(), t.reversed().stable_hash());
    }

    #[test]
    fn hash_distribution_is_reasonable() {
        // 1000 distinct tuples should produce (nearly) 1000 distinct hashes.
        let mut hashes = HashSet::new();
        for i in 0..1000u32 {
            let t = FiveTuple::udp(
                Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
                1000 + (i % 50) as u16,
                Ipv4Addr::new(192, 168, 0, 1),
                53,
            );
            hashes.insert(t.stable_hash());
        }
        assert!(hashes.len() >= 999);
    }

    #[test]
    fn extraction_from_built_packet() {
        let t = tuple();
        let bytes = PacketBuilder::new()
            .five_tuple(t)
            .transport(TransportKind::Tcp)
            .total_len(128)
            .build();
        let eth = crate::EthernetFrame::new_checked(&bytes[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(FiveTuple::from_ipv4(&ip).unwrap(), t);
    }

    #[test]
    fn extraction_rejects_truncated_transport() {
        // An IPv4 packet claiming UDP but with a 2-byte payload.
        let repr = crate::Ipv4Repr {
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            protocol: IpProtocol::Udp,
            payload_len: 2,
            ttl: 64,
            dscp: 0,
        };
        let mut packet = Ipv4Packet::new_unchecked(vec![0u8; repr.total_len()]);
        repr.emit(&mut packet);
        let packet = Ipv4Packet::new_checked(packet.into_inner()).unwrap();
        assert!(FiveTuple::from_ipv4(&packet).is_err());
    }

    #[test]
    fn icmp_tuple_has_zero_ports() {
        let repr = crate::Ipv4Repr {
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            protocol: IpProtocol::Icmp,
            payload_len: 8,
            ttl: 64,
            dscp: 0,
        };
        let mut packet = Ipv4Packet::new_unchecked(vec![0u8; repr.total_len()]);
        repr.emit(&mut packet);
        let t = FiveTuple::from_ipv4(&packet).unwrap();
        assert_eq!(t.src_port, 0);
        assert_eq!(t.dst_port, 0);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(tuple().to_string(), "TCP 10.0.0.1:12345 -> 192.168.1.1:443");
    }

    #[test]
    fn printed_tuples_parse_back_exactly() {
        for tuple in [
            tuple(),
            FiveTuple::udp(Ipv4Addr::new(0, 0, 0, 0), 0, Ipv4Addr::BROADCAST, 65535),
            FiveTuple {
                protocol: IpProtocol::Icmp,
                ..tuple()
            },
            FiveTuple {
                protocol: IpProtocol::Other(6),
                ..tuple()
            },
        ] {
            let text = tuple.to_string();
            let parsed: FiveTuple = text.parse().unwrap();
            assert_eq!(parsed, tuple);
            assert_eq!(parsed.to_string(), text);
        }
        for bad in [
            "",
            "TCP",
            "TCP 10.0.0.1:1 10.0.0.2:2",
            "TCP 10.0.0.1:+1 -> 10.0.0.2:2",
            "TCP 10.0.0.1:01 -> 10.0.0.2:2",
            "TCP 10.0.0.1:65536 -> 10.0.0.2:2",
            "TCP 10.0.0.1 -> 10.0.0.2:2",
            "TCP 10.0.0.256:1 -> 10.0.0.2:2",
            "tcp 10.0.0.1:1 -> 10.0.0.2:2",
            "proto-x 10.0.0.1:1 -> 10.0.0.2:2",
            "proto-256 10.0.0.1:1 -> 10.0.0.2:2",
            "TCP 10.0.0.1:1 -> 10.0.0.2:2 ",
        ] {
            assert!(bad.parse::<FiveTuple>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn stable_hash_bytes_is_stable() {
        assert_eq!(
            stable_hash_bytes(b"backend-1"),
            stable_hash_bytes(b"backend-1")
        );
        assert_ne!(
            stable_hash_bytes(b"backend-1"),
            stable_hash_bytes(b"backend-2")
        );
    }
}
