//! The data-center fabric core.
//!
//! FasTrak leaves the fabric unchanged (§1: "the network fabric core
//! remains unchanged"); packets between ToRs are routed on provider
//! addresses (GRE outer = destination ToR, VXLAN outer = destination
//! server, whose /16 identifies its rack's ToR). The core is modelled as a
//! non-blocking crossbar with a fixed transit latency — the paper's
//! evaluation is single-rack, so the fabric only matters for the multi-rack
//! controller tests.

use fastrak_net::addr::Ip;
use fastrak_net::event::{Event, NetCtx};
use fastrak_net::packet::{Encap, Packet};
use fastrak_sim::kernel::{Api, Node, NodeId};
use fastrak_sim::time::SimDuration;
use fastrak_sim::FxHashMap;

/// Fabric statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricStats {
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames dropped for lack of a route.
    pub no_route: u64,
}

/// The non-blocking fabric core node.
#[derive(Clone)]
pub struct Fabric {
    name: String,
    /// Transit latency across the core.
    pub latency: SimDuration,
    /// Provider IP (ToR or server) → (node, ingress port).
    routes: FxHashMap<Ip, (NodeId, usize)>,
    /// Rack prefix routes: (octet0, octet1, octet2) → (node, port); lets a
    /// /24 of servers route to their ToR without per-server entries.
    prefix_routes: FxHashMap<(u8, u8, u8), (NodeId, usize)>,
    /// Public counters.
    pub stats: FabricStats,
}

impl Fabric {
    /// A fabric core with the given transit latency.
    pub fn new(name: impl Into<String>, latency: SimDuration) -> Fabric {
        Fabric {
            name: name.into(),
            latency,
            routes: FxHashMap::default(),
            prefix_routes: FxHashMap::default(),
            stats: FabricStats::default(),
        }
    }

    /// Add a host route for a provider IP.
    pub fn add_route(&mut self, ip: Ip, node: NodeId, port: usize) {
        self.routes.insert(ip, (node, port));
    }

    /// Add a /24 prefix route.
    pub fn add_prefix_route(&mut self, a: u8, b: u8, c: u8, node: NodeId, port: usize) {
        self.prefix_routes.insert((a, b, c), (node, port));
    }

    fn route(&self, ip: Ip) -> Option<(NodeId, usize)> {
        if let Some(&r) = self.routes.get(&ip) {
            return Some(r);
        }
        let o = ip.octets();
        self.prefix_routes.get(&(o[0], o[1], o[2])).copied()
    }

    fn dst_of(pkt: &Packet) -> Option<Ip> {
        match pkt.outer() {
            Some(Encap::Gre { dst, .. }) => Some(*dst),
            Some(Encap::Vxlan { dst, .. }) => Some(*dst),
            // Untunneled traffic never crosses the core (no tenant context).
            _ => None,
        }
    }
}

impl Node<Event, NetCtx> for Fabric {
    fn on_event(&mut self, ev: Event, api: &mut Api<'_, Event, NetCtx>) {
        let Event::Frame { pkt, .. } = ev else {
            return;
        };
        let Some(dst) = Self::dst_of(&pkt) else {
            self.stats.no_route += 1;
            return;
        };
        match self.route(dst) {
            Some((node, port)) => {
                self.stats.forwarded += 1;
                api.send(node, self.latency, Event::Frame { port, pkt });
            }
            None => {
                self.stats.no_route += 1;
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn fork(&self) -> Option<Self> {
        Some(self.clone())
    }
}
