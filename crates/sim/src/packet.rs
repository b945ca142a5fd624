//! Simulated packets and their protocol payloads.

use laqa_rap::AckInfo;
use std::rc::Rc;

/// Agent identifier within a [`crate::engine::World`].
pub type AgentId = usize;
/// Link identifier within a [`crate::engine::World`].
pub type LinkId = usize;

/// An immutable, cheaply clonable route: the links a packet traverses.
///
/// Agents keep one `Route` per flow and stamp it onto every packet they
/// send. Backed by a shared `Rc<[LinkId]>`, so the per-packet cost is a
/// refcount bump instead of a fresh `Vec` allocation — in a long
/// campaign that removes one heap allocation and free per packet sent
/// (`crates/bench/tests/alloc_budget.rs` pins the per-packet zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route(Rc<[LinkId]>);

impl Route {
    /// The empty route (direct delivery to the destination agent).
    pub fn empty() -> Self {
        Route(Rc::from(&[][..]))
    }

    /// The links of the route, in traversal order.
    pub fn links(&self) -> &[LinkId] {
        &self.0
    }
}

impl Default for Route {
    fn default() -> Self {
        Route::empty()
    }
}

impl std::ops::Deref for Route {
    type Target = [LinkId];
    fn deref(&self) -> &[LinkId] {
        &self.0
    }
}

impl From<Vec<LinkId>> for Route {
    fn from(links: Vec<LinkId>) -> Self {
        Route(Rc::from(links))
    }
}

/// One allocation: the links go straight into the shared slice.
impl<const N: usize> From<[LinkId; N]> for Route {
    fn from(links: [LinkId; N]) -> Self {
        Route(Rc::from(links))
    }
}

impl From<&[LinkId]> for Route {
    fn from(links: &[LinkId]) -> Self {
        Route(Rc::from(links))
    }
}

impl FromIterator<LinkId> for Route {
    fn from_iter<I: IntoIterator<Item = LinkId>>(iter: I) -> Self {
        Route(iter.into_iter().collect())
    }
}

/// Protocol payload carried by a simulated packet. Header/payload bytes are
/// abstracted into `size` on the [`Packet`]; this enum carries the fields
/// the protocols actually read.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketKind {
    /// RAP data packet carrying one layered-video packet.
    RapData {
        /// RAP sequence number.
        seq: u64,
        /// Layer the payload belongs to.
        layer: u8,
        /// Active layer count at the server when sent (in-band signalling
        /// of add/drop, as the paper's server does).
        n_active: u8,
    },
    /// RAP acknowledgement.
    RapAck(AckInfo),
    /// TCP data segment.
    TcpData {
        /// Segment sequence number (in packets, not bytes).
        seq: u64,
        /// True when this is a retransmission (for stats only).
        retx: bool,
    },
    /// TCP cumulative acknowledgement.
    TcpAck {
        /// Next expected sequence (all below received).
        cum: u64,
        /// Highest out-of-order sequence seen (SACK-style hint that lets
        /// the sender avoid false retransmissions).
        high: u64,
    },
    /// Constant-bit-rate (unresponsive) traffic.
    Cbr,
}

/// A packet in flight through the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Flow number (for per-flow stats).
    pub flow: u32,
    /// Wire size in bytes (headers included).
    pub size: u32,
    /// Protocol payload.
    pub kind: PacketKind,
    /// Destination agent.
    pub dst: AgentId,
    /// Remaining route: links to traverse before reaching `dst`.
    pub route: Route,
    /// Index of the next link in `route`.
    pub hop: usize,
}

impl Packet {
    /// Next link to traverse, if any.
    pub fn next_link(&self) -> Option<LinkId> {
        self.route.get(self.hop).copied()
    }

    /// Advance to the following hop.
    pub fn advance_hop(&mut self) {
        self.hop += 1;
    }

    /// True when the packet has traversed its whole route.
    pub fn at_destination(&self) -> bool {
        self.hop >= self.route.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(route: Vec<LinkId>) -> Packet {
        Packet {
            flow: 0,
            size: 1000,
            kind: PacketKind::Cbr,
            dst: 5,
            route: route.into(),
            hop: 0,
        }
    }

    #[test]
    fn route_clone_shares_storage() {
        let r: Route = vec![1, 2, 3].into();
        let c = r.clone();
        assert_eq!(r, c);
        assert_eq!(c.links(), &[1, 2, 3]);
        assert!(
            std::ptr::eq(r.links(), c.links()),
            "clone is a refcount bump"
        );
        assert!(Route::empty().is_empty());
        assert_eq!(Route::default(), Route::empty());
    }

    #[test]
    fn route_traversal() {
        let mut p = pkt(vec![3, 7]);
        assert_eq!(p.next_link(), Some(3));
        assert!(!p.at_destination());
        p.advance_hop();
        assert_eq!(p.next_link(), Some(7));
        p.advance_hop();
        assert_eq!(p.next_link(), None);
        assert!(p.at_destination());
    }

    #[test]
    fn empty_route_is_at_destination() {
        let p = pkt(vec![]);
        assert!(p.at_destination());
    }
}
