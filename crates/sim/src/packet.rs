//! Simulated packets and their protocol payloads.

use laqa_rap::AckInfo;

/// Agent identifier within a [`crate::engine::World`].
pub type AgentId = usize;
/// Link identifier within a [`crate::engine::World`].
pub type LinkId = usize;

/// Most links one [`Route`] holds: the dumbbell's forward and reverse
/// routes take two, a bonded leg one.
pub const MAX_HOPS: usize = 3;

/// A route and how far along it a packet is: up to [`MAX_HOPS`] links,
/// each id below 2^16, and the index of the next one, in 8 bytes.
///
/// `Copy` and allocation-free: agents keep one `Route` per flow (its
/// cursor at the first link) and stamp it onto every packet they send, and
/// the engine moves the cursor as the packet takes each hop. Dereferences
/// to the whole route's link ids in traversal order, wherever the cursor
/// stands. Building one from more than [`MAX_HOPS`] links, or from a link
/// id past `u16::MAX`, panics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Route {
    links: [u16; MAX_HOPS],
    len: u8,
    /// Links already taken: `links[hop]` is the next one.
    hop: u8,
}

impl Route {
    /// The route over `links`, in traversal order, its cursor at the first.
    fn new(links: &[LinkId]) -> Self {
        assert!(
            links.len() <= MAX_HOPS,
            "a route holds at most {MAX_HOPS} links, got {links:?}"
        );
        let mut route = Route {
            len: links.len() as u8,
            ..Route::default()
        };
        for (slot, &link) in route.links.iter_mut().zip(links) {
            *slot = u16::try_from(link)
                .unwrap_or_else(|_| panic!("link id {link} does not fit a route's u16"));
        }
        route
    }

    /// Next link to traverse, if any.
    #[inline]
    fn next_link(&self) -> Option<LinkId> {
        self.get(usize::from(self.hop)).map(|&l| usize::from(l))
    }
}

const _: () = assert!(std::mem::size_of::<Route>() == 8);

impl std::ops::Deref for Route {
    type Target = [u16];
    fn deref(&self) -> &[u16] {
        &self.links[..usize::from(self.len)]
    }
}

impl From<Vec<LinkId>> for Route {
    fn from(links: Vec<LinkId>) -> Self {
        Route::new(&links)
    }
}

impl<const N: usize> From<[LinkId; N]> for Route {
    fn from(links: [LinkId; N]) -> Self {
        Route::new(&links)
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
    /// The links to traverse before reaching `dst`, and the next one.
    pub route: Route,
}

impl Packet {
    /// Next link to traverse, if any.
    #[inline]
    pub fn next_link(&self) -> Option<LinkId> {
        self.route.next_link()
    }

    /// Advance to the following hop.
    #[inline]
    pub fn advance_hop(&mut self) {
        self.route.hop += 1;
    }

    /// True when the packet has traversed its whole route.
    #[inline]
    pub fn at_destination(&self) -> bool {
        self.route.hop >= self.route.len
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
        }
    }

    #[test]
    fn route_conversions_keep_traversal_order() {
        let from_vec = Route::from(vec![4, 0, 65_535]);
        let from_array = Route::from([4, 0, 65_535]);
        assert_eq!(from_vec, from_array);
        assert_eq!(*from_vec, [4, 0, 65_535]);
        assert_eq!(*Route::from([9]), [9]);
        assert!(Route::from(Vec::new()).is_empty());
        assert_eq!(Route::default(), Route::from([]));
        // A copy is a new cursor: moving one leaves the other in place.
        let mut p = pkt(vec![2, 1]);
        let kept = p.route;
        p.advance_hop();
        assert_eq!(kept.next_link(), Some(2));
        assert_eq!(p.next_link(), Some(1));
        assert_eq!(*p.route, [2, 1], "the whole route, wherever the cursor is");
    }

    #[test]
    #[should_panic(expected = "at most 3 links")]
    fn route_refuses_a_fourth_hop() {
        let _ = Route::from([1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "link id 65536 does not fit")]
    fn route_refuses_a_link_id_past_u16() {
        let _ = Route::from(vec![0, 65_536]);
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
