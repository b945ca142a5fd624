//! Dumbbell topology builder — the paper's evaluation setup: many sources
//! share one forward bottleneck; the reverse (ACK) path is uncongested.

use crate::engine::World;
use crate::link::{LinkConfig, QueueKind};
use crate::packet::{LinkId, Route};

/// Bottleneck propagation delay (seconds). With [`ACCESS_DELAY`] each way
/// the propagation RTT is the paper's 40 ms.
const BOTTLENECK_DELAY: f64 = 0.010;

/// Per-flow access-link bandwidth (bytes/s) — fast enough not to be the
/// bottleneck.
const ACCESS_BW: f64 = 12_500_000.0;

/// Per-flow access-link propagation delay (seconds).
const ACCESS_DELAY: f64 = 0.005;

/// Dumbbell parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DumbbellConfig {
    /// Bottleneck bandwidth (bytes/s). The paper's T1/T2 use 800 Kb/s
    /// = 100 000 B/s.
    pub bottleneck_bw: f64,
    /// Bottleneck queue capacity (packets).
    pub queue_packets: usize,
    /// Bottleneck queueing discipline (the paper uses drop-tail; RED is
    /// provided for the random-loss ablation).
    pub queue_kind: QueueKind,
    /// Random (non-congestive) per-packet loss on the bottleneck.
    pub loss_rate: f64,
}

impl DumbbellConfig {
    /// The paper's base setup: 800 Kb/s bottleneck, 40 ms propagation RTT
    /// (10 ms bottleneck + 5 ms access each way). The drop-tail queue is
    /// deep enough that queueing delay dominates the RTT when 20 flows
    /// compete — the regime of the paper's own slow-link runs, where the
    /// AIMD slope `S = pkt/srtt²` is small and draining phases last long
    /// enough that buffer requirements span many packets.
    pub fn paper_base() -> Self {
        DumbbellConfig {
            bottleneck_bw: 100_000.0,
            queue_packets: 150,
            queue_kind: QueueKind::DropTail,
            loss_rate: 0.0,
        }
    }
}

/// A dumbbell under construction: the shared bottleneck plus per-flow
/// access links created on demand.
pub struct Dumbbell {
    /// The world being built.
    pub world: World,
    cfg: DumbbellConfig,
    fwd_bottleneck: LinkId,
    rev_bottleneck: LinkId,
}

impl Dumbbell {
    /// Create the shared links in a fresh world whose link table has room
    /// for `links` links, these two included: a caller that knows how many
    /// access links and legs it will add sizes the table once.
    pub fn new(cfg: DumbbellConfig, seed: u64, links: usize) -> Self {
        let mut world = World::new(seed);
        world.reserve_links(links);
        let fwd_bottleneck = world.add_link(LinkConfig {
            bandwidth: cfg.bottleneck_bw,
            delay: BOTTLENECK_DELAY,
            queue_packets: cfg.queue_packets,
            queue_kind: cfg.queue_kind,
            loss_rate: cfg.loss_rate,
        });
        // Reverse direction carries only small ACKs; keep it uncongested
        // but with the same propagation delay so RTTs are symmetric.
        let rev_bottleneck = world.add_link(LinkConfig {
            bandwidth: cfg.bottleneck_bw.max(12_500_000.0),
            delay: BOTTLENECK_DELAY,
            queue_packets: 10_000,
            ..LinkConfig::default()
        });
        Dumbbell {
            world,
            cfg,
            fwd_bottleneck,
            rev_bottleneck,
        }
    }

    /// Add a second, parallel forward bottleneck — the other leg of a
    /// *bonded* pair (two variable paths feeding one session, per the
    /// bonded-cellular designs the hostile corpus models). Same
    /// configuration as the primary bottleneck; callers attach an
    /// independent trace schedule to each leg. Must be called before any
    /// per-flow routes so the link numbering of non-bonded scenarios is
    /// untouched. Returns the new leg's link id.
    pub fn add_bond_path(&mut self) -> LinkId {
        self.world.add_link(LinkConfig {
            bandwidth: self.cfg.bottleneck_bw,
            delay: BOTTLENECK_DELAY,
            queue_packets: self.cfg.queue_packets,
            queue_kind: self.cfg.queue_kind,
            loss_rate: self.cfg.loss_rate,
        })
    }

    /// The shared forward bottleneck link.
    pub fn bottleneck(&self) -> LinkId {
        self.fwd_bottleneck
    }

    /// The shared reverse (ACK-path) bottleneck link.
    pub fn reverse_bottleneck(&self) -> LinkId {
        self.rev_bottleneck
    }

    /// Configuration used.
    pub fn config(&self) -> DumbbellConfig {
        self.cfg
    }

    /// Create a fresh access link and return the forward route
    /// `[access, bottleneck]` for one flow.
    pub fn forward_route(&mut self) -> Route {
        let access = self.world.add_link(LinkConfig {
            bandwidth: ACCESS_BW,
            delay: ACCESS_DELAY,
            queue_packets: 10_000,
            ..LinkConfig::default()
        });
        Route::from([access, self.fwd_bottleneck])
    }

    /// Create a fresh access link and return the route `[access]` alone —
    /// for a flow whose bottleneck hop is decided per-packet downstream
    /// (the bonded-path relay): the source sends to the relay over its
    /// access link, and the relay picks which bonded leg each packet
    /// takes.
    pub fn access_route(&mut self) -> Route {
        let access = self.world.add_link(LinkConfig {
            bandwidth: ACCESS_BW,
            delay: ACCESS_DELAY,
            queue_packets: 10_000,
            ..LinkConfig::default()
        });
        Route::from([access])
    }

    /// Reverse route `[rev_bottleneck, rev_access]` for one flow's ACKs.
    pub fn reverse_route(&mut self) -> Route {
        let access = self.world.add_link(LinkConfig {
            bandwidth: ACCESS_BW,
            delay: ACCESS_DELAY,
            queue_packets: 10_000,
            ..LinkConfig::default()
        });
        Route::from([self.rev_bottleneck, access])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_base_has_40ms_rtt() {
        let rtt = 2.0 * (BOTTLENECK_DELAY + 2.0 * ACCESS_DELAY);
        assert!((rtt - 0.040).abs() < 1e-12);
        assert_eq!(DumbbellConfig::paper_base().bottleneck_bw, 100_000.0); // 800 Kb/s
    }

    #[test]
    fn routes_share_the_bottleneck() {
        let mut d = Dumbbell::new(DumbbellConfig::paper_base(), 1, 4);
        let r1 = d.forward_route();
        let r2 = d.forward_route();
        assert_ne!(r1[0], r2[0], "distinct access links");
        assert_eq!(r1[1], r2[1], "shared bottleneck");
        assert_eq!(usize::from(r1[1]), d.bottleneck());
    }

    #[test]
    fn reverse_routes_avoid_forward_bottleneck() {
        let mut d = Dumbbell::new(DumbbellConfig::paper_base(), 1, 4);
        let f = d.forward_route();
        let r = d.reverse_route();
        assert!(!r.contains(&f[1]));
    }
}
