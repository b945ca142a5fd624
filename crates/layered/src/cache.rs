//! Proxy caching of layered streams — the paper's closing future-work item
//! (§7): "quality adaptation provides a perfect opportunity for proxy
//! caching of multimedia streams … missing pieces that are likely to be
//! needed would be pre-fetched in a demand-driven fashion."
//!
//! Layered encoding makes a stream cache *partial by construction*: a
//! proxy that saw a session at 3 layers holds layers 0–2 and can replay
//! them locally, fetching only the enhancements a better-connected client
//! asks for. This module models that proxy state:
//!
//! * [`LayerCache`] — per-layer presence of media packets, hit/miss
//!   accounting, and the coverage summary ("which quality can be served
//!   locally up to time t");
//! * [`PrefetchPlanner`] — the demand-driven policy: given what recent
//!   sessions played, pre-fetch holes in the lowest uncached layer first
//!   (the same lowest-first discipline as the §2.4 buffer allocation, and
//!   for the same reason: lower layers are useful to every future client,
//!   higher ones only to the best-connected).

/// Identifies one packet of one layer within a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId {
    /// Layer index (0 = base).
    pub layer: u8,
    /// Zero-based packet sequence number within the layer.
    pub seq: u64,
}

/// Per-layer packet presence for one cached stream.
#[derive(Debug, Clone, Default)]
pub struct LayerCache {
    /// `present[layer][seq] == true` ⇔ the packet is cached. Vectors grow
    /// on demand.
    present: Vec<Vec<bool>>,
    hits: u64,
    misses: u64,
    stored: u64,
}

impl LayerCache {
    /// Empty cache for up to `n_layers` layers.
    pub fn new(n_layers: usize) -> Self {
        LayerCache {
            present: vec![Vec::new(); n_layers],
            hits: 0,
            misses: 0,
            stored: 0,
        }
    }

    /// Number of layers the cache tracks.
    pub fn n_layers(&self) -> usize {
        self.present.len()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Packets stored so far.
    pub fn stored(&self) -> u64 {
        self.stored
    }

    /// Store a packet (idempotent).
    pub fn insert(&mut self, id: PacketId) {
        let Some(layer) = self.present.get_mut(id.layer as usize) else {
            return;
        };
        let idx = id.seq as usize;
        if layer.len() <= idx {
            layer.resize(idx + 1, false);
        }
        if !layer[idx] {
            layer[idx] = true;
            self.stored += 1;
        }
    }

    /// Whether a packet is cached (no accounting).
    pub fn contains(&self, id: PacketId) -> bool {
        self.present
            .get(id.layer as usize)
            .and_then(|l| l.get(id.seq as usize))
            .copied()
            .unwrap_or(false)
    }

    /// Serve a request: returns `true` on a hit; counts hit/miss.
    pub fn request(&mut self, id: PacketId) -> bool {
        let hit = self.contains(id);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// The longest contiguous prefix of `layer` that is fully cached
    /// (packets `0..returned` all present).
    pub fn contiguous_prefix(&self, layer: usize) -> u64 {
        match self.present.get(layer) {
            None => 0,
            Some(l) => l.iter().take_while(|&&p| p).count() as u64,
        }
    }

    /// Holes (missing sequences below `horizon`) in `layer`.
    pub fn holes(&self, layer: usize, horizon: u64) -> Vec<u64> {
        let empty = Vec::new();
        let l = self.present.get(layer).unwrap_or(&empty);
        (0..horizon)
            .filter(|&seq| !l.get(seq as usize).copied().unwrap_or(false))
            .collect()
    }
}

/// Demand-driven prefetch policy (§7): fill holes lowest-layer-first, and
/// within a layer in playout order, bounded by a per-round budget.
#[derive(Debug, Clone)]
pub struct PrefetchPlanner {
    /// Highest layer any recent client asked for (+1 look-ahead layer —
    /// the "likely to be needed" piece: the next quality step up).
    pub demand_layers: usize,
    /// Per-round prefetch budget (packets).
    pub budget: usize,
}

impl PrefetchPlanner {
    /// Planner that prefetches up to the demanded quality plus one
    /// look-ahead layer.
    pub fn new(demand_layers: usize, budget: usize) -> Self {
        PrefetchPlanner {
            demand_layers,
            budget,
        }
    }

    /// Plan one round of prefetches against `cache` for packets
    /// `0..horizon`.
    pub fn plan(&self, cache: &LayerCache, horizon: u64) -> Vec<PacketId> {
        let mut out = Vec::new();
        let top = (self.demand_layers + 1).min(cache.n_layers());
        for layer in 0..top {
            for seq in cache.holes(layer, horizon) {
                if out.len() >= self.budget {
                    return out;
                }
                out.push(PacketId {
                    layer: layer as u8,
                    seq,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(layer: u8, seq: u64) -> PacketId {
        PacketId { layer, seq }
    }

    #[test]
    fn insert_and_request_account_hits_and_misses() {
        let mut c = LayerCache::new(3);
        assert!(!c.request(id(0, 0)));
        c.insert(id(0, 0));
        assert!(c.request(id(0, 0)));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.stored(), 1);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut c = LayerCache::new(1);
        c.insert(id(0, 5));
        c.insert(id(0, 5));
        assert_eq!(c.stored(), 1);
    }

    #[test]
    fn out_of_range_layer_ignored() {
        let mut c = LayerCache::new(2);
        c.insert(id(7, 0));
        assert_eq!(c.stored(), 0);
        assert!(!c.contains(id(7, 0)));
    }

    #[test]
    fn contiguous_prefix_stops_at_first_hole() {
        let mut c = LayerCache::new(1);
        for seq in [0u64, 1, 2, 4, 5] {
            c.insert(id(0, seq));
        }
        assert_eq!(c.contiguous_prefix(0), 3);
        assert_eq!(c.holes(0, 6), vec![3]);
    }

    #[test]
    fn prefetch_fills_lowest_layer_first() {
        let mut c = LayerCache::new(3);
        // L0 has a hole at 2; L1 missing entirely.
        for seq in [0u64, 1, 3] {
            c.insert(id(0, seq));
        }
        let plan = PrefetchPlanner::new(1, 3).plan(&c, 4);
        // First the L0 hole, then L1 in order (look-ahead layer = 1+1 > n).
        assert_eq!(plan[0], id(0, 2));
        assert_eq!(plan[1], id(1, 0));
        assert_eq!(plan[2], id(1, 1));
        assert_eq!(plan.len(), 3, "budget respected");
    }

    #[test]
    fn prefetch_lookahead_covers_next_quality_step() {
        let mut c = LayerCache::new(4);
        for seq in 0..4 {
            c.insert(id(0, seq));
            c.insert(id(1, seq));
        }
        // Demand was 2 layers; the planner also prefetches layer 2 (the
        // likely next step) but not layer 3.
        let plan = PrefetchPlanner::new(2, 100).plan(&c, 4);
        assert!(plan.iter().all(|p| p.layer == 2));
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn repeated_sessions_converge_to_all_hits() {
        // Session 1 plays 2 layers through an empty cache (all misses, but
        // everything gets stored); prefetch rounds fill the look-ahead
        // layer; session 2 at 3 layers is then served entirely locally.
        let horizon = 50u64;
        let mut c = LayerCache::new(4);
        for seq in 0..horizon {
            for layer in 0..2u8 {
                if !c.request(id(layer, seq)) {
                    c.insert(id(layer, seq)); // fetched from origin, stored
                }
            }
        }
        assert_eq!(c.hits(), 0);
        let planner = PrefetchPlanner::new(2, 25);
        let mut rounds = 0;
        while (0..3).any(|layer| c.contiguous_prefix(layer) < horizon) {
            for p in planner.plan(&c, horizon) {
                c.insert(p);
            }
            rounds += 1;
            assert!(rounds < 100, "prefetch must converge");
        }
        let hits_before = c.hits();
        for seq in 0..horizon {
            for layer in 0..3u8 {
                assert!(c.request(id(layer, seq)), "session 2 must be all hits");
            }
        }
        assert_eq!(c.hits() - hits_before, horizon * 3);
    }
}
