//! A slab arena: stable `u32` handles into a growable vector with an
//! intrusive free list.
//!
//! One type, two uses in the engine. The timer-wheel scheduler parks each
//! scheduled event record (a timer, a packet arrival, a link-done that
//! starts a waiting packet) here once and circulates only
//! `(time_ns, seq, slot)` keys. Each world keeps its packets in a second
//! slab: a packet is inserted once when sent, waits in link queues and
//! rides its `Arrive` events as its `u32` handle, and leaves the arena
//! when it is dropped or delivered.
//! Freed slots are recycled in LIFO order, so a steady-state simulation
//! reaches a fixed footprint and stops allocating entirely.
//!
//! Determinism: slot assignment depends only on the sequence of
//! `insert`/`remove` calls, never on addresses or hashing.

/// A slab of `T` records addressed by stable `u32` handles.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Head of the free list (`NO_SLOT` when empty).
    free_head: u32,
    live: usize,
}

#[derive(Debug, Clone)]
enum Entry<T> {
    Occupied(T),
    /// Free slot, pointing at the next free slot (`NO_SLOT` ends the list).
    Free(u32),
}

/// Sentinel for "no slot" in the free list.
const NO_SLOT: u32 = u32::MAX;

// A free slot's link hides in a packet's niche: a packet slot is 64 bytes,
// what the packet itself takes.
const _: () = assert!(std::mem::size_of::<Entry<crate::packet::Packet>>() == 64);

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// New empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free_head: NO_SLOT,
            live: 0,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no records are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots allocated, live or free: the most records ever held at once.
    pub fn footprint(&self) -> usize {
        self.entries.len()
    }

    /// Slots the slab holds room for before it must grow.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Make room for `additional` more slots in one allocation.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// Store `item`, returning its handle. Recycles a freed slot when one
    /// exists; grows the backing vector otherwise.
    #[inline]
    pub fn insert(&mut self, item: T) -> u32 {
        self.live += 1;
        if self.free_head != NO_SLOT {
            let idx = self.free_head;
            match self.entries[idx as usize] {
                Entry::Free(next) => self.free_head = next,
                Entry::Occupied(_) => unreachable!("free list points at occupied slot"),
            }
            self.entries[idx as usize] = Entry::Occupied(item);
            idx
        } else {
            assert!(
                self.entries.len() < NO_SLOT as usize,
                "slab exhausted u32 handle space"
            );
            self.entries.push(Entry::Occupied(item));
            (self.entries.len() - 1) as u32
        }
    }

    /// Borrow the record at `idx`, if live.
    #[inline]
    pub fn get(&self, idx: u32) -> Option<&T> {
        match self.entries.get(idx as usize) {
            Some(Entry::Occupied(item)) => Some(item),
            _ => None,
        }
    }

    /// Mutably borrow the record at `idx`, if live.
    #[inline]
    pub fn get_mut(&mut self, idx: u32) -> Option<&mut T> {
        match self.entries.get_mut(idx as usize) {
            Some(Entry::Occupied(item)) => Some(item),
            _ => None,
        }
    }

    /// Remove and return the record at `idx`, if live. The slot goes to
    /// the head of the free list for reuse.
    #[inline]
    pub fn remove(&mut self, idx: u32) -> Option<T> {
        match self.entries.get_mut(idx as usize) {
            Some(entry @ Entry::Occupied(_)) => {
                let taken = std::mem::replace(entry, Entry::Free(self.free_head));
                self.free_head = idx;
                self.live -= 1;
                match taken {
                    Entry::Occupied(item) => Some(item),
                    Entry::Free(_) => unreachable!("matched occupied above"),
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None, "double remove is a no-op");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slots_are_recycled_lifo() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        s.remove(a);
        s.remove(b);
        // LIFO: b's slot first, then a's — and no vector growth.
        assert_eq!(s.insert(3), b);
        assert_eq!(s.insert(4), a);
        assert_eq!(s.entries.len(), 2);
    }

    #[test]
    fn steady_state_stops_growing() {
        let mut s = Slab::new();
        let mut handles = Vec::new();
        for i in 0..64 {
            handles.push(s.insert(i));
        }
        let footprint = s.entries.len();
        for _ in 0..1000 {
            let h = handles.remove(0);
            s.remove(h);
            handles.push(s.insert(0));
        }
        assert_eq!(s.entries.len(), footprint, "churn must not grow the slab");
    }
}
