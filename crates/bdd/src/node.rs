//! Node storage: the hash-consed unique table with reference counting.
//!
//! Layout follows the classic BDD-package design (Brace–Rudell–Bryant,
//! and the JDD library the paper's participants used): nodes live in a
//! flat arena indexed by [`Ref`], terminals occupy slots 0 and 1, and a
//! unique table guarantees that structurally equal nodes are shared.
//!
//! The unique table is a power-of-two open-addressing array of arena
//! indices with triple-hashed linear probing — the node key `(var, low,
//! high)` is never stored twice, probes read it straight out of the
//! arena. Hash-cons semantics are identical to a `(var, low, high) →
//! index` map (locked in by the proptest against an `FnvMap` reference
//! below), so mint order — and therefore every `Ref` this crate ever
//! hands out — is a canonical function of the `mk` call stream alone.

/// A handle to a BDD node. `Ref`s are only meaningful relative to the
/// [`crate::BddManager`] that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(pub(crate) u32);

impl Ref {
    /// The raw arena index of this reference.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is one of the two terminal nodes.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }
}

/// The constant-false BDD.
pub const FALSE: Ref = Ref(0);
/// The constant-true BDD.
pub const TRUE: Ref = Ref(1);

/// Sentinel variable index used by the terminal nodes so that they sort
/// below every real variable during `apply`.
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub var: u32,
    pub low: u32,
    pub high: u32,
    /// External reference count. Nodes with `refs > 0` (and everything
    /// they reach) survive garbage collection.
    pub refs: u32,
    pub alive: bool,
}

/// Initial arena/unique-table sizing. The verification workloads mint
/// a few thousand nodes per header set; pre-sizing skips the rehash
/// cascade that dominated `Manager::new`-heavy profiles.
pub(crate) const INITIAL_NODES: usize = 1 << 12;

/// Empty-slot sentinel in the unique table. Arena indices never reach
/// `u32::MAX` (the arena would exhaust memory long before).
const EMPTY_SLOT: u32 = u32::MAX;

/// Triple-hash the node key: each component gets its own odd 64-bit
/// multiplier, then a splitmix-style avalanche spreads the entropy into
/// the low bits that the power-of-two mask keeps. The constants and the
/// probe order are fixed, so slot layout — and more importantly the
/// hit/miss behaviour of `mk` — is a pure function of the key stream.
#[inline]
fn hash_triple(var: u32, low: u32, high: u32) -> u64 {
    let mut h = (var as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= (low as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h ^= (high as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

/// Open-addressed set of arena indices keyed by the node triple stored
/// in the arena itself. Linear probing, power-of-two capacity, resize
/// at 3/4 load. No tombstones: deletion only happens wholesale during
/// GC, which rebuilds the table from the arena in index order.
#[derive(Debug)]
struct UniqueTable {
    slots: Box<[u32]>,
    mask: u64,
    len: usize,
}

impl UniqueTable {
    fn with_pow2_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        UniqueTable {
            slots: vec![EMPTY_SLOT; slots].into_boxed_slice(),
            mask: (slots - 1) as u64,
            len: 0,
        }
    }

    /// Find the arena index holding `(var, low, high)`, if any.
    #[inline]
    fn lookup(&self, nodes: &[Node], var: u32, low: u32, high: u32) -> Option<u32> {
        let mut i = (hash_triple(var, low, high) & self.mask) as usize;
        loop {
            let s = self.slots[i];
            if s == EMPTY_SLOT {
                return None;
            }
            let n = &nodes[s as usize];
            if n.var == var && n.low == low && n.high == high {
                return Some(s);
            }
            i = (i + 1) & self.mask as usize;
        }
    }

    /// Insert `idx` (whose key must be absent). The node must already
    /// be written to `nodes[idx]` so probing can read its key.
    fn insert(&mut self, nodes: &[Node], idx: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(nodes);
        }
        let n = &nodes[idx as usize];
        let mut i = (hash_triple(n.var, n.low, n.high) & self.mask) as usize;
        while self.slots[i] != EMPTY_SLOT {
            i = (i + 1) & self.mask as usize;
        }
        self.slots[i] = idx;
        self.len += 1;
    }

    fn grow(&mut self, nodes: &[Node]) {
        let doubled = vec![EMPTY_SLOT; self.slots.len() * 2].into_boxed_slice();
        let old = std::mem::replace(&mut self.slots, doubled);
        self.mask = (self.slots.len() - 1) as u64;
        for &idx in old.iter() {
            if idx == EMPTY_SLOT {
                continue;
            }
            let n = &nodes[idx as usize];
            let mut i = (hash_triple(n.var, n.low, n.high) & self.mask) as usize;
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & self.mask as usize;
            }
            self.slots[i] = idx;
        }
    }

    /// Re-hash every live non-terminal node after a GC sweep. Arena
    /// index order makes the rebuilt layout deterministic (and lookup
    /// results never depended on layout to begin with).
    fn rebuild(&mut self, nodes: &[Node]) {
        self.slots.fill(EMPTY_SLOT);
        self.len = 0;
        for (i, n) in nodes.iter().enumerate().skip(2) {
            if !n.alive {
                continue;
            }
            let mut s = (hash_triple(n.var, n.low, n.high) & self.mask) as usize;
            while self.slots[s] != EMPTY_SLOT {
                s = (s + 1) & self.mask as usize;
            }
            self.slots[s] = i as u32;
            self.len += 1;
        }
    }
}

/// The node arena plus the unique (hash-consing) table.
#[derive(Debug)]
pub(crate) struct NodeTable {
    nodes: Vec<Node>,
    unique: UniqueTable,
    free: Vec<u32>,
    /// Live non-terminal node count, maintained incrementally so the
    /// per-`mk` capacity check in [`NodeTable::mk_capped`] is O(1)
    /// instead of an O(n) arena scan.
    live: usize,
}

impl NodeTable {
    pub fn new() -> Self {
        let terminal = |_v: u32| Node {
            var: TERMINAL_VAR,
            low: 0,
            high: 0,
            refs: 1, // terminals are permanently alive
            alive: true,
        };
        let mut nodes = Vec::with_capacity(INITIAL_NODES + 2);
        nodes.push(terminal(0));
        nodes.push(terminal(1));
        NodeTable {
            nodes,
            // 2× the arena pre-size keeps the load factor under 1/2
            // until the arena itself has to grow.
            unique: UniqueTable::with_pow2_slots(INITIAL_NODES * 2),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Find-or-create the node `(var, low, high)`. Callers must have
    /// already applied the ROBDD reduction rule (`low != high`).
    pub fn mk(&mut self, var: u32, low: u32, high: u32) -> u32 {
        debug_assert_ne!(low, high, "reduction rule violated");
        if let Some(idx) = self.unique.lookup(&self.nodes, var, low, high) {
            return idx;
        }
        self.mint(var, low, high)
    }

    /// Like [`NodeTable::mk`], but refuses to mint a *new* node once
    /// `cap` live nodes exist. Hash-cons hits always succeed — looking
    /// up an existing node allocates nothing, so a full table can still
    /// answer queries over already-built structure. Returns `Err(live)`
    /// (the current live count) when minting would exceed the cap, and
    /// leaves the table untouched in that case.
    pub fn mk_capped(&mut self, var: u32, low: u32, high: u32, cap: usize) -> Result<u32, usize> {
        debug_assert_ne!(low, high, "reduction rule violated");
        if let Some(idx) = self.unique.lookup(&self.nodes, var, low, high) {
            return Ok(idx);
        }
        if self.live >= cap {
            return Err(self.live);
        }
        Ok(self.mint(var, low, high))
    }

    fn mint(&mut self, var: u32, low: u32, high: u32) -> u32 {
        let node = Node { var, low, high, refs: 0, alive: true };
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(node);
            idx
        };
        self.unique.insert(&self.nodes, idx);
        self.live += 1;
        idx
    }

    pub fn get(&self, idx: u32) -> &Node {
        &self.nodes[idx as usize]
    }

    pub fn get_mut(&mut self, idx: u32) -> &mut Node {
        &mut self.nodes[idx as usize]
    }

    /// Number of live (reachable-or-not) non-terminal nodes. O(1): the
    /// count is maintained incrementally by `mk`/`gc` (consistency with
    /// the arena is locked in by `live_counter_tracks_arena_scan`).
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// O(n) arena scan of live non-terminal nodes; test-only oracle for
    /// the incremental counter.
    #[cfg(test)]
    pub fn live_count_scan(&self) -> usize {
        self.nodes.iter().skip(2).filter(|n| n.alive).count()
    }

    /// Mark-and-sweep garbage collection. Roots are all nodes with a
    /// positive external reference count. Returns the number of reclaimed
    /// nodes. The caller is responsible for clearing any memo caches that
    /// might reference reclaimed nodes.
    ///
    /// The open-addressed unique table has no per-key deletion (no
    /// tombstones); the sweep rebuilds it from the surviving arena in
    /// index order instead, which is both deterministic and cheaper
    /// than N probe-chain repairs.
    pub fn gc(&mut self) -> usize {
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true;
        marked[1] = true;
        let mut stack: Vec<u32> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate().skip(2) {
            if n.alive && n.refs > 0 {
                stack.push(i as u32);
            }
        }
        while let Some(i) = stack.pop() {
            if marked[i as usize] {
                continue;
            }
            marked[i as usize] = true;
            let n = &self.nodes[i as usize];
            stack.push(n.low);
            stack.push(n.high);
        }
        let mut reclaimed = 0;
        for (i, &kept) in marked.iter().enumerate().skip(2) {
            if self.nodes[i].alive && !kept {
                self.nodes[i].alive = false;
                self.free.push(i as u32);
                reclaimed += 1;
            }
        }
        if reclaimed > 0 {
            self.unique.rebuild(&self.nodes);
        }
        self.live -= reclaimed;
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::FnvMap;
    use proptest::prelude::*;

    #[test]
    fn terminals_are_preallocated() {
        let t = NodeTable::new();
        assert!(t.get(0).alive);
        assert!(t.get(1).alive);
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    fn mk_is_hash_consed() {
        let mut t = NodeTable::new();
        let a = t.mk(0, 0, 1);
        let b = t.mk(0, 0, 1);
        assert_eq!(a, b);
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn gc_reclaims_unreferenced_nodes() {
        let mut t = NodeTable::new();
        let a = t.mk(0, 0, 1);
        let _b = t.mk(1, 0, 1);
        t.get_mut(a).refs = 1;
        let reclaimed = t.gc();
        assert_eq!(reclaimed, 1);
        assert!(t.get(a).alive);
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn gc_keeps_descendants_of_roots() {
        let mut t = NodeTable::new();
        let child = t.mk(1, 0, 1);
        let parent = t.mk(0, 0, child);
        t.get_mut(parent).refs = 1;
        assert_eq!(t.gc(), 0);
        assert!(t.get(child).alive);
    }

    #[test]
    fn live_counter_tracks_arena_scan() {
        let mut t = NodeTable::new();
        assert_eq!(t.live_count(), t.live_count_scan());
        let a = t.mk(0, 0, 1);
        let child = t.mk(2, 0, 1);
        let _parent = t.mk(1, 0, child);
        let _dup = t.mk(0, 0, 1); // hash-cons hit must not bump the counter
        assert_eq!(t.live_count(), 3);
        assert_eq!(t.live_count(), t.live_count_scan());
        t.get_mut(a).refs = 1;
        t.gc();
        assert_eq!(t.live_count(), t.live_count_scan());
        let _again = t.mk(2, 0, 1); // reuse a freed slot; counter goes back up
        assert_eq!(t.live_count(), t.live_count_scan());
    }

    #[test]
    fn mk_capped_refuses_before_minting() {
        let mut t = NodeTable::new();
        let a = t.mk_capped(0, 0, 1, 2).expect("below cap");
        let _b = t.mk_capped(1, 0, 1, 2).expect("at cap boundary");
        // cap reached: a hash-cons hit still succeeds…
        assert_eq!(t.mk_capped(0, 0, 1, 2), Ok(a));
        // …but a new node is refused, and nothing was allocated.
        assert_eq!(t.mk_capped(2, 0, 1, 2), Err(2));
        assert_eq!(t.live_count(), 2);
        assert_eq!(t.live_count(), t.live_count_scan());
        // A higher cap admits the node that was just refused.
        assert!(t.mk_capped(2, 0, 1, 3).is_ok());
        assert_eq!(t.live_count(), 3);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut t = NodeTable::new();
        let a = t.mk(0, 0, 1);
        t.gc();
        let b = t.mk(5, 0, 1);
        assert_eq!(a, b, "freed slot should be recycled");
    }

    #[test]
    fn gc_rebuild_keeps_survivors_findable() {
        let mut t = NodeTable::new();
        let child = t.mk(3, 0, 1);
        let parent = t.mk(1, 0, child);
        let orphan = t.mk(2, 1, 0);
        t.get_mut(parent).refs = 1;
        assert_eq!(t.gc(), 1);
        // Survivors still hash-cons to their original indices after the
        // table rebuild…
        assert_eq!(t.mk(3, 0, 1), child);
        assert_eq!(t.mk(1, 0, child), parent);
        // …and the reclaimed key mints a fresh node in the freed slot.
        assert_eq!(t.mk(2, 1, 0), orphan);
        assert_eq!(t.live_count(), t.live_count_scan());
    }

    #[test]
    fn table_grows_past_initial_sizing() {
        // Mint enough distinct nodes to force several unique-table
        // resizes and at least one arena regrowth.
        let mut t = NodeTable::new();
        let n = (INITIAL_NODES * 2) as u32;
        let mut idxs = Vec::new();
        for v in 0..n {
            idxs.push(t.mk(v, 0, 1));
        }
        assert_eq!(t.live_count(), n as usize);
        // Every node is still findable (pure hash-cons hits).
        for (v, &idx) in idxs.iter().enumerate() {
            assert_eq!(t.mk(v as u32, 0, 1), idx);
        }
        assert_eq!(t.live_count(), n as usize);
    }

    proptest! {
        /// The flat open-addressed unique table must mint the exact
        /// same `Ref` sequence as the tuple-keyed `FnvMap` it replaced,
        /// on arbitrary `mk` streams whose operands reference earlier
        /// results. This is the determinism contract: node numbering is
        /// a canonical function of the call stream, independent of hash
        /// layout.
        #[test]
        fn flat_unique_table_matches_fnv_map_reference(
            ops in proptest::collection::vec(
                (0u32..24, any::<u32>(), any::<u32>()),
                1..400,
            )
        ) {
            let mut t = NodeTable::new();
            let mut reference: FnvMap<(u32, u32, u32), u32> = FnvMap::default();
            let mut next_idx = 2u32;
            let mut handles: Vec<u32> = vec![0, 1];
            for (var, lo_sel, hi_sel) in ops {
                let low = handles[lo_sel as usize % handles.len()];
                let mut high = handles[hi_sel as usize % handles.len()];
                if high == low {
                    // keep the reduction rule: pick the other terminal
                    high = if low == 0 { 1 } else { 0 };
                }
                let got = t.mk(var, low, high);
                let want = *reference.entry((var, low, high)).or_insert_with(|| {
                    let i = next_idx;
                    next_idx += 1;
                    i
                });
                prop_assert_eq!(got, want, "mk({}, {}, {}) diverged", var, low, high);
                handles.push(got);
            }
            prop_assert_eq!(t.live_count(), reference.len());
            prop_assert_eq!(t.live_count(), t.live_count_scan());
        }
    }
}
