//! The BDD manager: boolean operations over hash-consed nodes.

use crate::fnv::{map_with_capacity, FnvMap};
use crate::node::{NodeTable, Ref, FALSE, TRUE};

/// Entry count of the direct-mapped persistent `apply` cache (the
/// `Cached` profile's cross-call memo). Power of two; fixed for the
/// manager's lifetime — collisions overwrite (lossy replacement, the
/// CUDD "computed table" policy) instead of growing the table.
const OP_CACHE_WAYS: usize = 1 << 14;
/// Entry count of the direct-mapped persistent `not` cache.
const NOT_CACHE_WAYS: usize = 1 << 12;
/// Initial sizing of the per-call scratch memos (the `Uncached`
/// profile's within-call tables).
const SCRATCH_CAPACITY: usize = 1 << 8;

/// Empty-slot sentinel for the direct-mapped caches: arena indices
/// never reach `u32::MAX`.
const EMPTY_KEY: u32 = u32::MAX;

#[inline]
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[derive(Debug, Clone, Copy)]
struct OpEntry {
    a: u32,
    b: u32,
    r: u32,
    op: Op,
}

/// Bounded direct-mapped memo for binary `apply` results. One slot per
/// hash bucket; a colliding key simply overwrites (and is counted as an
/// eviction). Lossiness is invisible to results: a lost entry only
/// means the recursion re-derives a node that already exists in the
/// unique table, so the hash-cons hit returns the identical index.
#[derive(Debug)]
struct ApplyCache {
    entries: Box<[OpEntry]>,
    mask: u64,
    evictions: u64,
}

impl ApplyCache {
    fn new(ways: usize) -> Self {
        debug_assert!(ways.is_power_of_two());
        ApplyCache {
            entries: vec![OpEntry { a: EMPTY_KEY, b: 0, r: 0, op: Op::And }; ways]
                .into_boxed_slice(),
            mask: (ways - 1) as u64,
            evictions: 0,
        }
    }

    #[inline]
    fn slot(&self, op: Op, a: u32, b: u32) -> usize {
        let h = (a as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ ((op as u64 + 1).wrapping_mul(0x1656_67B1_9E37_79F9));
        (mix64(h) & self.mask) as usize
    }

    #[inline]
    fn get(&self, op: Op, a: u32, b: u32) -> Option<u32> {
        let e = &self.entries[self.slot(op, a, b)];
        if e.a == a && e.b == b && e.op == op && a != EMPTY_KEY {
            Some(e.r)
        } else {
            None
        }
    }

    #[inline]
    fn put(&mut self, op: Op, a: u32, b: u32, r: u32) {
        let s = self.slot(op, a, b);
        let e = &mut self.entries[s];
        if e.a != EMPTY_KEY && !(e.a == a && e.b == b && e.op == op) {
            self.evictions += 1;
        }
        *e = OpEntry { a, b, r, op };
    }

    fn clear(&mut self) {
        for e in self.entries.iter_mut() {
            e.a = EMPTY_KEY;
        }
    }
}

/// Bounded direct-mapped memo for `not` results (including the
/// involution entries `r → a`).
#[derive(Debug)]
struct NotCache {
    entries: Box<[(u32, u32)]>,
    mask: u64,
    evictions: u64,
}

impl NotCache {
    fn new(ways: usize) -> Self {
        debug_assert!(ways.is_power_of_two());
        NotCache {
            entries: vec![(EMPTY_KEY, 0); ways].into_boxed_slice(),
            mask: (ways - 1) as u64,
            evictions: 0,
        }
    }

    #[inline]
    fn slot(&self, a: u32) -> usize {
        (mix64((a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) & self.mask) as usize
    }

    #[inline]
    fn get(&self, a: u32) -> Option<u32> {
        let (k, r) = self.entries[self.slot(a)];
        if k == a && a != EMPTY_KEY {
            Some(r)
        } else {
            None
        }
    }

    #[inline]
    fn put(&mut self, a: u32, r: u32) {
        let s = self.slot(a);
        let e = &mut self.entries[s];
        if e.0 != EMPTY_KEY && e.0 != a {
            self.evictions += 1;
        }
        *e = (a, r);
    }

    fn clear(&mut self) {
        for e in self.entries.iter_mut() {
            e.0 = EMPTY_KEY;
        }
    }
}

/// How aggressively the engine memoises operation results.
///
/// The two profiles model the two Java BDD libraries compared in the
/// paper (participant D, §3.2): JDD with a persistent operation cache,
/// and JavaBDD whose effective caching the paper found markedly weaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineProfile {
    /// JDD-like: a persistent memo cache shared across all operations.
    Cached,
    /// JavaBDD-like: memoisation only within a single operation call, so
    /// repeated queries redo their work. Same results, worse constants.
    Uncached,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Diff,
    Xor,
}

/// Counters describing the work the manager has performed. Useful for
/// ablation benches and for asserting that the `Cached` profile actually
/// shares work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Recursive `apply` invocations that missed every cache.
    pub apply_misses: u64,
    /// Recursive `apply` invocations answered from a memo cache.
    pub apply_hits: u64,
    /// Garbage-collection runs.
    pub gc_runs: u64,
    /// Nodes reclaimed across all GC runs.
    pub gc_reclaimed: u64,
    /// Fixed entry count of the direct-mapped `apply` cache. The cache
    /// never grows past this bound for the manager's lifetime.
    pub op_cache_capacity: usize,
    /// Fixed entry count of the direct-mapped `not` cache.
    pub not_cache_capacity: usize,
    /// Memo entries overwritten by a colliding key (the lossy
    /// direct-mapped replacement policy at work). Never resets, even
    /// across [`BddManager::gc`].
    pub cache_evictions: u64,
}

/// A manager owning a node table and (profile-dependent) memo caches.
///
/// All [`Ref`]s returned by one manager are only valid with that manager.
/// Operations never mutate their operands; intermediate nodes stay in the
/// table until [`BddManager::gc`] runs, and survive GC only if protected
/// via [`BddManager::ref_inc`].
#[derive(Debug)]
pub struct BddManager {
    table: NodeTable,
    num_vars: u32,
    profile: EngineProfile,
    op_cache: ApplyCache,
    not_cache: NotCache,
    /// Reusable within-call memo for `not`. Cleared before every call,
    /// so the `Uncached` profile's semantics (memoisation only inside a
    /// single operation) are unchanged — only the per-call allocation
    /// is gone.
    not_scratch: FnvMap<u32, u32>,
    /// Reusable within-call memo for the binary `apply`.
    apply_scratch: FnvMap<(u32, u32), u32>,
    stats: ManagerStats,
    node_cap: Option<usize>,
}

impl BddManager {
    /// Create a manager over `num_vars` boolean variables (ordered by
    /// their index) with the given engine profile.
    pub fn new(num_vars: u32, profile: EngineProfile) -> Self {
        Self::with_cache_ways(num_vars, profile, OP_CACHE_WAYS, NOT_CACHE_WAYS)
    }

    /// Construction with explicit cache sizing; crate-internal so tests
    /// can force collisions with tiny caches. Production managers all
    /// go through [`BddManager::new`] with the fixed default ways.
    pub(crate) fn with_cache_ways(
        num_vars: u32,
        profile: EngineProfile,
        op_ways: usize,
        not_ways: usize,
    ) -> Self {
        BddManager {
            table: NodeTable::new(),
            num_vars,
            profile,
            op_cache: ApplyCache::new(op_ways),
            not_cache: NotCache::new(not_ways),
            not_scratch: map_with_capacity(SCRATCH_CAPACITY),
            apply_scratch: map_with_capacity(SCRATCH_CAPACITY),
            stats: ManagerStats::default(),
            node_cap: None,
        }
    }

    /// Like [`BddManager::new`], but with a node-table cap enforced in
    /// two modes:
    ///
    /// * the classic infallible ops ([`BddManager::and`] etc.) treat it
    ///   *softly* — they keep working past the cap and
    ///   [`BddManager::check_capacity`] reports a typed
    ///   [`BddError::TableExhausted`] afterwards, so the caller can
    ///   stop, raise the cap and retry;
    /// * the `try_*` ops ([`BddManager::try_and`] etc.) enforce it
    ///   *hard* — the unique table refuses to mint the node that would
    ///   exceed the cap and the operation returns the typed error
    ///   immediately, leaving the manager usable (the
    ///   partitioned-verification budget path).
    pub fn with_node_cap(num_vars: u32, profile: EngineProfile, cap: usize) -> Self {
        let mut m = Self::new(num_vars, profile);
        m.node_cap = Some(cap);
        m
    }

    /// The configured node cap, if any.
    pub fn node_cap(&self) -> Option<usize> {
        self.node_cap
    }

    /// Replace the node cap (`None` removes it). Raising the cap after
    /// a [`BddError::TableExhausted`] is the growth-retry absorption
    /// path.
    pub fn set_node_cap(&mut self, cap: Option<usize>) {
        self.node_cap = cap;
    }

    /// Whether the table has outgrown the configured cap. Counts live
    /// (allocated, non-terminal) nodes, so a [`BddManager::gc`] that
    /// reclaims enough garbage clears the condition.
    pub fn exhausted(&self) -> bool {
        self.node_cap.is_some_and(|cap| self.table.live_count() > cap)
    }

    /// `Err(TableExhausted)` once the table has outgrown the cap.
    pub fn check_capacity(&self) -> Result<(), crate::BddError> {
        match self.node_cap {
            Some(cap) if self.table.live_count() > cap => {
                Err(crate::BddError::TableExhausted { nodes: self.table.live_count(), cap })
            }
            _ => Ok(()),
        }
    }

    /// The number of variables this manager was created with.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The engine profile this manager runs under.
    pub fn profile(&self) -> EngineProfile {
        self.profile
    }

    /// Work counters accumulated since creation, plus the (fixed)
    /// memo-cache geometry and the running eviction count.
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            op_cache_capacity: self.op_cache.entries.len(),
            not_cache_capacity: self.not_cache.entries.len(),
            cache_evictions: self.op_cache.evictions + self.not_cache.evictions,
            ..self.stats
        }
    }

    /// Number of live non-terminal nodes in the table.
    pub fn node_count(&self) -> usize {
        self.table.live_count()
    }

    /// The BDD for the single variable `var`.
    ///
    /// # Panics
    /// Panics if `var >= num_vars`; variable universes are fixed at
    /// construction time by design (header layouts are static).
    pub fn var(&mut self, var: u32) -> Ref {
        assert!(var < self.num_vars, "variable {var} out of range");
        Ref(self.table.mk(var, FALSE.0, TRUE.0))
    }

    /// The BDD for the negated variable `var`.
    pub fn nvar(&mut self, var: u32) -> Ref {
        assert!(var < self.num_vars, "variable {var} out of range");
        Ref(self.table.mk(var, TRUE.0, FALSE.0))
    }

    /// Protect `r` (and everything it reaches) from garbage collection.
    /// Calls nest: each `ref_inc` must be balanced by a `ref_dec`.
    pub fn ref_inc(&mut self, r: Ref) -> Ref {
        if !r.is_terminal() {
            self.table.get_mut(r.0).refs += 1;
        }
        r
    }

    /// Release one protection on `r`. The node is not freed immediately;
    /// it becomes eligible at the next [`BddManager::gc`].
    pub fn ref_dec(&mut self, r: Ref) {
        if !r.is_terminal() {
            let n = self.table.get_mut(r.0);
            assert!(n.refs > 0, "ref_dec underflow on {r:?}");
            n.refs -= 1;
        }
    }

    /// Run garbage collection, reclaiming every node unreachable from a
    /// protected root. Clears memo caches (they may name dead nodes).
    /// Returns the number of reclaimed nodes.
    pub fn gc(&mut self) -> usize {
        let reclaimed = self.table.gc();
        self.op_cache.clear();
        self.not_cache.clear();
        self.not_scratch.clear();
        self.apply_scratch.clear();
        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed += reclaimed as u64;
        reclaimed
    }

    fn node(&self, r: u32) -> (u32, u32, u32) {
        let n = self.table.get(r);
        (n.var, n.low, n.high)
    }

    /// `(var, low, high)` of a non-terminal node; crate-internal.
    pub(crate) fn node_parts(&self, r: u32) -> (u32, u32, u32) {
        self.node(r)
    }

    /// Direct unique-table access for the cube builders; crate-internal.
    pub(crate) fn table_mk(&mut self, var: u32, low: u32, high: u32) -> u32 {
        self.table.mk(var, low, high)
    }

    /// Copy `r`, a BDD of `src`, into this manager: the same function
    /// over the same variable indices (every manager orders variables
    /// by index), so two engines' results compare with one `==` once
    /// both live here. [`BddError::VariableOutOfRange`] if `r` tests a
    /// variable this manager lacks.
    ///
    /// [`BddError::VariableOutOfRange`]: crate::BddError::VariableOutOfRange
    pub fn import(&mut self, src: &BddManager, r: Ref) -> Result<Ref, crate::BddError> {
        let mut copied = map_with_capacity(SCRATCH_CAPACITY);
        self.import_rec(src, r.0, &mut copied).map(Ref)
    }

    fn import_rec(
        &mut self,
        src: &BddManager,
        a: u32,
        copied: &mut FnvMap<u32, u32>,
    ) -> Result<u32, crate::BddError> {
        if a <= TRUE.0 {
            return Ok(a);
        }
        if let Some(&r) = copied.get(&a) {
            return Ok(r);
        }
        let (var, low, high) = src.node(a);
        if var >= self.num_vars {
            return Err(crate::BddError::VariableOutOfRange { var, count: self.num_vars });
        }
        let l = self.import_rec(src, low, copied)?;
        let h = self.import_rec(src, high, copied)?;
        let r = self.table.mk(var, l, h);
        copied.insert(a, r);
        Ok(r)
    }

    /// Conjunction `a ∧ b`.
    pub fn and(&mut self, a: Ref, b: Ref) -> Ref {
        self.binop(Op::And, a, b)
    }

    /// Disjunction `a ∨ b`.
    pub fn or(&mut self, a: Ref, b: Ref) -> Ref {
        self.binop(Op::Or, a, b)
    }

    /// Difference `a ∧ ¬b` — the workhorse of both verifiers (the
    /// `bddEngine.diff` of APKeep's Algorithm 1).
    ///
    /// The `Cached` profile has a native diff operator (as JDD does).
    /// The `Uncached` profile composes it as `and(a, not(b))`,
    /// materialising the full complement on every call — the way
    /// weaker BDD libraries implement set difference, and a large part
    /// of why participant D's JavaBDD-based reproduction computed
    /// predicates up to 20× slower (§3.2).
    pub fn diff(&mut self, a: Ref, b: Ref) -> Ref {
        match self.profile {
            EngineProfile::Cached => self.binop(Op::Diff, a, b),
            EngineProfile::Uncached => {
                let nb = self.not(b);
                self.ref_inc(nb);
                let r = self.binop(Op::And, a, nb);
                self.ref_dec(nb);
                r
            }
        }
    }

    /// Exclusive or `a ⊕ b`.
    pub fn xor(&mut self, a: Ref, b: Ref) -> Ref {
        self.binop(Op::Xor, a, b)
    }

    /// Negation `¬a`.
    pub fn not(&mut self, a: Ref) -> Ref {
        // Take the scratch memo out of `self` for the duration of the
        // recursion (borrowck) and put it back after: the map's
        // allocation survives across calls instead of being rebuilt
        // per negation. Under `Uncached` it is the *only* memo used,
        // and clearing it up front preserves the within-call-only
        // memoisation the profile models.
        let mut local = std::mem::take(&mut self.not_scratch);
        local.clear();
        let r = self.not_rec(a.0, &mut local);
        self.not_scratch = local;
        Ref(r)
    }

    /// If-then-else `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)`.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        // Composed from the cached binary ops; each intermediate is
        // protected so a GC triggered mid-composition cannot reclaim it.
        let nf = self.not(f);
        self.ref_inc(nf);
        let fg = self.and(f, g);
        self.ref_inc(fg);
        let nfh = self.and(nf, h);
        self.ref_inc(nfh);
        let r = self.or(fg, nfh);
        self.ref_dec(nf);
        self.ref_dec(fg);
        self.ref_dec(nfh);
        r
    }

    /// Implication test: does `a ⇒ b` hold (i.e. `a ∧ ¬b = ∅`)?
    pub fn implies(&mut self, a: Ref, b: Ref) -> bool {
        self.diff(a, b) == FALSE
    }

    /// Capacity-checked conjunction. Unlike [`BddManager::and`], which
    /// enforces the node cap *softly* (the operation completes and
    /// [`BddManager::check_capacity`] reports the overrun afterwards),
    /// the `try_*` family refuses to mint the node that would exceed
    /// the cap: the unique table never grows past `cap`, the recursion
    /// unwinds with a typed [`BddError::TableExhausted`], and the
    /// manager stays fully usable — already-minted subresults are
    /// ordinary orphans that the next [`BddManager::gc`] reclaims, and
    /// memo entries written on the way down name real nodes, so a
    /// retry after [`BddManager::set_node_cap`] resumes where it left
    /// off. This is the partitioned-verification path: a per-worker
    /// manager that exhausts its budget mid-merge must surface a typed
    /// error, not wedge or abort the worker.
    pub fn try_and(&mut self, a: Ref, b: Ref) -> Result<Ref, crate::BddError> {
        self.try_binop(Op::And, a, b)
    }

    /// Capacity-checked disjunction; see [`BddManager::try_and`].
    pub fn try_or(&mut self, a: Ref, b: Ref) -> Result<Ref, crate::BddError> {
        self.try_binop(Op::Or, a, b)
    }

    /// Capacity-checked difference; see [`BddManager::try_and`].
    pub fn try_diff(&mut self, a: Ref, b: Ref) -> Result<Ref, crate::BddError> {
        match self.profile {
            EngineProfile::Cached => self.try_binop(Op::Diff, a, b),
            EngineProfile::Uncached => {
                let nb = self.try_not(b)?;
                self.ref_inc(nb);
                let r = self.try_binop(Op::And, a, nb);
                self.ref_dec(nb);
                r
            }
        }
    }

    /// Capacity-checked exclusive or; see [`BddManager::try_and`].
    pub fn try_xor(&mut self, a: Ref, b: Ref) -> Result<Ref, crate::BddError> {
        self.try_binop(Op::Xor, a, b)
    }

    /// Capacity-checked negation; see [`BddManager::try_and`].
    pub fn try_not(&mut self, a: Ref) -> Result<Ref, crate::BddError> {
        let mut local = std::mem::take(&mut self.not_scratch);
        local.clear();
        let r = self.not_rec_capped(a.0, &mut local);
        self.not_scratch = local;
        r.map(Ref)
    }

    fn try_binop(&mut self, op: Op, a: Ref, b: Ref) -> Result<Ref, crate::BddError> {
        if let Some(t) = Self::terminal_case(op, a.0, b.0) {
            return Ok(Ref(t));
        }
        let mut local = std::mem::take(&mut self.apply_scratch);
        local.clear();
        let r = self.apply_capped(op, a.0, b.0, &mut local);
        self.apply_scratch = local;
        r.map(Ref)
    }

    /// Mint through the unique table, refusing once the configured cap
    /// is reached (an uncapped manager never refuses).
    fn mk_checked(&mut self, var: u32, low: u32, high: u32) -> Result<u32, crate::BddError> {
        match self.node_cap {
            None => Ok(self.table.mk(var, low, high)),
            Some(cap) => self
                .table
                .mk_capped(var, low, high, cap)
                .map_err(|nodes| crate::BddError::TableExhausted { nodes, cap }),
        }
    }

    /// Evaluate the function under a full variable assignment.
    ///
    /// Returns [`BddError::AssignmentTooShort`] when `assignment` has
    /// fewer bits than the manager has variables (previously this
    /// `assert!`ed, which turned a malformed query into a library
    /// panic — exactly the class of boundary defect the no-panic-in-lib
    /// policy exists to keep out of the verification hot path).
    pub fn eval(&self, r: Ref, assignment: &[bool]) -> Result<bool, crate::BddError> {
        if assignment.len() < self.num_vars as usize {
            return Err(crate::BddError::AssignmentTooShort {
                got: assignment.len(),
                need: self.num_vars as usize,
            });
        }
        let mut cur = r.0;
        loop {
            match cur {
                0 => return Ok(false),
                1 => return Ok(true),
                _ => {
                    let (var, low, high) = self.node(cur);
                    cur = if assignment[var as usize] { high } else { low };
                }
            }
        }
    }

    fn not_rec(&mut self, a: u32, local: &mut FnvMap<u32, u32>) -> u32 {
        match a {
            0 => return 1,
            1 => return 0,
            _ => {}
        }
        if let Some(r) = self.not_cache.get(a) {
            self.stats.apply_hits += 1;
            return r;
        }
        if let Some(&r) = local.get(&a) {
            self.stats.apply_hits += 1;
            return r;
        }
        self.stats.apply_misses += 1;
        let (var, low, high) = self.node(a);
        let l = self.not_rec(low, local);
        let h = self.not_rec(high, local);
        let r = if l == h { l } else { self.table.mk(var, l, h) };
        match self.profile {
            EngineProfile::Cached => {
                self.not_cache.put(a, r);
                // Negation is an involution on ROBDDs, so the reverse
                // mapping is equally valid — the ITE-style short
                // circuit that makes ¬¬f (ubiquitous in diff/implies
                // chains) a hit instead of a second full traversal.
                self.not_cache.put(r, a);
            }
            EngineProfile::Uncached => {
                local.insert(a, r);
            }
        }
        r
    }

    fn not_rec_capped(
        &mut self,
        a: u32,
        local: &mut FnvMap<u32, u32>,
    ) -> Result<u32, crate::BddError> {
        match a {
            0 => return Ok(1),
            1 => return Ok(0),
            _ => {}
        }
        if let Some(r) = self.not_cache.get(a) {
            self.stats.apply_hits += 1;
            return Ok(r);
        }
        if let Some(&r) = local.get(&a) {
            self.stats.apply_hits += 1;
            return Ok(r);
        }
        self.stats.apply_misses += 1;
        let (var, low, high) = self.node(a);
        let l = self.not_rec_capped(low, local)?;
        let h = self.not_rec_capped(high, local)?;
        let r = if l == h { l } else { self.mk_checked(var, l, h)? };
        match self.profile {
            EngineProfile::Cached => {
                self.not_cache.put(a, r);
                self.not_cache.put(r, a);
            }
            EngineProfile::Uncached => {
                local.insert(a, r);
            }
        }
        Ok(r)
    }

    fn apply_capped(
        &mut self,
        op: Op,
        a: u32,
        b: u32,
        local: &mut FnvMap<(u32, u32), u32>,
    ) -> Result<u32, crate::BddError> {
        if let Some(t) = Self::terminal_case(op, a, b) {
            return Ok(t);
        }
        let (ka, kb) = match op {
            Op::And | Op::Or | Op::Xor => (a.min(b), a.max(b)),
            Op::Diff => (a, b),
        };
        if let Some(r) = self.op_cache.get(op, ka, kb) {
            self.stats.apply_hits += 1;
            return Ok(r);
        }
        if let Some(&r) = local.get(&(ka, kb)) {
            self.stats.apply_hits += 1;
            return Ok(r);
        }
        self.stats.apply_misses += 1;

        let (va, la, ha) = self.node(a);
        let (vb, lb, hb) = self.node(b);
        let top = va.min(vb);
        let (al, ah) = if va == top { (la, ha) } else { (a, a) };
        let (bl, bh) = if vb == top { (lb, hb) } else { (b, b) };

        let l = self.apply_capped(op, al, bl, local)?;
        let h = self.apply_capped(op, ah, bh, local)?;
        let r = if l == h { l } else { self.mk_checked(top, l, h)? };

        match self.profile {
            EngineProfile::Cached => {
                self.op_cache.put(op, ka, kb, r);
            }
            EngineProfile::Uncached => {
                local.insert((ka, kb), r);
            }
        }
        Ok(r)
    }

    fn binop(&mut self, op: Op, a: Ref, b: Ref) -> Ref {
        // Terminal cases first: they touch no counter, cache or scratch
        // map, so skipping the scratch take/clear changes nothing else.
        if let Some(t) = Self::terminal_case(op, a.0, b.0) {
            return Ref(t);
        }
        // Same scratch-reuse pattern as `not`: allocation persists,
        // memoisation stays within this single call.
        let mut local = std::mem::take(&mut self.apply_scratch);
        local.clear();
        let r = self.apply(op, a.0, b.0, &mut local);
        self.apply_scratch = local;
        Ref(r)
    }

    fn terminal_case(op: Op, a: u32, b: u32) -> Option<u32> {
        match op {
            Op::And => {
                if a == 0 || b == 0 {
                    Some(0)
                } else if a == 1 {
                    Some(b)
                } else if b == 1 || a == b {
                    Some(a)
                } else {
                    None
                }
            }
            Op::Or => {
                if a == 1 || b == 1 {
                    Some(1)
                } else if a == 0 {
                    Some(b)
                } else if b == 0 || a == b {
                    Some(a)
                } else {
                    None
                }
            }
            Op::Diff => {
                if a == 0 || b == 1 || a == b {
                    Some(0)
                } else if b == 0 {
                    Some(a)
                } else {
                    None
                }
            }
            Op::Xor => {
                if a == b {
                    Some(0)
                } else if a == 0 {
                    Some(b)
                } else if b == 0 {
                    Some(a)
                } else {
                    None
                }
            }
        }
    }

    fn apply(&mut self, op: Op, a: u32, b: u32, local: &mut FnvMap<(u32, u32), u32>) -> u32 {
        if let Some(t) = Self::terminal_case(op, a, b) {
            return t;
        }
        // Commutative ops get a normalised cache key.
        let (ka, kb) = match op {
            Op::And | Op::Or | Op::Xor => (a.min(b), a.max(b)),
            Op::Diff => (a, b),
        };
        if let Some(r) = self.op_cache.get(op, ka, kb) {
            self.stats.apply_hits += 1;
            return r;
        }
        if let Some(&r) = local.get(&(ka, kb)) {
            self.stats.apply_hits += 1;
            return r;
        }
        self.stats.apply_misses += 1;

        let (va, la, ha) = self.node(a);
        let (vb, lb, hb) = self.node(b);
        let top = va.min(vb);
        let (al, ah) = if va == top { (la, ha) } else { (a, a) };
        let (bl, bh) = if vb == top { (lb, hb) } else { (b, b) };

        let l = self.apply(op, al, bl, local);
        let h = self.apply(op, ah, bh, local);
        let r = if l == h { l } else { self.table.mk(top, l, h) };

        match self.profile {
            EngineProfile::Cached => {
                self.op_cache.put(op, ka, kb, r);
            }
            EngineProfile::Uncached => {
                local.insert((ka, kb), r);
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> BddManager {
        BddManager::new(4, EngineProfile::Cached)
    }

    #[test]
    fn import_copies_a_function_between_engines() {
        // The same function built in two managers of different engines
        // imports to the very node the target built itself.
        let build = |m: &mut BddManager| {
            let (a, b, c) = (m.var(0), m.nvar(2), m.var(3));
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        let mut src = BddManager::new(4, EngineProfile::Uncached);
        let f_src = build(&mut src);
        let mut dst = mgr();
        let _unrelated = dst.var(1);
        let f_dst = build(&mut dst);
        assert_eq!(dst.import(&src, f_src), Ok(f_dst));
        assert_eq!(dst.import(&src, TRUE), Ok(TRUE));
        assert_eq!(dst.import(&src, FALSE), Ok(FALSE));
        let mut narrow = BddManager::new(3, EngineProfile::Cached);
        assert_eq!(
            narrow.import(&src, f_src),
            Err(crate::BddError::VariableOutOfRange { var: 3, count: 3 })
        );
    }

    #[test]
    fn terminals_behave_as_constants() {
        let mut m = mgr();
        assert_eq!(m.and(TRUE, FALSE), FALSE);
        assert_eq!(m.or(TRUE, FALSE), TRUE);
        assert_eq!(m.not(FALSE), TRUE);
        assert_eq!(m.diff(TRUE, TRUE), FALSE);
        assert_eq!(m.xor(TRUE, TRUE), FALSE);
    }

    #[test]
    fn var_and_nvar_are_complements() {
        let mut m = mgr();
        let a = m.var(2);
        let na = m.nvar(2);
        assert_eq!(m.not(a), na);
        assert_eq!(m.and(a, na), FALSE);
        assert_eq!(m.or(a, na), TRUE);
    }

    #[test]
    fn and_is_commutative_and_idempotent() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        assert_eq!(m.and(a, b), m.and(b, a));
        assert_eq!(m.and(a, a), a);
    }

    #[test]
    fn de_morgan_holds() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(3);
        let lhs = {
            let ab = m.and(a, b);
            m.not(ab)
        };
        let rhs = {
            let na = m.not(a);
            let nb = m.not(b);
            m.or(na, nb)
        };
        assert_eq!(lhs, rhs, "canonical form must make ¬(a∧b) == ¬a∨¬b");
    }

    #[test]
    fn diff_matches_and_not() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let d = m.diff(a, b);
        let nb = m.not(b);
        let anb = m.and(a, nb);
        assert_eq!(d, anb);
    }

    #[test]
    fn ite_matches_definition() {
        let mut m = mgr();
        let f = m.var(0);
        let g = m.var(1);
        let h = m.var(2);
        let ite = m.ite(f, g, h);
        let fg = m.and(f, g);
        let nf = m.not(f);
        let nfh = m.and(nf, h);
        let expect = m.or(fg, nfh);
        assert_eq!(ite, expect);
    }

    #[test]
    fn eval_agrees_with_structure() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b); // a & b
        assert_eq!(m.eval(f, &[true, true, false, false]), Ok(true));
        assert_eq!(m.eval(f, &[true, false, false, false]), Ok(false));
        assert_eq!(m.eval(f, &[false, true, false, false]), Ok(false));
    }

    #[test]
    fn eval_short_assignment_is_a_typed_error() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        // Regression: this used to `assert!` (a library panic) instead
        // of returning an error.
        assert_eq!(
            m.eval(f, &[true, true]),
            Err(crate::BddError::AssignmentTooShort { got: 2, need: 4 })
        );
        assert_eq!(
            m.eval(f, &[]),
            Err(crate::BddError::AssignmentTooShort { got: 0, need: 4 })
        );
        // Exactly num_vars bits is the boundary and must succeed.
        assert_eq!(m.eval(f, &[true, true, false, false]), Ok(true));
        // Extra bits beyond num_vars are ignored, not an error.
        assert_eq!(m.eval(f, &[true, true, false, false, true]), Ok(true));
    }

    #[test]
    fn implies_detects_subset() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        assert!(m.implies(ab, a));
        assert!(!m.implies(a, ab));
    }

    #[test]
    fn gc_preserves_protected_roots() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        m.ref_inc(f);
        m.gc();
        // f must still evaluate correctly after GC.
        assert_eq!(m.eval(f, &[true, true, false, false]), Ok(true));
        // Rebuilding the same function after GC yields the same node.
        let a2 = m.var(0);
        let b2 = m.var(1);
        assert_eq!(m.and(a2, b2), f);
    }

    #[test]
    fn gc_reclaims_unprotected_intermediates() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let _f = m.and(a, b);
        let before = m.node_count();
        let reclaimed = m.gc();
        assert!(reclaimed > 0);
        assert!(m.node_count() < before);
    }

    #[test]
    fn cached_profile_reuses_work_across_calls() {
        let mut m = BddManager::new(16, EngineProfile::Cached);
        let mut f = TRUE;
        for i in 0..16 {
            let v = m.var(i);
            f = m.and(f, v);
        }
        let misses_before = m.stats().apply_misses;
        // Recompute the same chain: every apply should hit the cache.
        let mut g = TRUE;
        for i in 0..16 {
            let v = m.var(i);
            g = m.and(g, v);
        }
        assert_eq!(f, g);
        assert_eq!(m.stats().apply_misses, misses_before);
    }

    #[test]
    fn uncached_profile_redoes_work_across_calls() {
        let mut m = BddManager::new(16, EngineProfile::Uncached);
        let mut f = TRUE;
        for i in 0..16 {
            let v = m.var(i);
            f = m.and(f, v);
        }
        let misses_before = m.stats().apply_misses;
        let mut g = TRUE;
        for i in 0..16 {
            let v = m.var(i);
            g = m.and(g, v);
        }
        assert_eq!(f, g, "profiles must agree on results");
        assert!(
            m.stats().apply_misses > misses_before,
            "uncached profile must redo work"
        );
    }

    #[test]
    fn double_negation_is_a_cache_hit_under_cached() {
        let mut m = BddManager::new(8, EngineProfile::Cached);
        let mut f = TRUE;
        for i in 0..8 {
            let v = m.var(i);
            f = m.and(f, v);
        }
        let nf = m.not(f);
        let misses_before = m.stats().apply_misses;
        let nnf = m.not(nf);
        assert_eq!(nnf, f, "¬¬f must be f");
        assert_eq!(
            m.stats().apply_misses,
            misses_before,
            "the involution entry answers ¬¬f without a second traversal"
        );
    }

    #[test]
    fn uncached_not_redoes_work_despite_scratch_reuse() {
        let mut m = BddManager::new(8, EngineProfile::Uncached);
        let mut f = TRUE;
        for i in 0..8 {
            let v = m.var(i);
            f = m.and(f, v);
        }
        let n1 = m.not(f);
        let misses_before = m.stats().apply_misses;
        let n2 = m.not(f);
        assert_eq!(n1, n2, "profiles must agree on results");
        assert!(
            m.stats().apply_misses > misses_before,
            "the reused scratch buffer must not leak memo entries across calls"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn var_out_of_range_panics() {
        let mut m = mgr();
        let _ = m.var(4);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn unbalanced_ref_dec_panics() {
        let mut m = mgr();
        let a = m.var(0);
        m.ref_dec(a);
    }

    #[test]
    fn node_cap_reports_exhaustion() {
        let mut m = BddManager::with_node_cap(8, EngineProfile::Cached, 3);
        assert_eq!(m.node_cap(), Some(3));
        assert!(m.check_capacity().is_ok());
        let mut f = TRUE;
        for i in 0..8 {
            let v = m.var(i);
            f = m.and(f, v);
        }
        assert!(m.exhausted());
        match m.check_capacity() {
            Err(crate::BddError::TableExhausted { nodes, cap }) => {
                assert!(nodes > cap);
                assert_eq!(cap, 3);
            }
            other => panic!("expected TableExhausted, got {other:?}"),
        }
        // Absorption path: raise the cap and the manager keeps working.
        m.set_node_cap(Some(1 << 20));
        assert!(!m.exhausted());
        assert!(m.check_capacity().is_ok());
    }

    /// The workload shared by the hard-cap tests: a var chain under
    /// `try_*` ops ending in the tautology `f ∨ ¬f == TRUE`.
    fn try_workload(m: &mut BddManager) -> Result<Ref, crate::BddError> {
        let mut f = TRUE;
        for i in 0..m.num_vars() {
            let v = m.var(i);
            f = m.try_and(f, v)?;
        }
        let n = m.try_not(f)?;
        m.try_or(f, n)
    }

    #[test]
    fn try_ops_refuse_before_exceeding_cap() {
        // Measure the workload's exact node demand on an uncapped manager.
        let mut probe = BddManager::new(8, EngineProfile::Cached);
        assert_eq!(try_workload(&mut probe), Ok(TRUE));
        let need = probe.node_count();
        assert!(need > 2);

        // cap = need: the whole workload fits and never trips the cap.
        let mut exact = BddManager::with_node_cap(8, EngineProfile::Cached, need);
        assert_eq!(try_workload(&mut exact), Ok(TRUE));
        assert_eq!(exact.node_count(), need);
        assert!(exact.check_capacity().is_ok());

        // cap = need - 1: the workload must fail with a typed error —
        // and the table must have refused *before* exceeding the cap,
        // unlike the soft-cap path which only reports the overrun
        // after the fact.
        let cap = need - 1;
        let mut tight = BddManager::with_node_cap(8, EngineProfile::Cached, cap);
        match try_workload(&mut tight) {
            Err(crate::BddError::TableExhausted { nodes, cap: c }) => {
                assert_eq!(c, cap);
                assert!(nodes <= cap, "refusal must come before the cap is exceeded");
            }
            other => panic!("expected TableExhausted, got {other:?}"),
        }
        assert!(
            tight.node_count() <= cap,
            "hard cap violated: {} live nodes under cap {cap}",
            tight.node_count()
        );
        // check_capacity (the soft, after-the-fact probe) agrees the
        // cap was never crossed.
        assert!(tight.check_capacity().is_ok());

        // Absorption: raise the cap by one and the *same* manager
        // finishes the workload — nothing was wedged, and the memoised
        // subresults from the failed attempt are reused.
        tight.set_node_cap(Some(need));
        assert_eq!(try_workload(&mut tight), Ok(TRUE));
        assert_eq!(tight.node_count(), need);
    }

    #[test]
    fn manager_stays_usable_after_try_error() {
        // A tiny cap exhausts quickly…
        let mut m = BddManager::with_node_cap(8, EngineProfile::Cached, 3);
        assert!(try_workload(&mut m).is_err());
        // …but the manager still answers queries over already-built
        // structure (hash-cons/memo hits allocate nothing)…
        let a = m.var(0);
        let b = m.var(1);
        m.ref_inc(a);
        m.ref_inc(b);
        assert_eq!(m.try_and(a, b).map(|r| r == FALSE), Ok(false));
        // …the orphans from the failed attempt are ordinary garbage…
        m.gc();
        assert!(m.node_count() <= 3);
        // …and capacity-respecting work proceeds afterwards.
        let a = m.var(0);
        let b = m.var(1);
        assert!(m.try_and(a, b).is_ok());
    }

    #[test]
    fn try_ops_agree_with_infallible_ops() {
        let mut m = BddManager::new(6, EngineProfile::Cached);
        let a = m.var(0);
        let b = m.var(3);
        let and = m.and(a, b);
        let or = m.or(a, b);
        let diff = m.diff(a, b);
        let xor = m.xor(a, b);
        let not = m.not(a);
        assert_eq!(m.try_and(a, b), Ok(and));
        assert_eq!(m.try_or(a, b), Ok(or));
        assert_eq!(m.try_diff(a, b), Ok(diff));
        assert_eq!(m.try_xor(a, b), Ok(xor));
        assert_eq!(m.try_not(a), Ok(not));

        let mut u = BddManager::new(6, EngineProfile::Uncached);
        let a = u.var(0);
        let b = u.var(3);
        let diff = u.diff(a, b);
        assert_eq!(u.try_diff(a, b), Ok(diff), "uncached try_diff composes not+and");
    }

    #[test]
    fn memo_caches_are_bounded_and_count_evictions() {
        // Production geometry is fixed at construction and reported via
        // stats(); the caches can never outgrow it.
        let m = mgr();
        assert_eq!(m.stats().op_cache_capacity, OP_CACHE_WAYS);
        assert_eq!(m.stats().not_cache_capacity, NOT_CACHE_WAYS);
        assert_eq!(m.stats().cache_evictions, 0);

        // A deliberately tiny cache forces collisions: more distinct
        // memo keys than slots must evict (pigeonhole), while results
        // stay correct because lost entries only cause re-derivation
        // through the unique table.
        let mut tiny = BddManager::with_cache_ways(12, EngineProfile::Cached, 8, 4);
        let mut f = FALSE;
        for i in 0..12 {
            let v = tiny.var(i);
            let w = tiny.var((i + 5) % 12);
            let c = tiny.and(v, w);
            f = tiny.xor(f, c);
        }
        let nf = tiny.not(f);
        assert_eq!(tiny.xor(f, nf), TRUE);
        let s = tiny.stats();
        assert_eq!(s.op_cache_capacity, 8, "capacity must not grow under load");
        assert_eq!(s.not_cache_capacity, 4);
        assert!(s.apply_misses > 8, "workload must overflow the op cache");
        assert!(s.cache_evictions > 0, "colliding keys must be counted as evictions");

        // The same workload on a production-sized manager agrees on
        // every result (lossy replacement never changes semantics).
        let mut big = BddManager::new(12, EngineProfile::Cached);
        let mut g = FALSE;
        for i in 0..12 {
            let v = big.var(i);
            let w = big.var((i + 5) % 12);
            let c = big.and(v, w);
            g = big.xor(g, c);
        }
        assert_eq!(g, f, "tiny-cache and big-cache managers must mint identically");
    }

    #[test]
    fn uncapped_manager_never_exhausts() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let _ = m.and(a, b);
        assert_eq!(m.node_cap(), None);
        assert!(!m.exhausted());
        assert!(m.check_capacity().is_ok());
    }
}
