//! Atomic predicates (Yang & Lam, ToN 2016).
//!
//! Given the set of port predicates of a network, the *atomic
//! predicates* are the coarsest partition of header space such that
//! every port predicate is a union of atoms. Once computed, every
//! set operation on predicates collapses to cheap bit-set operations on
//! atom ids — the source of AP's real-time verification speed.

use crate::network::{Action, Network};
use netrepro_bdd::{BddError, BddManager, EngineProfile, Ref, FALSE, TRUE};
use netrepro_graph::NodeId;

/// A set of atom ids, stored as a bitmask.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AtomSet {
    words: Vec<u64>,
}

impl AtomSet {
    /// The empty set over a universe of `n` atoms.
    pub fn empty(n: usize) -> Self {
        AtomSet { words: vec![0; n.div_ceil(64)] }
    }

    /// The full set over a universe of `n` atoms.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    /// Insert atom `i`.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set union (sizes must match).
    pub fn union(&self, other: &AtomSet) -> AtomSet {
        AtomSet { words: self.words.iter().zip(&other.words).map(|(a, b)| a | b).collect() }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &AtomSet) -> AtomSet {
        AtomSet { words: self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect() }
    }

    /// Set difference `self \ other`.
    pub fn minus(&self, other: &AtomSet) -> AtomSet {
        AtomSet { words: self.words.iter().zip(&other.words).map(|(a, b)| a & !b).collect() }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of atoms in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate over member atom ids.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter(move |b| w >> b & 1 == 1).map(move |b| wi * 64 + b)
        })
    }

    /// In-place union; returns whether `self` grew.
    pub fn union_in_place(&mut self, other: &AtomSet) -> bool {
        let mut grew = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let n = *a | b;
            if n != *a {
                grew = true;
                *a = n;
            }
        }
        grew
    }
}

/// The computed atom universe.
#[derive(Debug)]
pub struct AtomicPredicates {
    /// Disjoint, jointly exhaustive predicates (each protected in the
    /// manager until dropped via [`AtomicPredicates::release`]).
    pub atoms: Vec<Ref>,
}

impl AtomicPredicates {
    /// Compute the atoms of `predicates` (the classic refinement loop:
    /// start with `{TRUE}` and split every atom by each predicate).
    pub fn compute(m: &mut BddManager, predicates: &[Ref]) -> Self {
        let mut atoms: Vec<Ref> = vec![TRUE];
        for &p in predicates {
            let mut next: Vec<Ref> = Vec::with_capacity(atoms.len() * 2);
            for &a in &atoms {
                let inside = m.and(a, p);
                let outside = m.diff(a, p);
                if inside != FALSE {
                    m.ref_inc(inside);
                    next.push(inside);
                }
                if outside != FALSE {
                    m.ref_inc(outside);
                    next.push(outside);
                }
            }
            for a in atoms {
                if !a.is_terminal() {
                    m.ref_dec(a);
                }
            }
            atoms = next;
        }
        AtomicPredicates { atoms }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True only for the degenerate single-atom universe.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Express `p` as the set of atoms it contains. `p` must be a union
    /// of atoms (true for any predicate fed into `compute`, or any
    /// boolean combination of them).
    pub fn represent(&self, m: &mut BddManager, p: Ref) -> AtomSet {
        let mut s = AtomSet::empty(self.atoms.len());
        for (i, &a) in self.atoms.iter().enumerate() {
            if m.and(a, p) != FALSE {
                debug_assert!(m.implies(a, p), "predicate is not a union of atoms");
                s.insert(i);
            }
        }
        s
    }

    /// The BDD for an atom set (union of its atoms).
    pub fn to_bdd(&self, m: &mut BddManager, s: &AtomSet) -> Ref {
        let mut acc = FALSE;
        for i in s.iter() {
            acc = m.or(acc, self.atoms[i]);
        }
        acc
    }

    /// Release the atom references.
    pub fn release(self, m: &mut BddManager) {
        for a in self.atoms {
            if !a.is_terminal() {
                m.ref_dec(a);
            }
        }
    }
}

/// A fully-built AP verifier: the atom universe plus every device's
/// forwarding table expressed as atom sets.
#[derive(Debug)]
pub struct ApVerifier {
    /// The shared BDD manager.
    pub manager: BddManager,
    /// The atom universe.
    pub atoms: AtomicPredicates,
    /// Per-device `(action, atom-set)` tables (disjoint per device).
    pub tables: Vec<Vec<(Action, AtomSet)>>,
    /// Number of source predicates the atoms were computed from.
    pub num_predicates: usize,
    /// Topology edge endpoints, copied so traversals need no graph.
    pub(crate) edge_endpoints: Vec<(NodeId, NodeId)>,
}

impl ApVerifier {
    /// Compile `net` under the given engine profile.
    ///
    /// This is the *predicate computation* phase whose latency Table D
    /// compares across BDD engine profiles (JDD vs JavaBDD stand-ins).
    pub fn build(net: &Network, profile: EngineProfile) -> Self {
        let m = net.layout.manager(profile);
        Self::build_in(m, net).unwrap_or_else(|_| {
            // Unreachable with an uncapped manager; degrade to an empty
            // verifier (single TRUE atom, no tables) rather than unwind.
            ApVerifier {
                manager: net.layout.manager(profile),
                atoms: AtomicPredicates { atoms: vec![TRUE] },
                tables: vec![Vec::new(); net.graph.num_nodes()],
                num_predicates: 0,
                edge_endpoints: Vec::new(),
            }
        })
    }

    /// Like [`ApVerifier::build`], but with a soft node-table cap: the
    /// compile aborts with [`BddError::TableExhausted`] (checked between
    /// device compiles and after the atom refinement) instead of growing
    /// without bound. Used by the fault-injection harness to model a
    /// BDD library running out of table space mid-verification.
    pub fn try_build(net: &Network, profile: EngineProfile, node_cap: usize) -> Result<Self, BddError> {
        let mut m = net.layout.manager(profile);
        m.set_node_cap(Some(node_cap));
        Self::build_in(m, net)
    }

    /// Growth-retry absorption: attempt [`ApVerifier::try_build`] with
    /// `initial_cap`, doubling the cap on each [`BddError::TableExhausted`]
    /// up to `max_doublings` times. Returns the verifier and how many
    /// doublings it took — a nonzero count means the fault was absorbed
    /// rather than avoided.
    pub fn build_with_growth(
        net: &Network,
        profile: EngineProfile,
        initial_cap: usize,
        max_doublings: u32,
    ) -> Result<(Self, u32), BddError> {
        let mut cap = initial_cap.max(1);
        let mut doublings = 0;
        loop {
            match Self::try_build(net, profile, cap) {
                Ok(v) => return Ok((v, doublings)),
                Err(BddError::TableExhausted { .. }) if doublings < max_doublings => {
                    cap *= 2;
                    doublings += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn build_in(mut m: BddManager, net: &Network) -> Result<Self, BddError> {
        // Compile every device, keeping the per-action predicates.
        let mut compiled: Vec<Vec<(Action, Ref)>> = Vec::with_capacity(net.graph.num_nodes());
        for v in net.graph.nodes() {
            let pp = net.port_predicates(&mut m, v);
            compiled.push(pp.preds);
            m.check_capacity()?;
        }
        // Atoms from all forwarding/deliver predicates (drop residues are
        // complements of per-device unions, so they refine nothing new,
        // but including them matches the published system).
        let sources: Vec<Ref> = compiled
            .iter()
            .flatten()
            .map(|&(_, p)| p)
            .filter(|p| !p.is_terminal())
            .collect();
        let num_predicates = sources.len();
        let atoms = AtomicPredicates::compute(&mut m, &sources);
        m.check_capacity()?;
        let tables: Vec<Vec<(Action, AtomSet)>> = compiled
            .iter()
            .map(|preds| {
                preds
                    .iter()
                    .map(|&(a, p)| (a, atoms.represent(&mut m, p)))
                    .collect()
            })
            .collect();
        for preds in compiled {
            for (_, p) in preds {
                if !p.is_terminal() {
                    m.ref_dec(p);
                }
            }
        }
        m.check_capacity()?;
        let edge_endpoints = net.graph.edges().map(|e| net.graph.endpoints(e)).collect();
        Ok(ApVerifier { manager: m, atoms, tables, num_predicates, edge_endpoints })
    }

    /// Number of atomic predicates (the headline metric of Tables C/D).
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The atom set delivered locally at `v`.
    pub fn deliver_set(&self, v: NodeId) -> AtomSet {
        self.tables[v.index()]
            .iter()
            .find(|(a, _)| *a == Action::Deliver)
            .map(|(_, s)| s.clone())
            .unwrap_or_else(|| AtomSet::empty(self.atoms.len()))
    }

    /// The atom set dropped at `v`.
    pub fn drop_set(&self, v: NodeId) -> AtomSet {
        self.tables[v.index()]
            .iter()
            .find(|(a, _)| *a == Action::Drop)
            .map(|(_, s)| s.clone())
            .unwrap_or_else(|| AtomSet::empty(self.atoms.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, DatasetOpts};
    use crate::header::HeaderLayout;
    use netrepro_graph::gen::ring;

    #[test]
    fn atomset_basic_ops() {
        let mut a = AtomSet::empty(100);
        a.insert(3);
        a.insert(70);
        assert!(a.contains(3) && a.contains(70) && !a.contains(4));
        assert_eq!(a.len(), 2);
        let mut b = AtomSet::empty(100);
        b.insert(70);
        b.insert(99);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.intersect(&b).len(), 1);
        assert_eq!(a.minus(&b).len(), 1);
        assert!(AtomSet::empty(10).is_empty());
        assert_eq!(AtomSet::full(65).len(), 65);
    }

    #[test]
    fn atomset_iter_roundtrip() {
        let mut a = AtomSet::empty(130);
        for i in [0, 63, 64, 129] {
            a.insert(i);
        }
        let got: Vec<usize> = a.iter().collect();
        assert_eq!(got, vec![0, 63, 64, 129]);
    }

    #[test]
    fn union_in_place_reports_growth() {
        let mut a = AtomSet::empty(10);
        a.insert(1);
        let mut b = AtomSet::empty(10);
        b.insert(2);
        assert!(a.union_in_place(&b));
        assert!(!a.union_in_place(&b));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn atoms_of_no_predicates_is_true() {
        let mut m = BddManager::new(4, EngineProfile::Cached);
        let ap = AtomicPredicates::compute(&mut m, &[]);
        assert_eq!(ap.len(), 1);
        assert_eq!(ap.atoms[0], TRUE);
    }

    #[test]
    fn atoms_partition_space() {
        let mut m = BddManager::new(4, EngineProfile::Cached);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let ap = AtomicPredicates::compute(&mut m, &[a, ab]);
        // Atoms: a&b, a&!b, !a -> 3 atoms.
        assert_eq!(ap.len(), 3);
        // Disjoint and exhaustive.
        let mut total = 0.0;
        for (i, &x) in ap.atoms.iter().enumerate() {
            total += m.sat_count(x);
            for &y in &ap.atoms[i + 1..] {
                assert_eq!(m.and(x, y), FALSE);
            }
        }
        assert_eq!(total, 16.0);
    }

    #[test]
    fn represent_and_back_is_identity() {
        let mut m = BddManager::new(4, EngineProfile::Cached);
        let a = m.var(0);
        let b = m.var(1);
        let ap = AtomicPredicates::compute(&mut m, &[a, b]);
        let s = ap.represent(&mut m, a);
        let back = ap.to_bdd(&mut m, &s);
        assert_eq!(back, a);
        // Boolean ops commute with atom-set ops.
        let sb = ap.represent(&mut m, b);
        let ab = m.and(a, b);
        assert_eq!(ap.represent(&mut m, ab), s.intersect(&sb));
    }

    #[test]
    fn verifier_counts_are_profile_independent() {
        let ds = generate(ring(5, 1.0), HeaderLayout::new(12), &DatasetOpts::default());
        let fast = ApVerifier::build(&ds.network, EngineProfile::Cached);
        let slow = ApVerifier::build(&ds.network, EngineProfile::Uncached);
        assert_eq!(fast.num_atoms(), slow.num_atoms());
        assert!(fast.num_atoms() >= 5, "at least one atom per owned prefix");
    }

    #[test]
    fn try_build_reports_exhaustion_on_tiny_cap() {
        let ds = generate(ring(5, 1.0), HeaderLayout::new(12), &DatasetOpts::default());
        let err = ApVerifier::try_build(&ds.network, EngineProfile::Cached, 4).unwrap_err();
        assert!(matches!(err, BddError::TableExhausted { cap: 4, .. }), "got {err:?}");
    }

    #[test]
    fn try_build_with_ample_cap_matches_build() {
        let ds = generate(ring(5, 1.0), HeaderLayout::new(12), &DatasetOpts::default());
        let plain = ApVerifier::build(&ds.network, EngineProfile::Cached);
        let capped = ApVerifier::try_build(&ds.network, EngineProfile::Cached, 1 << 20).unwrap();
        assert_eq!(plain.num_atoms(), capped.num_atoms());
    }

    #[test]
    fn growth_retry_absorbs_exhaustion() {
        let ds = generate(ring(5, 1.0), HeaderLayout::new(12), &DatasetOpts::default());
        let plain = ApVerifier::build(&ds.network, EngineProfile::Cached);
        let (v, doublings) =
            ApVerifier::build_with_growth(&ds.network, EngineProfile::Cached, 4, 20).unwrap();
        assert!(doublings > 0, "tiny initial cap must force at least one doubling");
        assert_eq!(v.num_atoms(), plain.num_atoms(), "absorbed build must agree");
        // Exhausting the retry budget surfaces the typed error instead.
        let err = ApVerifier::build_with_growth(&ds.network, EngineProfile::Cached, 1, 1)
            .unwrap_err();
        assert!(matches!(err, BddError::TableExhausted { .. }));
    }

    #[test]
    fn tables_partition_per_device() {
        let ds = generate(ring(4, 1.0), HeaderLayout::new(12), &DatasetOpts::default());
        let v = ApVerifier::build(&ds.network, EngineProfile::Cached);
        let universe = AtomSet::full(v.num_atoms());
        for t in &v.tables {
            let mut acc = AtomSet::empty(v.num_atoms());
            for (i, (_, s)) in t.iter().enumerate() {
                for (_, s2) in &t[i + 1..] {
                    assert!(s.intersect(s2).is_empty(), "device table overlaps");
                }
                acc = acc.union(s);
            }
            assert_eq!(acc, universe, "device table not exhaustive");
        }
    }
}
