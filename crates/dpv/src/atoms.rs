//! Dynamic atomic-predicate maintenance — APKeep's core data structure.
//!
//! APKeep keeps the network's atomic predicates *incrementally*: each
//! behaviour change `(device, header space, from-port, to-port)` splits
//! the atoms that straddle the moved space and merges atoms that become
//! behaviourally indistinguishable. Because every device's PPM
//! partitions the header space, an atom is fully described by its
//! *signature* — the action it receives at each device — and two atoms
//! merge exactly when their signatures coincide.

use crate::network::Action;
use netrepro_bdd::{BddManager, Ref, FALSE, TRUE};
use std::collections::HashMap;

/// One atom: its header space and per-device action signature.
#[derive(Debug, Clone)]
struct Atom {
    pred: Ref,
    signature: Vec<Action>,
}

/// The dynamically maintained atom set.
#[derive(Debug)]
pub struct DynamicAtoms {
    atoms: Vec<Atom>,
    /// Signature → atom index (kept in sync for eager merging).
    index: HashMap<Vec<Action>, usize>,
    /// Split/merge counters for the workload metrics.
    pub splits: u64,
    /// Number of merges performed.
    pub merges: u64,
}

impl DynamicAtoms {
    /// The initial single atom: everything dropped everywhere.
    pub fn new(num_devices: usize) -> Self {
        let signature = vec![Action::Drop; num_devices];
        let mut index = HashMap::new();
        index.insert(signature.clone(), 0);
        DynamicAtoms {
            atoms: vec![Atom { pred: TRUE, signature }],
            index,
            splits: 0,
            merges: 0,
        }
    }

    /// Current number of atomic predicates.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True only before the first atom exists (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Apply one behaviour change: on `device`, header space `hs` moves
    /// from action `from` to action `to`.
    pub fn apply_change(
        &mut self,
        m: &mut BddManager,
        device: usize,
        hs: Ref,
        from: Action,
        to: Action,
    ) {
        debug_assert_ne!(from, to, "not a behaviour change");
        let mut touched: Vec<Atom> = Vec::new();
        let mut i = 0;
        while i < self.atoms.len() {
            if self.atoms[i].signature[device] != from {
                i += 1;
                continue;
            }
            let inter = m.and(self.atoms[i].pred, hs);
            if inter == FALSE {
                i += 1;
                continue;
            }
            // Remove the atom (swap_remove keeps the scan O(n)).
            self.index.remove(&self.atoms[i].signature);
            let atom = self.atoms.swap_remove(i);
            if let Some(moved) = self.atoms.get(i) {
                self.index.insert(moved.signature.clone(), i);
            }
            let outside = m.diff(atom.pred, hs);
            if outside != FALSE {
                // Straddling atom: split.
                self.splits += 1;
                m.ref_inc(outside);
                touched.push(Atom { pred: outside, signature: atom.signature.clone() });
            }
            m.ref_inc(inter);
            let mut sig = atom.signature;
            sig[device] = to;
            touched.push(Atom { pred: inter, signature: sig });
            if !atom.pred.is_terminal() {
                m.ref_dec(atom.pred);
            }
            // Do not advance: swap_remove placed a new atom at `i`.
        }
        // Re-insert, merging into existing atoms with equal signatures.
        for atom in touched {
            match self.index.get(&atom.signature) {
                Some(&idx) => {
                    self.merges += 1;
                    let merged = m.or(self.atoms[idx].pred, atom.pred);
                    m.ref_inc(merged);
                    if !self.atoms[idx].pred.is_terminal() {
                        m.ref_dec(self.atoms[idx].pred);
                    }
                    if !atom.pred.is_terminal() {
                        m.ref_dec(atom.pred);
                    }
                    self.atoms[idx].pred = merged;
                }
                None => {
                    self.index.insert(atom.signature.clone(), self.atoms.len());
                    self.atoms.push(atom);
                }
            }
        }
    }

    /// Sanity invariants: atoms are disjoint, exhaustive, non-empty and
    /// uniquely signed. Used by tests; O(n²) BDD work.
    pub fn check_invariants(&self, m: &mut BddManager) -> Result<(), String> {
        let mut union = FALSE;
        for (i, a) in self.atoms.iter().enumerate() {
            if a.pred == FALSE {
                return Err(format!("atom {i} is empty"));
            }
            for (j, b) in self.atoms.iter().enumerate().skip(i + 1) {
                if m.and(a.pred, b.pred) != FALSE {
                    return Err(format!("atoms {i} and {j} overlap"));
                }
                if a.signature == b.signature {
                    return Err(format!("atoms {i} and {j} share a signature (unmerged)"));
                }
            }
            union = m.or(union, a.pred);
        }
        if union != TRUE {
            return Err("atoms do not cover the header space".to_string());
        }
        if self.index.len() != self.atoms.len() {
            return Err("signature index out of sync".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrepro_bdd::EngineProfile;
    use netrepro_graph::EdgeId;

    fn fwd(e: u32) -> Action {
        Action::Forward(EdgeId(e))
    }

    #[test]
    fn starts_as_one_atom() {
        let d = DynamicAtoms::new(3);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn change_splits_the_universe() {
        let mut m = BddManager::new(8, EngineProfile::Cached);
        let mut d = DynamicAtoms::new(2);
        let half = m.field_prefix(0, 8, 0b1000_0000, 1);
        m.ref_inc(half);
        d.apply_change(&mut m, 0, half, Action::Drop, fwd(0));
        assert_eq!(d.len(), 2);
        d.check_invariants(&mut m).unwrap();
    }

    #[test]
    fn inverse_change_merges_back() {
        let mut m = BddManager::new(8, EngineProfile::Cached);
        let mut d = DynamicAtoms::new(2);
        let half = m.field_prefix(0, 8, 0b1000_0000, 1);
        m.ref_inc(half);
        d.apply_change(&mut m, 0, half, Action::Drop, fwd(0));
        assert_eq!(d.len(), 2);
        d.apply_change(&mut m, 0, half, fwd(0), Action::Drop);
        assert_eq!(d.len(), 1, "undo must merge the atoms back");
        assert!(d.merges >= 1);
        d.check_invariants(&mut m).unwrap();
    }

    #[test]
    fn changes_on_different_devices_compose() {
        let mut m = BddManager::new(8, EngineProfile::Cached);
        let mut d = DynamicAtoms::new(2);
        let left = m.field_prefix(0, 8, 0b1000_0000, 1);
        m.ref_inc(left);
        let quarter = m.field_prefix(0, 8, 0b1100_0000, 2);
        m.ref_inc(quarter);
        d.apply_change(&mut m, 0, left, Action::Drop, fwd(0));
        d.apply_change(&mut m, 1, quarter, Action::Drop, fwd(1));
        // Atoms: left∖quarter, quarter, complement-of-left -> 3.
        assert_eq!(d.len(), 3);
        d.check_invariants(&mut m).unwrap();
    }

    #[test]
    fn overlapping_change_splits_straddlers() {
        let mut m = BddManager::new(8, EngineProfile::Cached);
        let mut d = DynamicAtoms::new(1);
        let left = m.field_prefix(0, 8, 0b0000_0000, 1);
        m.ref_inc(left);
        d.apply_change(&mut m, 0, left, Action::Drop, fwd(0));
        // The middle half `01* ∪ 10*` straddles both current atoms.
        let low = m.field_prefix(0, 8, 0b0100_0000, 2);
        m.ref_inc(low);
        let high = m.field_prefix(0, 8, 0b1000_0000, 2);
        m.ref_inc(high);
        let middle = m.or(low, high);
        m.ref_inc(middle);
        d.apply_change(&mut m, 0, middle, Action::Drop, fwd(1));
        d.check_invariants(&mut m).unwrap();
        assert!(d.splits >= 1);
    }
}
