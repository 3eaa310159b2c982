//! Convenience constructors for the predicate shapes data-plane
//! verification needs: literal cubes, fixed-width bit-field equality and
//! IP-style prefix matches.

use crate::manager::BddManager;
use crate::node::{Ref, FALSE, TRUE};

/// A single variable literal: the variable index and its polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Literal {
    /// Variable index.
    pub var: u32,
    /// `true` for the positive literal, `false` for the negated one.
    pub positive: bool,
}

impl BddManager {
    /// Conjunction of the given literals (a *cube*). The empty cube is
    /// `TRUE`.
    pub fn cube(&mut self, literals: &[Literal]) -> Ref {
        // Build bottom-up in descending variable order so each `mk` is a
        // single node construction — no `apply` needed.
        let mut lits: Vec<Literal> = literals.to_vec();
        lits.sort_by_key(|l| std::cmp::Reverse(l.var));
        let mut acc = TRUE;
        for l in lits {
            assert!(l.var < self.num_vars(), "literal variable out of range");
            acc = if l.positive {
                Ref(self.mk_raw(l.var, FALSE.0, acc.0))
            } else {
                Ref(self.mk_raw(l.var, acc.0, FALSE.0))
            };
        }
        acc
    }

    /// Predicate: the `width` variables starting at `base` (most
    /// significant first) equal `value`.
    pub fn field_eq(&mut self, base: u32, width: u32, value: u64) -> Ref {
        self.field_prefix(base, width, value, width)
    }

    /// Predicate: the `width`-bit field at `base` matches the IP-style
    /// prefix `value/len` (the top `len` bits equal the top `len` bits of
    /// `value`). `len == 0` matches everything.
    pub fn field_prefix(&mut self, base: u32, width: u32, value: u64, len: u32) -> Ref {
        assert!(len <= width && width <= 64);
        // The same bottom-up construction as `cube`, without collecting
        // and sorting literals: the bits are already in variable order.
        let mut acc = TRUE;
        for i in (0..len).rev() {
            let var = base + i;
            assert!(var < self.num_vars(), "literal variable out of range");
            acc = if (value >> (width - 1 - i)) & 1 == 1 {
                Ref(self.mk_raw(var, FALSE.0, acc.0))
            } else {
                Ref(self.mk_raw(var, acc.0, FALSE.0))
            };
        }
        acc
    }

    /// Predicate: the `width`-bit field at `base`, read as an unsigned
    /// integer, lies in the inclusive range `[lo, hi]`. Used for port
    /// ranges in ACL rules.
    pub fn field_range(&mut self, base: u32, width: u32, lo: u64, hi: u64) -> Ref {
        assert!(width <= 63 && lo <= hi && hi < (1u64 << width));
        let ge = self.field_ge(base, width, lo);
        self.ref_inc(ge);
        let le = self.field_le(base, width, hi);
        self.ref_inc(le);
        let r = self.and(ge, le);
        self.ref_dec(ge);
        self.ref_dec(le);
        r
    }

    fn field_ge(&mut self, base: u32, width: u32, lo: u64) -> Ref {
        // Build from the least significant bit upward:
        //   ge_i = if bit_i(lo)==1 { x_i & ge_{i+1} } else { x_i | ge_{i+1} }
        let mut acc = TRUE;
        for i in (0..width).rev() {
            let bit = (lo >> (width - 1 - i)) & 1 == 1;
            let x = self.var(base + i);
            self.ref_inc(acc);
            let next = if bit { self.and(x, acc) } else { self.or(x, acc) };
            self.ref_dec(acc);
            acc = next;
        }
        acc
    }

    fn field_le(&mut self, base: u32, width: u32, hi: u64) -> Ref {
        let mut acc = TRUE;
        for i in (0..width).rev() {
            let bit = (hi >> (width - 1 - i)) & 1 == 1;
            let nx = self.nvar(base + i);
            self.ref_inc(acc);
            let next = if bit { self.or(nx, acc) } else { self.and(nx, acc) };
            self.ref_dec(acc);
            acc = next;
        }
        acc
    }

    pub(crate) fn mk_raw(&mut self, var: u32, low: u32, high: u32) -> u32 {
        if low == high {
            low
        } else {
            self.table_mk(var, low, high)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::EngineProfile;

    fn mgr(n: u32) -> BddManager {
        BddManager::new(n, EngineProfile::Cached)
    }

    #[test]
    fn empty_cube_is_true() {
        let mut m = mgr(4);
        assert_eq!(m.cube(&[]), TRUE);
    }

    #[test]
    fn cube_matches_manual_conjunction() {
        let mut m = mgr(4);
        let c = m.cube(&[
            Literal { var: 0, positive: true },
            Literal { var: 2, positive: false },
        ]);
        let a = m.var(0);
        let nc = m.nvar(2);
        let expect = m.and(a, nc);
        assert_eq!(c, expect);
    }

    #[test]
    fn field_eq_has_single_model_at_full_width() {
        let mut m = mgr(8);
        let f = m.field_eq(0, 8, 0b1010_0110);
        assert_eq!(m.sat_count(f), 1.0);
        let mut assignment = vec![false; 8];
        for (i, bit) in [true, false, true, false, false, true, true, false].iter().enumerate() {
            assignment[i] = *bit;
        }
        assert_eq!(m.eval(f, &assignment), Ok(true));
    }

    #[test]
    fn prefix_len_zero_matches_everything() {
        let mut m = mgr(8);
        assert_eq!(m.field_prefix(0, 8, 0, 0), TRUE);
    }

    #[test]
    fn prefix_counts_match_width() {
        let mut m = mgr(8);
        // /3 prefix over 8 bits leaves 5 free bits -> 32 models.
        let p = m.field_prefix(0, 8, 0b101_00000, 3);
        assert_eq!(m.sat_count(p), 32.0);
    }

    #[test]
    fn longer_prefix_is_subset_of_shorter() {
        let mut m = mgr(8);
        let p8 = m.field_prefix(0, 8, 0b1010_0110, 8);
        let p4 = m.field_prefix(0, 8, 0b1010_0110, 4);
        assert!(m.implies(p8, p4));
        assert!(!m.implies(p4, p8));
    }

    #[test]
    fn range_counts_are_exact() {
        let mut m = mgr(6);
        let r = m.field_range(0, 6, 10, 20);
        assert_eq!(m.sat_count(r), 11.0);
    }

    #[test]
    fn range_membership_by_eval() {
        let mut m = mgr(6);
        let r = m.field_range(0, 6, 10, 20);
        for v in 0u64..64 {
            let bits: Vec<bool> = (0..6).map(|i| (v >> (5 - i)) & 1 == 1).collect();
            assert_eq!(m.eval(r, &bits), Ok((10..=20).contains(&v)), "value {v}");
        }
    }

    #[test]
    fn degenerate_range_is_field_eq() {
        let mut m = mgr(6);
        let r = m.field_range(0, 6, 17, 17);
        let e = m.field_eq(0, 6, 17);
        assert_eq!(r, e);
    }
}
