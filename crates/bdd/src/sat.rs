//! Model counting.

use crate::fnv::FnvMap;
use crate::manager::BddManager;
use crate::node::Ref;

impl BddManager {
    /// Fraction of the full assignment space that satisfies `r`, in
    /// `[0, 1]`. Computed as `p(node) = (p(low) + p(high)) / 2`, which is
    /// exact in `f64` for the header widths the verifiers use.
    pub fn sat_fraction(&self, r: Ref) -> f64 {
        let mut memo: FnvMap<u32, f64> = FnvMap::default();
        self.fraction_rec(r.0, &mut memo)
    }

    /// Number of satisfying assignments over the manager's full variable
    /// universe, as an `f64` (counts overflow `u64` beyond 64 variables;
    /// header spaces routinely use 32–104 bits).
    pub fn sat_count(&self, r: Ref) -> f64 {
        self.sat_fraction(r) * 2f64.powi(self.num_vars() as i32)
    }

    fn fraction_rec(&self, r: u32, memo: &mut FnvMap<u32, f64>) -> f64 {
        match r {
            0 => return 0.0,
            1 => return 1.0,
            _ => {}
        }
        if let Some(&c) = memo.get(&r) {
            return c;
        }
        let (_var, low, high) = self.node_parts(r);
        let c = 0.5 * self.fraction_rec(low, memo) + 0.5 * self.fraction_rec(high, memo);
        memo.insert(r, c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::EngineProfile;
    use crate::node::{FALSE, TRUE};

    fn mgr(n: u32) -> BddManager {
        BddManager::new(n, EngineProfile::Cached)
    }

    #[test]
    fn satcount_of_terminals() {
        let m = mgr(4);
        assert_eq!(m.sat_count(FALSE), 0.0);
        assert_eq!(m.sat_count(TRUE), 16.0);
    }

    #[test]
    fn satcount_single_variable_is_half_space() {
        let mut m = mgr(5);
        let a = m.var(3);
        assert_eq!(m.sat_count(a), 16.0);
        assert_eq!(m.sat_fraction(a), 0.5);
    }

    #[test]
    fn satcount_conjunction_halves() {
        let mut m = mgr(6);
        let mut f = TRUE;
        for i in 0..4 {
            let v = m.var(i);
            f = m.and(f, v);
        }
        assert_eq!(m.sat_count(f), 4.0); // 2 free variables
    }

    #[test]
    fn satcount_or_inclusion_exclusion() {
        let mut m = mgr(3);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.or(a, b);
        // |a|+|b|-|a&b| = 4+4-2 = 6
        assert_eq!(m.sat_count(f), 6.0);
    }
}
