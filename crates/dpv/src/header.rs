//! Header-space encoding: destination-prefix matching over a fixed-width
//! header, compiled to BDDs.
//!
//! Both AP and APKeep verify forwarding (destination-IP) behaviour, so
//! the header is a single `width`-bit destination address field: BDD
//! variable `i` is address bit `i`, most significant first, and a
//! header-space count is a count of destination addresses. The width is
//! configurable because the benchmark datasets use narrower addresses
//! than IPv4 to keep test instances readable.

use netrepro_bdd::{BddManager, Ref};

/// An address prefix `addr/len` over a [`HeaderLayout`]'s width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    /// Address bits, left-aligned within the layout width.
    pub addr: u32,
    /// Prefix length in bits.
    pub len: u8,
}

impl Prefix {
    /// The all-matching prefix.
    pub const ANY: Prefix = Prefix { addr: 0, len: 0 };

    /// Does this prefix contain address `a` (over `width` bits)?
    pub fn contains(&self, a: u32, width: u32) -> bool {
        if self.len == 0 {
            return true;
        }
        let shift = width - self.len as u32;
        (a >> shift) == (self.addr >> shift)
    }

    /// Is `self` a (non-strict) superset of `other`?
    pub fn covers(&self, other: &Prefix, width: u32) -> bool {
        self.len <= other.len && other.contains_prefix_addr(self, width)
    }

    fn contains_prefix_addr(&self, sup: &Prefix, width: u32) -> bool {
        if sup.len == 0 {
            return true;
        }
        let shift = width - sup.len as u32;
        (self.addr >> shift) == (sup.addr >> shift)
    }
}

/// The header layout: one `width`-bit destination-address field, the
/// only field forwarding reads.
#[derive(Debug, Clone, Copy)]
pub struct HeaderLayout {
    /// Destination-address field width in bits (≤ 32): BDD variables
    /// `0..width`, most significant bit first.
    pub width: u32,
}

impl HeaderLayout {
    /// A layout with the given destination width.
    pub fn new(width: u32) -> Self {
        assert!((1..=32).contains(&width));
        HeaderLayout { width }
    }

    /// A fresh manager sized for this layout.
    pub fn manager(&self, profile: netrepro_bdd::EngineProfile) -> BddManager {
        BddManager::new(self.width, profile)
    }

    /// BDD predicate for a destination `prefix`.
    pub fn prefix_pred(&self, m: &mut BddManager, prefix: Prefix) -> Ref {
        assert!(prefix.len as u32 <= self.width);
        m.field_prefix(0, self.width, prefix.addr as u64, prefix.len as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrepro_bdd::EngineProfile;

    #[test]
    fn prefix_contains_addresses() {
        let p = Prefix { addr: 0b10100000, len: 4 };
        assert!(p.contains(0b1010_1111, 8));
        assert!(!p.contains(0b1011_0000, 8));
        assert!(Prefix::ANY.contains(123, 8));
    }

    #[test]
    fn covers_is_prefix_order() {
        let w = 8;
        let p4 = Prefix { addr: 0b10100000, len: 4 };
        let p6 = Prefix { addr: 0b1010_1000, len: 6 };
        assert!(p4.covers(&p6, w));
        assert!(!p6.covers(&p4, w));
        assert!(Prefix::ANY.covers(&p4, w));
        assert!(p4.covers(&p4, w));
    }

    #[test]
    fn prefix_pred_counts() {
        let layout = HeaderLayout::new(8);
        let mut m = layout.manager(EngineProfile::Cached);
        let p = layout.prefix_pred(&mut m, Prefix { addr: 0b1100_0000, len: 2 });
        assert_eq!(m.sat_count(p), 64.0);
    }

    #[test]
    fn pred_agrees_with_contains() {
        let layout = HeaderLayout::new(6);
        let mut m = layout.manager(EngineProfile::Cached);
        let p = Prefix { addr: 0b101000, len: 3 };
        let pred = layout.prefix_pred(&mut m, p);
        for a in 0u32..64 {
            let bits: Vec<bool> = (0..6).map(|i| (a >> (5 - i)) & 1 == 1).collect();
            assert_eq!(m.eval(pred, &bits), Ok(p.contains(a, 6)), "addr {a}");
        }
    }

    #[test]
    fn disjoint_prefixes_have_empty_intersection() {
        let layout = HeaderLayout::new(8);
        let mut m = layout.manager(EngineProfile::Cached);
        let a = layout.prefix_pred(&mut m, Prefix { addr: 0b0000_0000, len: 1 });
        let b = layout.prefix_pred(&mut m, Prefix { addr: 0b1000_0000, len: 1 });
        assert_eq!(m.and(a, b), netrepro_bdd::FALSE);
    }
}
