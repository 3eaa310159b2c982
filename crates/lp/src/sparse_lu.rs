//! Sparse LU factorization of a simplex basis, plus the product-form
//! eta file layered on top of it.
//!
//! The factorization is a left-looking column LU with partial pivoting
//! (max-magnitude pivot, ties broken toward the smallest original row
//! index — a fixed rule, so the factor is a canonical function of the
//! basis columns). `L` is stored as per-column multiplier lists in
//! original-row space, `U` column-wise in pivot-position space. Between
//! refactorizations each pivot appends one [`Eta`] (the entering
//! column's ftran image), so ftran/btran cost `O(lu_nnz + eta_nnz)`
//! instead of the dense `O(m²)` the old explicit `B⁻¹` paid.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pivots smaller than this during factorization mean the basis is
/// numerically singular in that direction.
const SINGULAR_TOL: f64 = 1e-11;

/// Entries this small after elimination are dropped from the factors
/// (they are numerical noise and would only bloat the nnz counts that
/// drive the refactorization policy).
const DROP_TOL: f64 = 1e-13;

/// One product-form update: after the pivot that replaced basis
/// position `r`, `B_new = B_old · E` where `E` is the identity with
/// column `r` swapped for `w = B_old⁻¹ a_entering`.
#[derive(Debug, Clone)]
pub(crate) struct Eta {
    /// Basis position replaced by the pivot.
    pub r: usize,
    /// Nonzeros of `w` (basis-position index, value), including the
    /// pivot element at position `r`.
    pub w: Vec<(usize, f64)>,
    /// `w[r]`, kept separate so apply loops skip a search.
    pub pivot: f64,
}

impl Eta {
    /// Build an eta from the dense ftran image `w` of the entering
    /// column. Returns `None` when the pivot element is too small to
    /// divide by (the caller should refactorize instead of stacking an
    /// unstable eta).
    pub fn from_dense(w: &[f64], r: usize) -> Option<Eta> {
        let pivot = w[r];
        if pivot.abs() < 1e-10 {
            return None;
        }
        let mut nz = Vec::new();
        for (i, &v) in w.iter().enumerate() {
            if v != 0.0 {
                nz.push((i, v));
            }
        }
        Some(Eta { r, w: nz, pivot })
    }

    pub fn nnz(&self) -> usize {
        self.w.len()
    }

    /// `x ← E⁻¹ x` (ftran direction; creation order).
    pub fn apply_ftran(&self, x: &mut [f64]) {
        let xr = x[self.r] / self.pivot;
        for &(i, w) in &self.w {
            if i != self.r {
                x[i] -= w * xr;
            }
        }
        x[self.r] = xr;
    }

    /// `c ← c E⁻¹` (btran direction; reverse creation order).
    pub fn apply_btran(&self, c: &mut [f64]) {
        let mut s = 0.0;
        for &(i, w) in &self.w {
            if i != self.r {
                s += w * c[i];
            }
        }
        c[self.r] = (c[self.r] - s) / self.pivot;
    }
}

/// `P B = L U` for one basis matrix `B` given column-wise.
///
/// * `perm[k]` — original row that pivots at elimination step `k`.
/// * `l_cols[k]` — multipliers `(orig_row, l)` eliminating step `k`'s
///   pivot row from the still-unpivoted rows.
/// * `u_cols[k]` — strictly-upper entries `(j, u)` of `U`'s column `k`
///   in pivot-position space, with the diagonal split into `u_diag`.
#[derive(Debug)]
pub(crate) struct SparseLu {
    m: usize,
    perm: Vec<usize>,
    l_cols: Vec<Vec<(usize, f64)>>,
    u_cols: Vec<Vec<(usize, f64)>>,
    u_diag: Vec<f64>,
    nnz: usize,
}

impl SparseLu {
    /// The factor of the identity basis (the artificial start): trivial
    /// permutation, empty `L`/`U` off-diagonals, unit diagonal. Never
    /// fails, which keeps the cold-start constructor infallible.
    pub fn identity(m: usize) -> SparseLu {
        SparseLu {
            m,
            perm: (0..m).collect(),
            l_cols: vec![Vec::new(); m],
            u_cols: vec![Vec::new(); m],
            u_diag: vec![1.0; m],
            nnz: m,
        }
    }

    /// Factorize the `m × m` matrix whose `k`-th column's nonzeros are
    /// `cols[k]` (original-row index, value). Returns `None` when a
    /// pivot column goes numerically singular.
    ///
    /// Each column is eliminated against only the earlier pivots whose
    /// pivot row it reaches: a row's pivot position joins a min-heap the
    /// first time the row is written, so positions come off in
    /// ascending order, after every earlier update to their row has
    /// landed. The pivot search and `L` column read only the written
    /// rows, in ascending row order. Every subtraction, comparison and
    /// tie-break thus happens as in a full scan of all earlier pivots
    /// and all rows, and the factor is bitwise the same.
    pub fn factorize(m: usize, cols: &[Vec<(usize, f64)>]) -> Option<SparseLu> {
        debug_assert_eq!(cols.len(), m);
        const UNSET: usize = usize::MAX;
        let mut perm = Vec::with_capacity(m);
        let mut pos = vec![UNSET; m];
        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_diag = Vec::with_capacity(m);
        let mut nnz = 0usize;
        // Dense scatter workspace in original-row space; the rows the
        // current column has written (`seen[row] == k + 1` once row
        // joins `rows` for column `k`); the earlier pivot positions
        // still to eliminate.
        let mut x = vec![0.0; m];
        let mut seen = vec![0usize; m];
        let mut rows: Vec<usize> = Vec::new();
        let mut pending: BinaryHeap<Reverse<usize>> = BinaryHeap::new();

        for (k, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                x[r] += v;
                if seen[r] != k + 1 {
                    seen[r] = k + 1;
                    rows.push(r);
                    if pos[r] != UNSET {
                        pending.push(Reverse(pos[r]));
                    }
                }
            }
            let mut ucol = Vec::new();
            while let Some(Reverse(j)) = pending.pop() {
                let lrow = perm[j];
                let ujk: f64 = x[lrow];
                if ujk == 0.0 {
                    continue;
                }
                x[lrow] = 0.0;
                if ujk.abs() > DROP_TOL {
                    ucol.push((j, ujk));
                    for &(row, l) in &l_cols[j] {
                        x[row] -= l * ujk;
                        // `l_cols[j]` rows pivot after `j`, if at all.
                        if seen[row] != k + 1 {
                            seen[row] = k + 1;
                            rows.push(row);
                            if pos[row] != UNSET {
                                pending.push(Reverse(pos[row]));
                            }
                        }
                    }
                }
            }
            // Partial pivoting over the unpivoted rows: max |value|,
            // ties to the smallest original row index.
            rows.sort_unstable();
            let mut prow = UNSET;
            let mut pval = 0.0f64;
            for &row in &rows {
                let v = x[row];
                if pos[row] == UNSET && v.abs() > pval.abs() {
                    prow = row;
                    pval = v;
                }
            }
            if prow == UNSET || pval.abs() < SINGULAR_TOL {
                return None;
            }
            let mut lcol = Vec::new();
            for &row in &rows {
                let v = x[row];
                if v != 0.0 && row != prow && pos[row] == UNSET {
                    let l = v / pval;
                    if l.abs() > DROP_TOL {
                        lcol.push((row, l));
                    }
                }
                x[row] = 0.0;
            }
            rows.clear();
            pos[prow] = k;
            perm.push(prow);
            nnz += lcol.len() + ucol.len() + 1;
            l_cols.push(lcol);
            u_cols.push(ucol);
            u_diag.push(pval);
        }
        Some(SparseLu { m, perm, l_cols, u_cols, u_diag, nnz })
    }

    /// Total stored nonzeros across `L`, `U` and the diagonal.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Solve `B x = b`. `b` arrives in original-row space; the result
    /// is written back into `b` in *basis-position* space (`b[k]` is
    /// the coefficient of basis column `k`).
    pub fn ftran(&self, b: &mut [f64]) {
        debug_assert_eq!(b.len(), self.m);
        // Forward solve L y = P b, y in pivot-position space. y[k]
        // overwrites b[perm[k]] only after that slot has been consumed,
        // so stage through a scratch read of the pivot row first.
        let mut y = vec![0.0; self.m];
        for (k, &prow) in self.perm.iter().enumerate() {
            let yk = b[prow];
            y[k] = yk;
            if yk != 0.0 {
                for &(row, l) in &self.l_cols[k] {
                    b[row] -= l * yk;
                }
            }
        }
        // Back solve U x = y in pivot-position space.
        for k in (0..self.m).rev() {
            let xk = y[k] / self.u_diag[k];
            y[k] = xk;
            if xk != 0.0 {
                for &(j, u) in &self.u_cols[k] {
                    y[j] -= u * xk;
                }
            }
        }
        b.copy_from_slice(&y);
    }

    /// Solve `yᵀ B = cᵀ`. `c` arrives in basis-position space; the
    /// result is written back into `c` in *original-row* space (the
    /// dual vector indexed by constraint row).
    pub fn btran(&self, c: &mut [f64]) {
        debug_assert_eq!(c.len(), self.m);
        // Forward solve Uᵀ z = c (Uᵀ is lower triangular; u_cols[k]
        // holds exactly U's column k, i.e. Uᵀ's row k).
        let mut z = vec![0.0; self.m];
        for k in 0..self.m {
            let mut s = c[k];
            for &(j, u) in &self.u_cols[k] {
                s -= u * z[j];
            }
            z[k] = s / self.u_diag[k];
        }
        // Back solve Lᵀ v = z into original-row space: row k of Lᵀ is
        // the unit diagonal at perm[k] plus l_cols[k]'s entries, all of
        // which sit in rows that pivot *later* and are already solved.
        let mut v = vec![0.0; self.m];
        for k in (0..self.m).rev() {
            let mut s = z[k];
            for &(row, l) in &self.l_cols[k] {
                s -= l * v[row];
            }
            v[self.perm[k]] = s;
        }
        c.copy_from_slice(&v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Dense reference: invert via Gauss-Jordan (the representation the
    /// old revised simplex carried around), then multiply.
    struct DenseInv {
        m: usize,
        inv: Vec<f64>,
    }

    impl DenseInv {
        fn build(m: usize, cols: &[Vec<(usize, f64)>]) -> Option<DenseInv> {
            let mut a = vec![0.0; m * m];
            for (k, col) in cols.iter().enumerate() {
                for &(r, v) in col {
                    a[r * m + k] += v;
                }
            }
            let mut inv = vec![0.0; m * m];
            for i in 0..m {
                inv[i * m + i] = 1.0;
            }
            for c in 0..m {
                let mut p = c;
                for r in c + 1..m {
                    if a[r * m + c].abs() > a[p * m + c].abs() {
                        p = r;
                    }
                }
                if a[p * m + c].abs() < SINGULAR_TOL {
                    return None;
                }
                if p != c {
                    for j in 0..m {
                        a.swap(p * m + j, c * m + j);
                        inv.swap(p * m + j, c * m + j);
                    }
                }
                let d = a[c * m + c];
                for j in 0..m {
                    a[c * m + j] /= d;
                    inv[c * m + j] /= d;
                }
                for r in 0..m {
                    if r == c {
                        continue;
                    }
                    let f = a[r * m + c];
                    if f == 0.0 {
                        continue;
                    }
                    for j in 0..m {
                        a[r * m + j] -= f * a[c * m + j];
                        inv[r * m + j] -= f * inv[c * m + j];
                    }
                }
            }
            Some(DenseInv { m, inv })
        }

        /// `B⁻¹ b` — what the old `Core::ftran` computed.
        fn ftran(&self, b: &[f64]) -> Vec<f64> {
            (0..self.m)
                .map(|i| (0..self.m).map(|j| self.inv[i * self.m + j] * b[j]).sum())
                .collect()
        }

        /// `c B⁻¹` — what the old `Core::btran` computed.
        fn btran(&self, c: &[f64]) -> Vec<f64> {
            (0..self.m)
                .map(|j| (0..self.m).map(|i| c[i] * self.inv[i * self.m + j]).sum())
                .collect()
        }
    }

    /// Random well-conditioned sparse basis: a diagonally dominant
    /// matrix with random off-diagonal fill, so both the LU and the
    /// dense reference stay numerically honest and comparisons can be
    /// tight. Raw entries are reduced modulo `m` so one fixed-size
    /// generator serves every dimension.
    fn build_basis(m: usize, entries: &[(u32, u32, i32)], diag: &[(i32, bool)]) -> Vec<Vec<(usize, f64)>> {
        let mut cols = vec![Vec::new(); m];
        for (k, col) in cols.iter_mut().enumerate() {
            let (d, neg) = diag[k % diag.len()];
            // Dominant diagonal, magnitude well above the off-diag sum.
            let v = (d as f64 + 4.0 * m as f64) * if neg { -1.0 } else { 1.0 };
            col.push((k, v));
        }
        for &(r, k, v) in entries {
            let (r, k) = (r as usize % m, k as usize % m);
            if v != 0 && r != k {
                cols[k].push((r, v as f64 / 100.0));
            }
        }
        cols
    }

    /// The full-scan left-looking factorization: every column is
    /// eliminated against every earlier pivot in order, and the pivot
    /// search and `L` column scan all `m` rows. `O(m²)` per column;
    /// the oracle for [`SparseLu::factorize`].
    fn factorize_reference(m: usize, cols: &[Vec<(usize, f64)>]) -> Option<SparseLu> {
        const UNSET: usize = usize::MAX;
        let mut perm = Vec::with_capacity(m);
        let mut pos = vec![UNSET; m];
        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_diag = Vec::with_capacity(m);
        let mut nnz = 0usize;
        let mut x = vec![0.0; m];
        for col in cols.iter() {
            for &(r, v) in col {
                x[r] += v;
            }
            let mut ucol = Vec::new();
            for (j, &lrow) in perm.iter().enumerate() {
                let ujk: f64 = x[lrow];
                if ujk == 0.0 {
                    continue;
                }
                x[lrow] = 0.0;
                if ujk.abs() > DROP_TOL {
                    ucol.push((j, ujk));
                    for &(row, l) in &l_cols[j] {
                        x[row] -= l * ujk;
                    }
                }
            }
            let mut prow = UNSET;
            let mut pval = 0.0f64;
            for (row, &v) in x.iter().enumerate() {
                if pos[row] == UNSET && v.abs() > pval.abs() {
                    prow = row;
                    pval = v;
                }
            }
            if prow == UNSET || pval.abs() < SINGULAR_TOL {
                return None;
            }
            let mut lcol = Vec::new();
            for (row, v) in x.iter_mut().enumerate() {
                if *v == 0.0 {
                    continue;
                }
                if row != prow && pos[row] == UNSET {
                    let l = *v / pval;
                    if l.abs() > DROP_TOL {
                        lcol.push((row, l));
                    }
                }
                *v = 0.0;
            }
            let k = perm.len();
            pos[prow] = k;
            perm.push(prow);
            nnz += lcol.len() + ucol.len() + 1;
            l_cols.push(lcol);
            u_cols.push(ucol);
            u_diag.push(pval);
        }
        Some(SparseLu { m, perm, l_cols, u_cols, u_diag, nnz })
    }

    /// `(index, value bits)` of a sparse factor column.
    fn bits(entries: &[(usize, f64)]) -> Vec<(usize, u64)> {
        entries.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The heap-driven factorization must reproduce the full scan
        /// bit for bit: same `perm`, same `L` and `U` entries in the
        /// same order, same diagonal, and `None` on the same inputs.
        /// Small integer entries make pivot-magnitude ties common, a
        /// diagonal that is often missing makes singular matrices
        /// common, and random off-diagonals cause fill-in.
        #[test]
        fn factorize_matches_full_scan_bitwise(
            mraw in 1u32..16,
            entries in proptest::collection::vec((0u32..16, 0u32..16, -3i32..4), 0..80),
            diag in proptest::collection::vec(-3i32..4, 16),
            scale in proptest::collection::vec(1u32..8, 16),
        ) {
            let m = mraw as usize;
            let mut cols: Vec<Vec<(usize, f64)>> = (0..m)
                .map(|k| if diag[k] != 0 { vec![(k, diag[k] as f64)] } else { Vec::new() })
                .collect();
            for &(r, k, v) in &entries {
                let (r, k) = (r as usize % m, k as usize % m);
                // Odd scales give inexact multipliers, hence rounding
                // that the two orders would have to agree on.
                cols[k].push((r, v as f64 / scale[r] as f64));
            }
            let got = SparseLu::factorize(m, &cols);
            let want = factorize_reference(m, &cols);
            prop_assert_eq!(got.is_some(), want.is_some());
            let (Some(got), Some(want)) = (got, want) else { return Ok(()) };
            prop_assert_eq!(&got.perm, &want.perm);
            prop_assert_eq!(got.nnz, want.nnz);
            for k in 0..m {
                prop_assert_eq!(bits(&got.l_cols[k]), bits(&want.l_cols[k]));
                prop_assert_eq!(bits(&got.u_cols[k]), bits(&want.u_cols[k]));
                prop_assert_eq!(got.u_diag[k].to_bits(), want.u_diag[k].to_bits());
            }
        }
    }

    proptest! {
        /// Sparse-LU ftran must agree with the dense `B⁻¹` multiply the
        /// old solver used, on random bases, to tight tolerance.
        #[test]
        fn ftran_matches_dense_inverse(
            mraw in 2u32..12,
            entries in proptest::collection::vec((0u32..12, 0u32..12, -400i32..400), 0..36),
            diag in proptest::collection::vec((1i32..100, any::<bool>()), 12),
            bvals in proptest::collection::vec(-100i32..100, 12),
        ) {
            let m = mraw as usize;
            let cols = build_basis(m, &entries, &diag);
            let lu = SparseLu::factorize(m, &cols);
            let dense = DenseInv::build(m, &cols);
            prop_assert_eq!(lu.is_some(), dense.is_some());
            let (Some(lu), Some(dense)) = (lu, dense) else { return Ok(()) };
            let b: Vec<f64> = (0..m).map(|i| bvals[i] as f64 / 10.0).collect();
            let want = dense.ftran(&b);
            let mut got = b;
            lu.ftran(&mut got);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-6 * (1.0 + w.abs()),
                    "ftran diverged: {} vs {}", g, w);
            }
        }

        /// Same for btran against the dense row combination.
        #[test]
        fn btran_matches_dense_inverse(
            mraw in 2u32..12,
            entries in proptest::collection::vec((0u32..12, 0u32..12, -400i32..400), 0..36),
            diag in proptest::collection::vec((1i32..100, any::<bool>()), 12),
            cvals in proptest::collection::vec(-100i32..100, 12),
        ) {
            let m = mraw as usize;
            let cols = build_basis(m, &entries, &diag);
            let lu = SparseLu::factorize(m, &cols);
            let dense = DenseInv::build(m, &cols);
            prop_assert_eq!(lu.is_some(), dense.is_some());
            let (Some(lu), Some(dense)) = (lu, dense) else { return Ok(()) };
            let c: Vec<f64> = (0..m).map(|i| cvals[i] as f64 / 10.0).collect();
            let want = dense.btran(&c);
            let mut got = c;
            lu.btran(&mut got);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-6 * (1.0 + w.abs()),
                    "btran diverged: {} vs {}", g, w);
            }
        }

        /// Product-form etas must keep ftran/btran consistent with a
        /// from-scratch refactorization of the updated basis.
        #[test]
        fn eta_updates_match_refactorization(
            mraw in 3u32..10,
            entries in proptest::collection::vec((0u32..10, 0u32..10, -400i32..400), 0..30),
            diag in proptest::collection::vec((1i32..100, any::<bool>()), 10),
            rpos in 0u32..10,
            bvals in proptest::collection::vec(-100i32..100, 10),
        ) {
            let m = mraw as usize;
            let r = rpos as usize % m;
            let mut cols = build_basis(m, &entries, &diag);
            let lu = SparseLu::factorize(m, &cols);
            let Some(lu) = lu else { return Ok(()) };
            // Entering column: a dense-ish well-scaled vector.
            let a_q: Vec<(usize, f64)> = (0..m)
                .map(|i| (i, 1.0 + ((i * 7 + 3) % 5) as f64))
                .collect();
            let mut w = vec![0.0; m];
            for &(row, v) in &a_q {
                w[row] = v;
            }
            lu.ftran(&mut w);
            let Some(eta) = Eta::from_dense(&w, r) else { return Ok(()) };

            // Reference: refactorize the updated basis outright.
            cols[r] = a_q;
            let Some(fresh) = SparseLu::factorize(m, &cols) else { return Ok(()) };

            let b: Vec<f64> = (0..m).map(|i| bvals[i] as f64 / 10.0).collect();
            let mut via_eta = b.clone();
            lu.ftran(&mut via_eta);
            eta.apply_ftran(&mut via_eta);
            let mut via_fresh = b;
            fresh.ftran(&mut via_fresh);
            for (g, wv) in via_eta.iter().zip(&via_fresh) {
                prop_assert!((g - wv).abs() < 1e-5 * (1.0 + wv.abs()),
                    "eta ftran diverged: {} vs {}", g, wv);
            }

            let c: Vec<f64> = (0..m).map(|i| ((i * 11 + 1) % 7) as f64 - 3.0).collect();
            let mut cb_eta = c.clone();
            eta.apply_btran(&mut cb_eta);
            lu.btran(&mut cb_eta);
            let mut cb_fresh = c;
            fresh.btran(&mut cb_fresh);
            for (g, wv) in cb_eta.iter().zip(&cb_fresh) {
                prop_assert!((g - wv).abs() < 1e-5 * (1.0 + wv.abs()),
                    "eta btran diverged: {} vs {}", g, wv);
            }
        }
    }

    #[test]
    fn identity_roundtrip() {
        let m = 4;
        let cols: Vec<Vec<(usize, f64)>> = (0..m).map(|k| vec![(k, 1.0)]).collect();
        let lu = SparseLu::factorize(m, &cols).expect("identity factors");
        let mut x = vec![3.0, -1.0, 0.5, 2.0];
        lu.ftran(&mut x);
        assert_eq!(x, vec![3.0, -1.0, 0.5, 2.0]);
        lu.btran(&mut x);
        assert_eq!(x, vec![3.0, -1.0, 0.5, 2.0]);
    }

    #[test]
    fn singular_matrix_is_refused() {
        let m = 3;
        // Two identical columns.
        let cols = vec![
            vec![(0, 1.0), (1, 2.0)],
            vec![(0, 1.0), (1, 2.0)],
            vec![(2, 1.0)],
        ];
        assert!(SparseLu::factorize(m, &cols).is_none());
    }

    #[test]
    fn permuted_system_solves_exactly() {
        // A permutation matrix exercises the pivoting bookkeeping.
        let m = 4;
        let cols = vec![
            vec![(2, 1.0)],
            vec![(0, 1.0)],
            vec![(3, 1.0)],
            vec![(1, 1.0)],
        ];
        let lu = SparseLu::factorize(m, &cols).expect("permutation factors");
        // B x = e_2 → x picks the column hitting row 2, i.e. position 0.
        let mut x = vec![0.0, 0.0, 1.0, 0.0];
        lu.ftran(&mut x);
        assert_eq!(x, vec![1.0, 0.0, 0.0, 0.0]);
    }
}
