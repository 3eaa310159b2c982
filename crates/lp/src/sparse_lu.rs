//! Sparse LU factorization of a simplex basis, plus the product-form
//! eta file layered on top of it.
//!
//! The factorization is a left-looking column LU with partial pivoting
//! (max-magnitude pivot, ties broken toward the smallest original row
//! index — a fixed rule, so the factor is a canonical function of the
//! basis columns). `L` is stored as per-column multiplier lists in
//! original-row space, `U` column-wise in pivot-position space, and
//! both transposes as CSR row indexes. Between refactorizations each
//! pivot appends one [`Eta`] (the entering column's ftran image).
//!
//! The solves follow the nonzeros. `ftran` and the sparse `btran`
//! first find the symbolic reach of their right-hand side through the
//! factors, sort it, and run the dense loops' arithmetic over the reach
//! only, so every entry gets the same updates in the same order as in a
//! pass over all `m` positions. [`SparseLu::btran_update`] keeps the
//! duals of a changing cost vector up to date by recomputing only the
//! entries whose inputs changed bits.

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
    /// Nonzeros of `w` (basis-position index, value), ascending,
    /// including the pivot element at position `r`.
    pub w: Vec<(usize, f64)>,
    /// `w[r]`, kept separate so apply loops skip a search.
    pub pivot: f64,
}

impl Eta {
    /// Build an eta from the ftran image `w` of the entering column and
    /// its ascending support `supp`, which lists every nonzero of `w`.
    /// The ratio tests only leave on rows with `w[r] > 1e-9`, so the
    /// pivot is always large enough to divide by.
    pub fn new(w: &[f64], supp: &[usize], r: usize) -> Eta {
        let pivot = w[r];
        debug_assert!(pivot.abs() >= 1e-10, "eta pivot {pivot} is too small");
        let w = supp.iter().filter(|&&i| w[i] != 0.0).map(|&i| (i, w[i])).collect();
        Eta { r, w, pivot }
    }

    pub fn nnz(&self) -> usize {
        self.w.len()
    }

    /// `x ← E⁻¹ x` (ftran direction; creation order). Returns whether
    /// `x[r]` was nonzero: otherwise only signs of zeros changed, and
    /// `x`'s nonzeros stay where they were.
    pub fn apply_ftran(&self, x: &mut [f64]) -> bool {
        let xr = x[self.r] / self.pivot;
        for &(i, w) in &self.w {
            if i != self.r {
                x[i] -= w * xr;
            }
        }
        x[self.r] = xr;
        xr != 0.0
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

/// Scratch for the solves, sized `m` and reused across
/// refactorizations. `row` holds `+0.0` between calls.
#[derive(Debug)]
pub(crate) struct Workspace {
    /// `ftran`'s `L` solve accumulator, in original-row space.
    row: Vec<f64>,
    /// `mark[k] == gen` once position `k` is visited in the current pass.
    mark: Vec<u32>,
    gen: u32,
    stack: Vec<usize>,
    reach: Vec<usize>,
    up: BinaryHeap<Reverse<usize>>,
    down: BinaryHeap<usize>,
}

impl Workspace {
    pub fn new(m: usize) -> Workspace {
        Workspace {
            row: vec![0.0; m],
            mark: vec![0; m],
            gen: 0,
            stack: Vec::new(),
            reach: Vec::new(),
            up: BinaryHeap::new(),
            down: BinaryHeap::new(),
        }
    }

    /// Start a pass: no position is marked.
    fn next_gen(&mut self) -> u32 {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.mark.fill(0);
            self.gen = 1;
        }
        self.gen
    }
}

/// Mark and push `k` unless this pass has already visited it.
fn visit(mark: &mut [u32], gen: u32, stack: &mut Vec<usize>, k: usize) {
    if mark[k] != gen {
        mark[k] = gen;
        stack.push(k);
    }
}

/// CSR transpose of `cols` (lists of `(index, _)` over `0..m`): the
/// columns holding index `i` are `idx[start[i]..start[i + 1]]`,
/// ascending.
pub(crate) fn transpose(m: usize, cols: &[Vec<(usize, f64)>]) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; m + 1];
    for col in cols {
        for &(i, _) in col {
            start[i + 1] += 1;
        }
    }
    for i in 0..m {
        start[i + 1] += start[i];
    }
    let mut fill = start[..m].to_vec();
    let mut idx = vec![0u32; start[m] as usize];
    for (k, col) in cols.iter().enumerate() {
        for &(i, _) in col {
            idx[fill[i] as usize] = k as u32;
            fill[i] += 1;
        }
    }
    (start, idx)
}

/// The entries `start[i]..start[i + 1]` of a CSR index.
pub(crate) fn csr<'a>(start: &[u32], idx: &'a [u32], i: usize) -> impl Iterator<Item = usize> + 'a {
    idx[start[i] as usize..start[i + 1] as usize].iter().map(|&k| k as usize)
}

/// `P B = L U` for one basis matrix `B` given column-wise.
///
/// * `perm[k]` — original row that pivots at elimination step `k`;
///   `pos` is its inverse.
/// * `l_cols[k]` — multipliers `(orig_row, l)` eliminating step `k`'s
///   pivot row from the still-unpivoted rows, ascending by row.
/// * `u_cols[k]` — strictly-upper entries `(j, u)` of `U`'s column `k`
///   in pivot-position space, ascending by `j`, with the diagonal split
///   into `u_diag`.
/// * `ut_*` — `Uᵀ` in CSR: the positions `k` whose `u_cols[k]` holds
///   `j`. `lt_*` — `Lᵀ` in CSR by original row: the positions `k` whose
///   `l_cols[k]` holds the row.
/// * `zero[k]` — `+0.0 / u_diag[k]`, what the back solve leaves at a
///   position no update reaches (`-0.0` under a negative diagonal);
///   `neg_zero` lists the positions where it is `-0.0`, ascending.
#[derive(Debug)]
pub(crate) struct SparseLu {
    m: usize,
    perm: Vec<usize>,
    pos: Vec<u32>,
    l_cols: Vec<Vec<(usize, f64)>>,
    u_cols: Vec<Vec<(usize, f64)>>,
    u_diag: Vec<f64>,
    nnz: usize,
    ut_start: Vec<u32>,
    ut_pos: Vec<u32>,
    lt_start: Vec<u32>,
    lt_pos: Vec<u32>,
    zero: Vec<f64>,
    neg_zero: Vec<usize>,
}

impl SparseLu {
    /// Complete a factor from its elimination output: the inverse
    /// permutation, both transposes and the zero template.
    fn assemble(
        m: usize,
        perm: Vec<usize>,
        l_cols: Vec<Vec<(usize, f64)>>,
        u_cols: Vec<Vec<(usize, f64)>>,
        u_diag: Vec<f64>,
        nnz: usize,
    ) -> SparseLu {
        let mut pos = vec![0u32; m];
        for (k, &row) in perm.iter().enumerate() {
            pos[row] = k as u32;
        }
        let (ut_start, ut_pos) = transpose(m, &u_cols);
        let (lt_start, lt_pos) = transpose(m, &l_cols);
        let zero: Vec<f64> = u_diag.iter().map(|&d| 0.0 / d).collect();
        let neg_zero = (0..m).filter(|&k| zero[k].is_sign_negative()).collect();
        SparseLu {
            m,
            perm,
            pos,
            l_cols,
            u_cols,
            u_diag,
            nnz,
            ut_start,
            ut_pos,
            lt_start,
            lt_pos,
            zero,
            neg_zero,
        }
    }

    /// The factor of the identity basis (the artificial start): trivial
    /// permutation, empty `L`/`U` off-diagonals, unit diagonal. Never
    /// fails, which keeps the cold-start constructor infallible.
    pub fn identity(m: usize) -> SparseLu {
        let empty = vec![Vec::new(); m];
        SparseLu::assemble(m, (0..m).collect(), empty.clone(), empty, vec![1.0; m], m)
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
        Some(SparseLu::assemble(m, perm, l_cols, u_cols, u_diag, nnz))
    }

    /// The positions where [`SparseLu::ftran`] leaves `-0.0` unless an
    /// update reaches them: those with a negative diagonal.
    pub fn negative_zeros(&self) -> &[usize] {
        &self.neg_zero
    }

    /// Total stored nonzeros across `L`, `U` and the diagonal.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Solve `B x = b` for the sparse `b` given as `(original row,
    /// value)` entries (a repeated row adds up). `x` is written to `out`
    /// in *basis-position* space, and `supp` receives the positions the
    /// solve reached, descending; `x` is zero everywhere else.
    ///
    /// The forward solve through `L` visits the reach of `b`'s rows in
    /// ascending position order, the back solve through `U` the closure
    /// of that reach in descending order, so every entry receives the
    /// same updates in the same order as in the dense loops over all
    /// `m` positions. A position no update reaches gets the dense loop's
    /// `+0.0 / u_diag[k]` from the zero template, so `out` is bitwise
    /// the dense result, signed zeros included.
    pub fn ftran(
        &self,
        ws: &mut Workspace,
        b: impl IntoIterator<Item = (usize, f64)>,
        out: &mut [f64],
        supp: &mut Vec<usize>,
    ) {
        debug_assert_eq!(out.len(), self.m);
        let gen = ws.next_gen();
        let Workspace { row, mark, stack, reach, .. } = ws;
        for (r, v) in b {
            row[r] += v;
            visit(mark, gen, stack, self.pos[r] as usize);
        }
        // Reach through L: position k updates the rows of l_cols[k],
        // all of which pivot later.
        reach.clear();
        while let Some(k) = stack.pop() {
            reach.push(k);
            for &(r, _) in &self.l_cols[k] {
                visit(mark, gen, stack, self.pos[r] as usize);
            }
        }
        reach.sort_unstable();
        // Its closure through U: position k updates the earlier
        // positions of u_cols[k].
        supp.clear();
        supp.extend_from_slice(reach);
        stack.extend_from_slice(reach);
        while let Some(k) = stack.pop() {
            for &(j, _) in &self.u_cols[k] {
                if mark[j] != gen {
                    mark[j] = gen;
                    stack.push(j);
                    supp.push(j);
                }
            }
        }
        supp.sort_unstable_by(|a, b| b.cmp(a));

        out.copy_from_slice(&self.zero);
        for &k in supp.iter() {
            out[k] = 0.0;
        }
        // Forward solve L y = P b, y in pivot-position space, resetting
        // each row of the accumulator once its position is consumed.
        for &k in reach.iter() {
            let prow = self.perm[k];
            let yk = row[prow];
            row[prow] = 0.0;
            out[k] = yk;
            if yk != 0.0 {
                for &(r, l) in &self.l_cols[k] {
                    row[r] -= l * yk;
                }
            }
        }
        // Back solve U x = y.
        for &k in supp.iter() {
            let xk = out[k] / self.u_diag[k];
            out[k] = xk;
            if xk != 0.0 {
                for &(j, u) in &self.u_cols[k] {
                    out[j] -= u * xk;
                }
            }
        }
    }

    /// Solve `yᵀ B = cᵀ` for a `c` in basis-position space that is
    /// nonzero only at positions listed in `seeds` (which may repeat
    /// and may list zeros). `y` is written to `out`, in *original-row*
    /// space, at the rows `supp` receives; `out` must be `+0.0` at every
    /// other row, and it stays so. `c` is left `+0.0` everywhere.
    ///
    /// The `Uᵀ` solve visits the reach of the nonzero seeds in ascending
    /// position order and the `Lᵀ` solve its closure in descending
    /// order, computing each entry by the dense solve's inner product
    /// (`u_cols` and `l_cols` fix its term order). An entry off the
    /// reach is a signed zero in the dense solve and `+0.0` here; a
    /// zero's sign cannot change a nonzero sum, so the nonzeros of `y`
    /// are bitwise the dense ones and its zero set is the same.
    pub fn btran(
        &self,
        ws: &mut Workspace,
        c: &mut [f64],
        seeds: &[usize],
        out: &mut [f64],
        supp: &mut Vec<usize>,
    ) {
        debug_assert_eq!(c.len(), self.m);
        let gen = ws.next_gen();
        let Workspace { mark, stack, reach, .. } = ws;
        for &k in seeds {
            if c[k] != 0.0 {
                visit(mark, gen, stack, k);
            } else {
                c[k] = 0.0;
            }
        }
        reach.clear();
        while let Some(j) = stack.pop() {
            reach.push(j);
            for k in csr(&self.ut_start, &self.ut_pos, j) {
                visit(mark, gen, stack, k);
            }
        }
        reach.sort_unstable();
        // Forward solve Uᵀ z = c in place (Uᵀ is lower triangular;
        // u_cols[k] holds exactly Uᵀ's row k).
        for &k in reach.iter() {
            let mut s = c[k];
            for &(j, u) in &self.u_cols[k] {
                s -= u * c[j];
            }
            c[k] = s / self.u_diag[k];
        }
        // The closure through Lᵀ: row perm[k] feeds the positions
        // whose l_cols hold it, all of which pivot earlier.
        stack.extend_from_slice(reach);
        while let Some(k) = stack.pop() {
            for k2 in csr(&self.lt_start, &self.lt_pos, self.perm[k]) {
                if mark[k2] != gen {
                    mark[k2] = gen;
                    stack.push(k2);
                    reach.push(k2);
                }
            }
        }
        reach.sort_unstable_by(|a, b| b.cmp(a));
        // Back solve Lᵀ v = z into original-row space: row k of Lᵀ is
        // the unit diagonal at perm[k] plus l_cols[k]'s entries, all of
        // which sit in rows that pivot later and are already solved.
        supp.clear();
        for &k in reach.iter() {
            let mut s = c[k];
            for &(r, l) in &self.l_cols[k] {
                s -= l * out[r];
            }
            c[k] = 0.0;
            out[self.perm[k]] = s;
            supp.push(self.perm[k]);
        }
    }

    /// `zz[k]` by the dense `Uᵀ` forward solve's formula; returns
    /// whether its bits changed.
    fn solve_zz(&self, k: usize, z: &[f64], zz: &mut [f64]) -> bool {
        let mut s = z[k];
        for &(j, u) in &self.u_cols[k] {
            s -= u * zz[j];
        }
        let v = s / self.u_diag[k];
        let moved = v.to_bits() != zz[k].to_bits();
        zz[k] = v;
        moved
    }

    /// `y[perm[k]]` by the dense `Lᵀ` back solve's formula; returns
    /// whether its bits changed.
    fn solve_y(&self, k: usize, zz: &[f64], y: &mut [f64]) -> bool {
        let mut s = zz[k];
        for &(r, l) in &self.l_cols[k] {
            s -= l * y[r];
        }
        let r = self.perm[k];
        let moved = s.to_bits() != y[r].to_bits();
        y[r] = s;
        moved
    }

    /// Keep `zz` (the `Uᵀ` solve of `z`, in position space) and `y` (the
    /// duals `yᵀ B = zᵀ`, in original-row space) up to date after `z`
    /// changed at the positions `seeds`, or after any change at all
    /// (`None`: a new factor or a new cost vector, which takes the full
    /// dense solve). Appends to `changed` the rows whose dual changed
    /// bits.
    ///
    /// A min-heap visits positions in ascending order and recomputes
    /// each `zz[k]` by the dense solve's formula; only a change of bits
    /// pushes the positions that read `zz[k]`. A max-heap does the same
    /// for `y` through `Lᵀ`. Every recomputed entry is the same function
    /// of bitwise-equal inputs as in the dense solve, so `zz` and `y`
    /// stay bitwise the dense results, signed zeros included.
    pub fn btran_update(
        &self,
        ws: &mut Workspace,
        z: &[f64],
        seeds: Option<&[usize]>,
        zz: &mut [f64],
        y: &mut [f64],
        changed: &mut Vec<usize>,
    ) {
        let Some(seeds) = seeds else {
            for k in 0..self.m {
                self.solve_zz(k, z, zz);
            }
            for k in (0..self.m).rev() {
                if self.solve_y(k, zz, y) {
                    changed.push(self.perm[k]);
                }
            }
            return;
        };
        let (gen_up, gen_down) = (ws.next_gen(), ws.next_gen());
        let Workspace { mark, up, down, reach, .. } = ws;
        for &k in seeds {
            if mark[k] != gen_up {
                mark[k] = gen_up;
                up.push(Reverse(k));
            }
        }
        reach.clear();
        while let Some(Reverse(k)) = up.pop() {
            if self.solve_zz(k, z, zz) {
                reach.push(k);
                for k2 in csr(&self.ut_start, &self.ut_pos, k) {
                    if mark[k2] != gen_up {
                        mark[k2] = gen_up;
                        up.push(Reverse(k2));
                    }
                }
            }
        }
        for &k in reach.iter() {
            mark[k] = gen_down;
            down.push(k);
        }
        while let Some(k) = down.pop() {
            if self.solve_y(k, zz, y) {
                let r = self.perm[k];
                changed.push(r);
                for k2 in csr(&self.lt_start, &self.lt_pos, r) {
                    if mark[k2] != gen_down {
                        mark[k2] = gen_down;
                        down.push(k2);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense solves the hypersparse ones replaced, kept as their
    /// bitwise references.
    impl SparseLu {
        /// Solve `B x = b` over all `m` positions; `b` arrives in
        /// original-row space and leaves in basis-position space.
        pub(crate) fn ftran_dense(&self, b: &mut [f64]) {
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

        /// Solve `yᵀ B = cᵀ` over all `m` positions; `c` arrives in
        /// basis-position space and leaves in original-row space.
        /// Returns the intermediate `z` of the `Uᵀ` solve.
        pub(crate) fn btran_dense(&self, c: &mut [f64]) -> Vec<f64> {
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
            // Back solve Lᵀ v = z into original-row space.
            let mut v = vec![0.0; self.m];
            for k in (0..self.m).rev() {
                let mut s = z[k];
                for &(row, l) in &self.l_cols[k] {
                    s -= l * v[row];
                }
                v[self.perm[k]] = s;
            }
            c.copy_from_slice(&v);
            z
        }
    }

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
        Some(SparseLu::assemble(m, perm, l_cols, u_cols, u_diag, nnz))
    }

    /// A random basis with fill-in: small integer entries over inexact
    /// scales, a diagonal of either sign that is often missing (so
    /// singular matrices and pivot-magnitude ties are common).
    fn fill_in_basis(
        m: usize,
        entries: &[(u32, u32, i32)],
        diag: &[i32],
        scale: &[u32],
    ) -> Vec<Vec<(usize, f64)>> {
        let mut cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|k| if diag[k] != 0 { vec![(k, diag[k] as f64)] } else { Vec::new() })
            .collect();
        for &(r, k, v) in entries {
            let (r, k) = (r as usize % m, k as usize % m);
            // Odd scales give inexact multipliers, hence rounding
            // that the two orders would have to agree on.
            cols[k].push((r, v as f64 / scale[r] as f64));
        }
        cols
    }

    /// A small value for a right-hand side, `-0.0` and `+0.0` included.
    fn rhs_value(v: i32) -> f64 {
        match v {
            0 => 0.0,
            -3 => -0.0,
            _ => v as f64 / 3.0,
        }
    }

    fn all_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
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
            let cols = fill_in_basis(m, &entries, &diag, &scale);
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

        /// The hypersparse `ftran` must give the dense solve's bits at
        /// every position, signed zeros included, list every nonzero in
        /// its support, and leave its workspace clean for the next call.
        #[test]
        fn hypersparse_ftran_matches_dense_bitwise(
            mraw in 1u32..16,
            entries in proptest::collection::vec((0u32..16, 0u32..16, -3i32..4), 0..80),
            diag in proptest::collection::vec(-3i32..4, 16),
            scale in proptest::collection::vec(1u32..8, 16),
            rhs in proptest::collection::vec((0u32..16, -3i32..4), 0..6),
        ) {
            let m = mraw as usize;
            let Some(lu) = SparseLu::factorize(m, &fill_in_basis(m, &entries, &diag, &scale))
            else { return Ok(()) };
            let b: Vec<(usize, f64)> =
                rhs.iter().map(|&(r, v)| (r as usize % m, rhs_value(v))).collect();
            let mut want = vec![0.0; m];
            for &(r, v) in &b {
                want[r] += v;
            }
            lu.ftran_dense(&mut want);
            let mut ws = Workspace::new(m);
            let (mut got, mut supp) = (vec![f64::NAN; m], Vec::new());
            for _ in 0..2 {
                lu.ftran(&mut ws, b.iter().copied(), &mut got, &mut supp);
                prop_assert_eq!(all_bits(&got), all_bits(&want));
                prop_assert!(supp.windows(2).all(|p| p[0] > p[1]), "support not descending");
                for (i, &v) in got.iter().enumerate() {
                    prop_assert!(v == 0.0 || supp.contains(&i), "nonzero {} off the support", i);
                }
            }
        }

        /// The sparse `btran` must give the dense solve's nonzeros
        /// bitwise and its zero set, list every nonzero row in its
        /// support, and leave `c` and the workspace clean.
        #[test]
        fn hypersparse_btran_matches_dense_nonzeros(
            mraw in 1u32..16,
            entries in proptest::collection::vec((0u32..16, 0u32..16, -3i32..4), 0..80),
            diag in proptest::collection::vec(-3i32..4, 16),
            scale in proptest::collection::vec(1u32..8, 16),
            rhs in proptest::collection::vec((0u32..16, -3i32..4), 0..6),
        ) {
            let m = mraw as usize;
            let Some(lu) = SparseLu::factorize(m, &fill_in_basis(m, &entries, &diag, &scale))
            else { return Ok(()) };
            let mut c0 = vec![0.0; m];
            let mut seeds = Vec::new();
            for &(k, v) in &rhs {
                let k = k as usize % m;
                c0[k] = rhs_value(v);
                seeds.push(k);
            }
            let mut want = c0.clone();
            lu.btran_dense(&mut want);
            let mut ws = Workspace::new(m);
            let (mut out, mut supp) = (vec![0.0; m], Vec::new());
            for _ in 0..2 {
                let mut c = c0.clone();
                lu.btran(&mut ws, &mut c, &seeds, &mut out, &mut supp);
                prop_assert!(c.iter().all(|v| v.to_bits() == 0), "c not left +0.0");
                for r in 0..m {
                    prop_assert_eq!(out[r] == 0.0, want[r] == 0.0, "zero sets differ at {}", r);
                    if want[r] != 0.0 {
                        prop_assert_eq!(out[r].to_bits(), want[r].to_bits());
                        prop_assert!(supp.contains(&r), "nonzero row {} off the support", r);
                    }
                }
                for &r in &supp {
                    out[r] = 0.0;
                }
            }
        }

        /// After random changes to `z`, the incremental update of `zz`
        /// and `y` must equal a full dense `btran` bitwise, signed zeros
        /// included, and report exactly the rows whose dual changed bits.
        #[test]
        fn incremental_btran_matches_dense_bitwise(
            mraw in 1u32..16,
            entries in proptest::collection::vec((0u32..16, 0u32..16, -3i32..4), 0..80),
            diag in proptest::collection::vec(-3i32..4, 16),
            scale in proptest::collection::vec(1u32..8, 16),
            z0 in proptest::collection::vec(-3i32..4, 16),
            rounds in proptest::collection::vec(
                proptest::collection::vec((0u32..16, -3i32..4), 0..4), 1..6),
        ) {
            let m = mraw as usize;
            let Some(lu) = SparseLu::factorize(m, &fill_in_basis(m, &entries, &diag, &scale))
            else { return Ok(()) };
            let mut ws = Workspace::new(m);
            let mut z: Vec<f64> = z0[..m].iter().map(|&v| rhs_value(v)).collect();
            let (mut zz, mut y, mut changed) = (vec![0.0; m], vec![0.0; m], Vec::new());
            let mut seeds: Option<Vec<usize>> = None;
            for round in std::iter::once(&Vec::new()).chain(&rounds) {
                for &(k, v) in round {
                    let k = k as usize % m;
                    z[k] = rhs_value(v);
                    seeds.get_or_insert_with(Vec::new).push(k);
                }
                let old_y = y.clone();
                changed.clear();
                lu.btran_update(&mut ws, &z, seeds.as_deref(), &mut zz, &mut y, &mut changed);
                let mut want_y = z.clone();
                let want_zz = lu.btran_dense(&mut want_y);
                prop_assert_eq!(all_bits(&zz), all_bits(&want_zz));
                prop_assert_eq!(all_bits(&y), all_bits(&want_y));
                let want_changed: Vec<usize> =
                    (0..m).filter(|&r| y[r].to_bits() != old_y[r].to_bits()).collect();
                changed.sort_unstable();
                prop_assert_eq!(&changed, &want_changed);
                seeds = Some(Vec::new());
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
            lu.ftran_dense(&mut got);
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
            lu.btran_dense(&mut got);
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
            lu.ftran_dense(&mut w);
            // Too small a pivot to divide by; the ratio tests never
            // leave on one.
            if w[r].abs() < 1e-10 {
                return Ok(());
            }
            let eta = Eta::new(&w, &(0..m).collect::<Vec<_>>(), r);

            // Reference: refactorize the updated basis outright.
            cols[r] = a_q;
            let Some(fresh) = SparseLu::factorize(m, &cols) else { return Ok(()) };

            let b: Vec<f64> = (0..m).map(|i| bvals[i] as f64 / 10.0).collect();
            let mut via_eta = b.clone();
            lu.ftran_dense(&mut via_eta);
            eta.apply_ftran(&mut via_eta);
            let mut via_fresh = b;
            fresh.ftran_dense(&mut via_fresh);
            for (g, wv) in via_eta.iter().zip(&via_fresh) {
                prop_assert!((g - wv).abs() < 1e-5 * (1.0 + wv.abs()),
                    "eta ftran diverged: {} vs {}", g, wv);
            }

            let c: Vec<f64> = (0..m).map(|i| ((i * 11 + 1) % 7) as f64 - 3.0).collect();
            let mut cb_eta = c.clone();
            eta.apply_btran(&mut cb_eta);
            lu.btran_dense(&mut cb_eta);
            let mut cb_fresh = c;
            fresh.btran_dense(&mut cb_fresh);
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
        lu.ftran_dense(&mut x);
        assert_eq!(x, vec![3.0, -1.0, 0.5, 2.0]);
        lu.btran_dense(&mut x);
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
        let (mut x, mut supp) = (vec![0.0; m], Vec::new());
        lu.ftran(&mut Workspace::new(m), [(2, 1.0)], &mut x, &mut supp);
        assert_eq!(x, vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(supp, vec![0]);
    }
}
