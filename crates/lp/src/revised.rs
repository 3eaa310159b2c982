//! A sparse revised simplex — the "Gurobi stand-in".
//!
//! The basis is held as a sparse LU factorization ([`crate::sparse_lu`])
//! plus a product-form eta file that grows by one column per pivot, so
//! ftran/btran cost `O(nnz)` instead of the dense `O(m²)` of the old
//! explicit `B⁻¹`. Refactorization is driven by eta-file growth and a
//! periodic residual drift check, not a fixed cadence. Columns are
//! priced with Devex reference weights and rows leave through a Harris
//! two-pass ratio test — both with fixed deterministic tie-breaks, so
//! the pivot sequence is a canonical function of the input — with
//! Bland's rule taking over when a degenerate run suggests cycling.
//! Each pivot touches only what changed, with the same arithmetic as
//! the dense passes it replaces: `ftran` and the pivot-row `btran`
//! follow the nonzeros, the duals are recomputed only where their
//! inputs changed bits, reduced costs only in the rows whose dual
//! changed, and the ratio tests, the `x_B` update and the Devex update
//! read only the supports. Devex pricing reads the root of a tournament
//! tree over the columns' cached scores, in which only the leaves whose
//! reduced cost, weight or candidacy changed replay their path. An
//! index of the eta file by basis position lets `ftran` and the
//! pivot-row `btran` apply only the etas that can change a bit of their
//! result, and lets the duals' eta pass rerun only the etas whose
//! inputs changed bits, from the inputs it keeps for each eta.
//! Combined with [`crate::presolve`], it is one to two orders of
//! magnitude faster than [`crate::dense::DenseSimplex`] on the
//! traffic-engineering LPs in this workspace — the gap Table A measures.

use crate::presolve::reduce;
use crate::sparse_lu::{csr, transpose, Eta, SparseLu, Workspace};
use crate::standard::StandardLp;
use crate::{LpError, LpSolver, Problem, Solution, Status};

const TOL: f64 = 1e-9;
const DEGENERATE_SWITCH: u32 = 40;
/// Harris pass-1 feasibility relaxation: rows may go this far negative
/// to buy a larger (more stable) pivot in pass 2.
const FEAS_TOL: f64 = 1e-7;
/// Minimum pivot magnitude admitted by the ratio tests.
const RATIO_PIVOT_TOL: f64 = 1e-9;
/// Residual drift check cadence (pivots) and threshold.
const DRIFT_CHECK_EVERY: u64 = 64;
const DRIFT_TOL: f64 = 1e-6;
/// Devex reference-weight overflow: reset the frame past this.
const DEVEX_RESET: f64 = 1e7;

/// Eta-file length that forces a refactorization (on top of the nnz
/// trigger): the classic `64 + m/4` compromise between update cost and
/// refactorization cost.
fn eta_limit(m: usize) -> usize {
    64 + m / 4
}

/// The revised-simplex solver. See the module docs.
#[derive(Debug, Clone)]
pub struct RevisedSimplex {
    /// Hard pivot limit; the default scales with problem size.
    pub max_iterations: Option<u64>,
    /// Whether to run presolve first (on by default).
    pub presolve: bool,
}

impl Default for RevisedSimplex {
    fn default() -> Self {
        RevisedSimplex { max_iterations: None, presolve: true }
    }
}

struct Core<'a> {
    std: &'a StandardLp,
    /// Sparse columns including the artificial identity block.
    n_real: usize,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// LU of the basis at the last (re)factorization…
    factor: SparseLu,
    /// …composed with one eta per pivot since.
    etas: Vec<Eta>,
    eta_nnz: usize,
    /// The etas by basis position, for the sparse eta passes.
    eta_index: EtaIndex,
    /// Scratch of the solves, reused across refactorizations.
    ws: Workspace,
    xb: Vec<f64>,
    iterations: u64,
    degenerate_run: u32,
    /// Devex reference weights, indexed like `in_basis` (real columns
    /// then artificials); reset to the unit frame per phase.
    devex: Vec<f64>,
    /// Row-wise index of `A` in CSR form: the columns with a nonzero in
    /// row `r` are `row_cols[row_start[r]..row_start[r + 1]]`,
    /// ascending. Artificials are left out: no phase prices them.
    row_start: Vec<u32>,
    row_cols: Vec<u32>,
    /// Reduced costs `d_j` of every column below the phase's
    /// `allow_below`, basic ones included, under the duals `y`; empty
    /// at the start of a phase.
    d: Vec<f64>,
    /// Bit `j` set iff column `j` is nonbasic and `d_j < -TOL`: the
    /// columns pricing may pick.
    cand: Vec<u64>,
    /// Devex scores of the candidates, kept up to date leaf by leaf.
    tree: Tournament,
    /// The dual solve `yᵀ B = c_Bᵀ`, in stages: `cb` is `c_B`,
    /// `eta_out[k]` what eta `k` wrote at its position in the eta pass,
    /// `z` is `c_B` after the eta file, `zz` the `Uᵀ` solve of `z`, and
    /// `y` the duals by original row. `duals_fresh` says they match the
    /// factor and the costs, up to the last pivot.
    cb: Vec<f64>,
    eta_out: Vec<f64>,
    z: Vec<f64>,
    zz: Vec<f64>,
    y: Vec<f64>,
    duals_fresh: bool,
    /// The entering column's ftran image `w` and its ascending support.
    w: Vec<f64>,
    w_supp: Vec<usize>,
    /// The pivot row `ρ = e_lr B⁻¹` by original row (`+0.0` off
    /// `rho_supp`), and the basis-position scratch its solve starts in.
    rho: Vec<f64>,
    rho_supp: Vec<usize>,
    unit: Vec<f64>,
    /// Rows whose dual changed bits; the positions seeding a sparse
    /// solve.
    changed: Vec<usize>,
    seeds: Vec<usize>,
    /// Columns gathered by [`Core::touch_rows`], deduplicated through
    /// `stamp` (`stamp[j] == stamp_gen` once `j` is gathered).
    touched: Vec<usize>,
    stamp: Vec<u32>,
    stamp_gen: u32,
}

enum Step {
    Optimal,
    Unbounded,
    Pivoted,
}

impl<'a> Core<'a> {
    fn new(std: &'a StandardLp) -> Self {
        let m = std.m;
        let n_real = std.n();
        let n_total = n_real + m;
        let mut in_basis = vec![false; n_total];
        for slot in in_basis.iter_mut().skip(n_real) {
            *slot = true;
        }
        let (row_start, row_cols) = transpose(m, &std.cols);
        Core {
            std,
            n_real,
            basis: (n_real..n_total).collect(),
            in_basis,
            factor: SparseLu::identity(m),
            etas: Vec::new(),
            eta_nnz: 0,
            eta_index: EtaIndex::new(m),
            ws: Workspace::new(m),
            xb: std.b.clone(),
            iterations: 0,
            degenerate_run: 0,
            devex: vec![1.0; n_total],
            row_start,
            row_cols,
            d: Vec::new(),
            cand: Vec::new(),
            tree: Tournament::default(),
            cb: vec![0.0; m],
            eta_out: Vec::new(),
            z: vec![0.0; m],
            zz: vec![0.0; m],
            y: vec![0.0; m],
            duals_fresh: false,
            w: vec![0.0; m],
            w_supp: Vec::new(),
            rho: vec![0.0; m],
            rho_supp: Vec::new(),
            unit: vec![0.0; m],
            changed: Vec::new(),
            seeds: Vec::new(),
            touched: Vec::new(),
            stamp: vec![0; n_total],
            stamp_gen: 0,
        }
    }

    /// Gather into `touched` each column below `allow_below` with a
    /// nonzero in one of `rows`, once each, in first-seen order.
    fn touch_rows(&mut self, rows: impl Iterator<Item = usize>, allow_below: usize) {
        self.stamp_gen += 1;
        self.touched.clear();
        for r in rows {
            for j in csr(&self.row_start, &self.row_cols, r) {
                if j < allow_below && self.stamp[j] != self.stamp_gen {
                    self.stamp[j] = self.stamp_gen;
                    self.touched.push(j);
                }
            }
        }
    }

    /// Materialize the current basis columns for factorization.
    fn basis_cols(&self) -> Vec<Vec<(usize, f64)>> {
        self.basis
            .iter()
            .map(|&j| match self.col(j) {
                ColRef::Unit(r) => vec![(r, 1.0)],
                ColRef::Sparse(col) => col.to_vec(),
            })
            .collect()
    }

    /// Sparse column `j` (artificials are unit vectors).
    fn col(&self, j: usize) -> ColRef<'_> {
        if j < self.n_real {
            ColRef::Sparse(&self.std.cols[j])
        } else {
            ColRef::Unit(j - self.n_real)
        }
    }

    /// `w = B⁻¹ a_j` into `self.w`, with its ascending support in
    /// `self.w_supp`: the LU solve, then the eta file in creation order.
    ///
    /// An eta finding `w[r] == ±0.0` computes `xr = w[r] / pivot`, a
    /// zero of `w[r]`'s sign (the pivot is positive), and `x − w·xr`,
    /// which keeps every position's bits but can turn a `−0.0` into
    /// `+0.0`. So only the etas run that replaced
    /// a position holding a nonzero, or whose support holds a `−0.0`.
    /// Both kinds are queued from the LU image's support and the
    /// factor's `−0.0` template positions, and after an eta applied with
    /// `w[r] != 0` (which may write its whole support, and only then
    /// adds it to `w_supp`) from its positions.
    fn ftran(&mut self, j: usize) {
        let std = self.std;
        let unit;
        let a: &[(usize, f64)] = if j < self.n_real {
            &std.cols[j]
        } else {
            unit = [(j - self.n_real, 1.0)];
            &unit
        };
        self.factor.ftran(&mut self.ws, a.iter().copied(), &mut self.w, &mut self.w_supp);
        let (w, index) = (&mut self.w, &mut self.eta_index);
        let all = 0..self.etas.len();
        for &p in self.w_supp.iter().chain(self.factor.negative_zeros()) {
            queue_at(index, w, p, all.clone());
        }
        while let Some(k) = index.pop_first() {
            let eta = &self.etas[k];
            if w[eta.r] == 0.0 && !eta.w.iter().any(|&(i, _)| w[i].to_bits() == NEG_ZERO) {
                continue;
            }
            if eta.apply_ftran(w) {
                for &(i, _) in &eta.w {
                    self.w_supp.push(i);
                    queue_at(index, w, i, k + 1..all.end);
                }
            } else {
                // Only a `w[r]` too small for `xr` to stay nonzero can
                // have changed, to a zero of its own sign.
                queue_at(index, w, eta.r, k + 1..all.end);
            }
        }
        self.w_supp.sort_unstable();
        self.w_supp.dedup();
    }

    /// `ρ = e_lr B⁻¹` into `self.rho`, nonzero only at the rows of
    /// `self.rho_supp` — the pivot row of the inverse, needed by the
    /// Devex weight update.
    ///
    /// The eta file runs in reverse creation order, but an eta whose
    /// positions all hold zeros is skipped: its sum `s` stays `+0.0`
    /// and, with a positive pivot, `(c_r − s) / pivot` keeps `c_r`'s
    /// bits. Starting from `lr`'s etas, each eta that leaves a nonzero
    /// at its row `r` queues the earlier etas at `r`. The etas write
    /// only their rows, so those and `lr` seed the LU solve.
    fn btran_unit(&mut self, lr: usize) {
        self.unit[lr] = 1.0;
        self.seeds.clear();
        self.seeds.push(lr);
        self.eta_index.queue_touching(lr, 0..self.etas.len());
        while let Some(k) = self.eta_index.pop_last() {
            let eta = &self.etas[k];
            eta.apply_btran(&mut self.unit);
            self.seeds.push(eta.r);
            if self.unit[eta.r] != 0.0 {
                self.eta_index.queue_touching(eta.r, 0..k);
            }
        }
        let (rho, supp) = (&mut self.rho, &mut self.rho_supp);
        self.factor.btran(&mut self.ws, &mut self.unit, &self.seeds, rho, supp);
    }

    fn reduced_cost(&self, j: usize, y: &[f64], c: &dyn Fn(usize) -> f64) -> f64 {
        let dot = match self.col(j) {
            ColRef::Unit(r) => y[r],
            ColRef::Sparse(col) => col.iter().map(|&(r, v)| y[r] * v).sum(),
        };
        c(j) - dot
    }

    /// Column `j`'s pricing score: `d_j² / w_j` for a candidate,
    /// `-inf` otherwise.
    fn score(&self, j: usize) -> f64 {
        if self.cand[j / 64] >> (j % 64) & 1 == 1 {
            let dj = self.d[j];
            dj * dj / self.devex[j]
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Set or clear column `j`'s pricing candidate bit.
    fn update_candidate(&mut self, j: usize) {
        let bit = 1u64 << (j % 64);
        if !self.in_basis[j] && self.d[j] < -TOL {
            self.cand[j / 64] |= bit;
        } else {
            self.cand[j / 64] &= !bit;
        }
    }

    /// Bring column `j`'s candidate bit and score up to date after its
    /// `d_j`, its Devex weight or its basis membership changed.
    fn rescore(&mut self, j: usize) {
        self.update_candidate(j);
        let s = self.score(j);
        self.tree.set(j, s);
    }

    /// Rebuild the tournament from every column's score.
    fn rescore_all(&mut self) {
        let mut tree = std::mem::take(&mut self.tree);
        tree.rebuild((0..self.d.len()).map(|j| self.score(j)));
        self.tree = tree;
    }

    /// The pricing candidates, ascending.
    fn candidates(&self) -> impl Iterator<Item = usize> + '_ {
        self.cand.iter().enumerate().flat_map(|(i, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let j = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    j
                })
            })
        })
    }

    /// Bring the duals `y = c_B B⁻¹` of the current basis, `d` and the
    /// candidate bitmap up to date.
    ///
    /// After a pivot that kept the factor, [`Core::update_dual_etas`]
    /// reruns only the etas whose inputs changed bits, and the rows
    /// whose `z` changed bits seed [`SparseLu::btran_update`]. After a
    /// refactorization or a phase start the whole solve reruns. `d_j`
    /// reads `y` only at column `j`'s rows, so only the columns in rows
    /// whose dual changed bits are recomputed; after a phase start
    /// every column is.
    fn refresh_reduced_costs(&mut self, c: &dyn Fn(usize) -> f64, allow_below: usize) {
        self.changed.clear();
        let seeds = if self.duals_fresh {
            self.update_dual_etas(c);
            Some(&self.seeds[..])
        } else {
            for (cb, &b) in self.cb.iter_mut().zip(&self.basis) {
                *cb = c(b);
            }
            self.z.copy_from_slice(&self.cb);
            self.eta_out.clear();
            self.eta_out.resize(self.etas.len(), 0.0);
            for (k, eta) in self.etas.iter().enumerate().rev() {
                let inputs = self.eta_index.dual_inputs(k);
                for (x, &(i, _)) in inputs.iter_mut().zip(&eta.w) {
                    *x = self.z[i];
                }
                self.z[eta.r] = dual_output(eta, inputs);
                self.eta_out[k] = self.z[eta.r];
            }
            self.duals_fresh = true;
            None
        };
        let (zz, y) = (&mut self.zz, &mut self.y);
        self.factor.btran_update(&mut self.ws, &self.z, seeds, zz, y, &mut self.changed);
        if self.d.is_empty() {
            self.d = (0..allow_below).map(|j| self.reduced_cost(j, &self.y, c)).collect();
            self.cand = vec![0; allow_below.div_ceil(64)];
            (0..allow_below).for_each(|j| self.update_candidate(j));
            self.rescore_all();
        } else {
            let changed = std::mem::take(&mut self.changed);
            self.touch_rows(changed.iter().copied(), allow_below);
            self.changed = changed;
            let touched = std::mem::take(&mut self.touched);
            for &j in &touched {
                self.d[j] = self.reduced_cost(j, &self.y, c);
                self.rescore(j);
            }
            self.touched = touched;
        }
    }

    /// Bring `c_B`, `eta_out` and `z` up to date after the pivot that
    /// pushed the newest eta, and list in `seeds` the positions whose
    /// `z` changed bits.
    ///
    /// The dense pass runs the etas newest first from `c_B`, so eta `k`
    /// reads position `p` as the output of the oldest newer eta that
    /// replaced `p`, or as `c_B[p]` if none did, and `z[p]` is the
    /// output of the oldest eta that replaced `p`. The index keeps what
    /// each eta read. The newest eta reads `c_B`; the pivot changed it
    /// only at `lr`, which the older etas now read from the newest one
    /// back to `lr`'s previous replacement. So an eta whose output
    /// changed bits (the newest one first) hands it to the etas that
    /// read its position from it, and those rerun, newest first.
    fn update_dual_etas(&mut self, c: &dyn Fn(usize) -> f64) {
        let newest = self.etas.len() - 1;
        debug_assert_eq!(self.eta_out.len(), newest, "one pivot since the last pass");
        self.eta_out.push(0.0);
        let eta = &self.etas[newest];
        self.cb[eta.r] = c(self.basis[eta.r]);
        let inputs = self.eta_index.dual_inputs(newest);
        for (x, &(i, _)) in inputs.iter_mut().zip(&eta.w) {
            *x = self.cb[i];
        }
        self.eta_index.mark(newest);
        self.seeds.clear();
        while let Some(k) = self.eta_index.pop_last() {
            let eta = &self.etas[k];
            let out = dual_output(eta, self.eta_index.dual_inputs(k));
            if k < newest && out.to_bits() == self.eta_out[k].to_bits() {
                continue;
            }
            self.eta_out[k] = out;
            let previous = self.eta_index.previous(k);
            if previous.is_none() && self.z[eta.r].to_bits() != out.to_bits() {
                self.z[eta.r] = out;
                self.seeds.push(eta.r);
            }
            self.eta_index.feed(eta.r, previous.unwrap_or(0)..k, out);
        }
    }

    /// Devex reference-weight update after the pivot `(q, lr)`, using
    /// the pivot row `ρ = e_lr B⁻¹` of the *pre-pivot* basis. Must run
    /// before the eta for this pivot is pushed. A column with no
    /// nonzero in a row where `ρ` is nonzero has `α_j = ±0` and keeps
    /// its weight, so only the columns of `ρ`'s support are visited.
    fn devex_update(&mut self, q: usize, lr: usize, alpha_q: f64, allow_below: usize) {
        self.btran_unit(lr);
        let wq = self.devex[q].max(1.0);
        let ref_weight = wq / (alpha_q * alpha_q);
        let mut rho = std::mem::take(&mut self.rho);
        let supp = std::mem::take(&mut self.rho_supp);
        self.touch_rows(supp.iter().copied().filter(|&r| rho[r] != 0.0), allow_below);
        let touched = std::mem::take(&mut self.touched);
        for &j in &touched {
            if self.in_basis[j] || j == q {
                continue;
            }
            let alpha_j = match self.col(j) {
                ColRef::Unit(r) => rho[r],
                ColRef::Sparse(col) => col.iter().map(|&(r, v)| rho[r] * v).sum(),
            };
            if alpha_j != 0.0 {
                let cand = alpha_j * alpha_j * ref_weight;
                if cand > self.devex[j] {
                    self.devex[j] = cand;
                    self.rescore(j);
                }
            }
        }
        self.touched = touched;
        for &r in &supp {
            rho[r] = 0.0;
        }
        self.rho = rho;
        self.rho_supp = supp;
        // The leaving variable re-enters the nonbasic pool with the
        // reference weight (`pivot` rescores it); overflow resets the
        // whole frame.
        self.devex[self.basis[lr]] = ref_weight.max(1.0);
        if ref_weight > DEVEX_RESET {
            self.devex.fill(1.0);
            self.rescore_all();
        }
    }

    /// The entering column: Devex pricing (the tournament's winner), or
    /// under Bland's rule the first improving column.
    fn entering(&self, use_bland: bool) -> Option<usize> {
        if use_bland {
            self.candidates().next()
        } else {
            self.tree.best()
        }
    }

    /// The leaving row for the entering column's ftran image.
    fn leaving(&self, use_bland: bool) -> Option<usize> {
        if use_bland {
            textbook_ratio(&self.w, &self.w_supp, &self.xb, &self.basis)
        } else {
            harris_ratio(&self.w, &self.w_supp, &self.xb, &self.basis)
        }
    }

    /// One simplex pivot under cost `c`, with entering candidates drawn
    /// from `0..allow_below`.
    fn step(&mut self, c: &dyn Fn(usize) -> f64, allow_below: usize) -> Step {
        self.refresh_reduced_costs(c, allow_below);
        let use_bland = self.degenerate_run >= DEGENERATE_SWITCH;
        let Some(q) = self.entering(use_bland) else { return Step::Optimal };
        self.ftran(q);
        let Some(lr) = self.leaving(use_bland) else { return Step::Unbounded };
        if !use_bland {
            self.devex_update(q, lr, self.w[lr], allow_below);
        }
        self.pivot(q, lr);
        Step::Pivoted
    }

    /// Bring `q` into basis position `lr` along `self.w`: update `x_B`,
    /// the basis, the candidate bitmap and the eta file, refactorizing
    /// as the growth/drift policy says.
    fn pivot(&mut self, q: usize, lr: usize) {
        let theta = self.step_length(lr);
        let w = &self.w;
        if theta <= TOL {
            self.degenerate_run += 1;
        } else {
            self.degenerate_run = 0;
        }

        // Update the solution estimate on `w`'s support, zeros included;
        // position `lr` is overwritten afterwards. Off the support `w_i`
        // is a zero and `x − θ·w_i` keeps `x`'s bits (no entry lies in
        // `(−TOL, 0)` to snap), unless `x` and `θ·w_i` are both `−0.0`.
        // They never are: `θ` is never `−0.0`, a refactorization leaves
        // no `−0.0` in `x_B` and an update makes none (`−0.0 − (+0.0)`
        // is the only difference that is `−0.0`), and until the first
        // refactorization, with an identity factor, every `−0.0` of `w`
        // is on its support.
        for &i in &self.w_supp {
            let v = self.xb[i] - theta * w[i];
            self.xb[i] = if v < 0.0 && v > -TOL { 0.0 } else { v };
        }
        self.xb[lr] = theta;

        let leaving = self.basis[lr];
        self.in_basis[leaving] = false;
        self.in_basis[q] = true;
        self.basis[lr] = q;
        self.rescore(q);
        if leaving < self.d.len() {
            self.rescore(leaving);
        }
        self.iterations += 1;

        // Product-form update, then the growth/drift-driven
        // refactorization policy (no fixed cadence).
        let eta = Eta::new(&self.w, &self.w_supp, lr);
        self.eta_nnz += eta.nnz();
        self.eta_index.push(self.etas.len(), &eta);
        self.etas.push(eta);
        let grown = self.etas.len() >= eta_limit(self.std.m)
            || self.eta_nnz > 2 * self.factor.nnz() + 64;
        if grown || (self.iterations.is_multiple_of(DRIFT_CHECK_EVERY) && self.drift_exceeded()) {
            self.refactorise();
        }
    }

    /// The step `θ = x_lr / w_lr` of a pivot at `lr`, `+0.0` when `x_lr`
    /// is not positive: never `−0.0`, which `f64::max` may return.
    fn step_length(&self, lr: usize) -> f64 {
        if self.xb[lr] > 0.0 {
            self.xb[lr] / self.w[lr]
        } else {
            0.0
        }
    }

    /// `‖B x_B − b‖∞` beyond tolerance means the eta-composed estimate
    /// has drifted and a refactorization is due.
    fn drift_exceeded(&self) -> bool {
        let m = self.std.m;
        let mut r = vec![0.0; m];
        for (k, &j) in self.basis.iter().enumerate() {
            let xk = self.xb[k];
            if xk == 0.0 {
                continue;
            }
            match self.col(j) {
                ColRef::Unit(row) => r[row] += xk,
                ColRef::Sparse(col) => {
                    for &(row, v) in col {
                        r[row] += v * xk;
                    }
                }
            }
        }
        let scale = 1.0 + self.std.b.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        r.iter()
            .zip(&self.std.b)
            .any(|(&ri, &bi)| (ri - bi).abs() > DRIFT_TOL * scale)
    }

    /// Rebuild the LU factor and `x_B` from scratch off the current
    /// basis matrix, discarding the eta file. Returns `false` when the
    /// basis is numerically singular (the previous factor and etas are
    /// kept as the best available estimate).
    fn refactorise(&mut self) -> bool {
        let cols = self.basis_cols();
        let Some(factor) = SparseLu::factorize(self.std.m, &cols) else {
            return false;
        };
        self.factor = factor;
        self.etas.clear();
        self.eta_index.clear();
        self.eta_nnz = 0;
        self.duals_fresh = false;
        // Zeros of `b` are left out: they only decide signs of zeros,
        // which the clean-up below erases.
        let b = self.std.b.iter().copied().enumerate().filter(|&(_, v)| v != 0.0);
        self.factor.ftran(&mut self.ws, b, &mut self.xb, &mut self.w_supp);
        for x in &mut self.xb {
            if x.abs() < TOL {
                *x = 0.0;
            }
        }
        true
    }

    /// Fresh Devex reference frame, duals and reduced costs per phase:
    /// the cost vector they are computed against has changed.
    fn start_phase(&mut self) {
        self.devex.fill(1.0);
        self.duals_fresh = false;
        self.d.clear();
    }

    fn optimise(
        &mut self,
        c: &dyn Fn(usize) -> f64,
        allow_below: usize,
        limit: u64,
    ) -> Result<bool, LpError> {
        debug_assert!(allow_below <= self.n_real, "the row index has no artificials");
        self.start_phase();
        loop {
            if self.iterations > limit {
                return Err(LpError::IterationLimit(limit));
            }
            match self.step(c, allow_below) {
                Step::Optimal => return Ok(true),
                Step::Unbounded => return Ok(false),
                Step::Pivoted => {}
            }
        }
    }

    fn objective(&self, c: &dyn Fn(usize) -> f64) -> f64 {
        self.basis.iter().zip(&self.xb).map(|(&b, &x)| c(b) * x).sum()
    }

    fn extract(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n_real];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_real {
                x[b] = self.xb[i];
            }
        }
        x
    }
}

/// A max tournament over the pricing scores of columns `0..n`: a
/// complete binary tree whose every node holds the column that wins its
/// subtree. A node takes its right child's winner only when that score
/// is strictly greater, so the root holds the smallest index among the
/// maxima — what an ascending scan with a strict `>` returns. A changed
/// score replays only the matches on its leaf's path to the root.
#[derive(Debug, Default)]
struct Tournament {
    /// The leaves' scores; the leaves past them, up to a power of two,
    /// score `-inf`.
    scores: Vec<f64>,
    /// `win[i]` for `1 <= i < win.len()`, the leaf count: the winner of
    /// node `i`, whose children are nodes `2i` and `2i + 1`. Node
    /// `win.len() + j` is leaf `j`.
    win: Vec<u32>,
}

impl Tournament {
    /// The column winning node `i`.
    fn at(&self, i: usize) -> usize {
        let leaves = self.win.len();
        if i >= leaves {
            i - leaves
        } else {
            self.win[i] as usize
        }
    }

    /// Leaf `j`'s score: `-inf` past the columns.
    fn score(&self, j: usize) -> f64 {
        self.scores.get(j).copied().unwrap_or(f64::NEG_INFINITY)
    }

    /// The winner of node `i`'s match between its children's winners.
    fn play(&self, i: usize) -> u32 {
        let (l, r) = (self.at(2 * i), self.at(2 * i + 1));
        (if self.score(r) > self.score(l) { r } else { l }) as u32
    }

    /// Start over with one leaf per score, replaying every match.
    fn rebuild(&mut self, scores: impl Iterator<Item = f64>) {
        self.scores.clear();
        self.scores.extend(scores);
        self.win.clear();
        self.win.resize(self.scores.len().next_power_of_two(), 0);
        for i in (1..self.win.len()).rev() {
            self.win[i] = self.play(i);
        }
    }

    /// Give leaf `j` score `s`. The walk up stops at a node whose winner
    /// is neither `j` nor changed: nothing above it can change.
    fn set(&mut self, j: usize, s: f64) {
        if self.scores[j].to_bits() == s.to_bits() {
            return;
        }
        self.scores[j] = s;
        let mut i = (self.win.len() + j) / 2;
        while i > 0 {
            let w = self.play(i);
            if w == self.win[i] && w as usize != j {
                break;
            }
            self.win[i] = w;
            i /= 2;
        }
    }

    /// The smallest column among the highest scores, unless every
    /// score is `-inf`.
    fn best(&self) -> Option<usize> {
        let j = self.at(1);
        (self.score(j) > f64::NEG_INFINITY).then_some(j)
    }
}

/// The bits of `-0.0`.
const NEG_ZERO: u64 = 1 << 63;

/// Queue for the sparse `ftran` the etas in `range` that position `p`
/// of `w` obliges to run: those replacing `p` if it holds a nonzero,
/// those touching it if it holds `-0.0`.
fn queue_at(index: &mut EtaIndex, w: &[f64], p: usize, range: std::ops::Range<usize>) {
    if w[p] != 0.0 {
        index.queue_replacing(p, range);
    } else if w[p].to_bits() == NEG_ZERO {
        index.queue_touching(p, range);
    }
}

/// Ends a list of [`EtaIndex`].
const NIL: u32 = u32::MAX;

/// What eta `eta` writes at its position in the dual eta pass, given
/// what it reads at each entry of its support: [`Eta::apply_btran`]'s
/// arithmetic, term for term.
fn dual_output(eta: &Eta, inputs: &[f64]) -> f64 {
    let mut s = 0.0;
    let mut at_r = 0.0;
    for (&(i, w), &x) in eta.w.iter().zip(inputs) {
        if i != eta.r {
            s += w * x;
        } else {
            at_r = x;
        }
    }
    (at_r - s) / eta.pivot
}

/// The eta file indexed by basis position, and the etas a sparse pass
/// has yet to apply. Per position `p`, the etas whose support (pivot
/// entry included) holds `p`, newest first from `touching[p]` through
/// the `(eta, next)` nodes of `link`; and the etas that replaced `p`,
/// newest first from `newest[p]` through `older`. Storage is reused
/// across refactorizations.
#[derive(Debug)]
struct EtaIndex {
    touching: Vec<u32>,
    /// One node per support entry, eta by eta in creation order and
    /// each eta's in its support's order, starting at `first[k]`.
    link: Vec<(u32, u32)>,
    first: Vec<u32>,
    /// By node: what its eta read at that entry in the last dual pass.
    dual_in: Vec<f64>,
    newest: Vec<u32>,
    /// `older[k]`: the next older eta that replaced eta `k`'s position.
    older: Vec<u32>,
    /// One bit per eta; all clear between passes.
    pending: Vec<u64>,
}

impl EtaIndex {
    fn new(m: usize) -> EtaIndex {
        EtaIndex {
            touching: vec![NIL; m],
            link: Vec::new(),
            first: Vec::new(),
            dual_in: Vec::new(),
            newest: vec![NIL; m],
            older: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// List eta `k`, the newest, at its position and its support.
    fn push(&mut self, k: usize, eta: &Eta) {
        self.first.push(self.link.len() as u32);
        self.older.push(self.newest[eta.r]);
        self.newest[eta.r] = k as u32;
        for &(i, _) in &eta.w {
            self.link.push((k as u32, self.touching[i]));
            self.touching[i] = (self.link.len() - 1) as u32;
        }
        self.dual_in.resize(self.link.len(), 0.0);
        if self.pending.len() <= k / 64 {
            self.pending.push(0);
        }
    }

    /// Forget every eta (the factor was rebuilt).
    fn clear(&mut self) {
        self.touching.fill(NIL);
        self.newest.fill(NIL);
        self.link.clear();
        self.first.clear();
        self.dual_in.clear();
        self.older.clear();
    }

    /// Eta `k`'s dual-pass inputs, one per entry of its support.
    fn dual_inputs(&mut self, k: usize) -> &mut [f64] {
        let end = self.first.get(k + 1).map_or(self.link.len(), |&e| e as usize);
        &mut self.dual_in[self.first[k] as usize..end]
    }

    /// The next older eta that replaced eta `k`'s position.
    fn previous(&self, k: usize) -> Option<usize> {
        let e = self.older[k];
        (e != NIL).then_some(e as usize)
    }

    /// Make `value` the dual-pass input at position `p` of the etas in
    /// `range` whose support holds it, and mark them pending.
    fn feed(&mut self, p: usize, range: std::ops::Range<usize>, value: f64) {
        let mut node = self.touching[p];
        while node != NIL {
            let (k, next) = self.link[node as usize];
            let k = k as usize;
            if k < range.start {
                break;
            }
            if k < range.end {
                self.dual_in[node as usize] = value;
                self.mark(k);
            }
            node = next;
        }
    }

    /// Mark pending the etas in `range` whose support holds `p`.
    fn queue_touching(&mut self, p: usize, range: std::ops::Range<usize>) {
        self.queue(self.touching[p], range);
    }

    /// Mark pending the etas in `range` that replaced position `p`.
    fn queue_replacing(&mut self, p: usize, range: std::ops::Range<usize>) {
        let mut e = self.newest[p];
        while e != NIL && e as usize >= range.start {
            let k = e as usize;
            if k < range.end {
                self.mark(k);
            }
            e = self.older[k];
        }
    }

    /// Mark pending the etas in `range` on the list from `node`.
    fn queue(&mut self, mut node: u32, range: std::ops::Range<usize>) {
        while node != NIL {
            let (k, next) = self.link[node as usize];
            let k = k as usize;
            if k < range.start {
                break;
            }
            if k < range.end {
                self.mark(k);
            }
            node = next;
        }
    }

    /// Mark eta `k` pending.
    fn mark(&mut self, k: usize) {
        self.pending[k / 64] |= 1 << (k % 64);
    }

    /// Take the oldest pending eta.
    fn pop_first(&mut self) -> Option<usize> {
        let i = self.pending.iter().position(|&word| word != 0)?;
        let k = self.pending[i].trailing_zeros() as usize;
        self.pending[i] &= !(1 << k);
        Some(i * 64 + k)
    }

    /// Take the newest pending eta.
    fn pop_last(&mut self) -> Option<usize> {
        let i = self.pending.iter().rposition(|&word| word != 0)?;
        let k = 63 - self.pending[i].leading_zeros() as usize;
        self.pending[i] &= !(1 << k);
        Some(i * 64 + k)
    }
}

enum ColRef<'a> {
    Sparse(&'a [(usize, f64)]),
    Unit(usize),
}

/// Harris two-pass ratio test over the ascending support `supp` of the
/// entering column's ftran image `w` (a row off it has `w_i = 0` and
/// cannot bind). Pass 1 relaxes each binding row by [`FEAS_TOL`] to
/// compute the loosest admissible step `θ_max`; pass 2 picks, among the
/// rows whose exact ratio fits under `θ_max`, the one with the
/// **largest pivot magnitude** (numerical stability), breaking ties
/// toward the smallest basis variable index. Returns the leaving row,
/// or `None` when the direction is unbounded.
pub(crate) fn harris_ratio(
    w: &[f64],
    supp: &[usize],
    xb: &[f64],
    basis: &[usize],
) -> Option<usize> {
    let mut theta_max = f64::INFINITY;
    let mut any = false;
    for &i in supp {
        let wi = w[i];
        if wi > RATIO_PIVOT_TOL {
            any = true;
            let bound = (xb[i].max(0.0) + FEAS_TOL) / wi;
            if bound < theta_max {
                theta_max = bound;
            }
        }
    }
    if !any {
        return None;
    }
    let mut best: Option<usize> = None;
    for &i in supp {
        let wi = w[i];
        if wi > RATIO_PIVOT_TOL && xb[i].max(0.0) / wi <= theta_max {
            let better = match best {
                None => true,
                Some(bi) => wi > w[bi] || (wi == w[bi] && basis[i] < basis[bi]),
            };
            if better {
                best = Some(i);
            }
        }
    }
    best
}

/// The textbook single-pass minimum-ratio test (with the smallest-
/// basis-index tie-break the solver has always used under Bland's
/// rule), over the same ascending support as [`harris_ratio`]: the
/// tolerance tie-break depends on the scan order. Kept both as the
/// degenerate-run fallback and as the oracle the Harris test is
/// proptested against.
pub(crate) fn textbook_ratio(
    w: &[f64],
    supp: &[usize],
    xb: &[f64],
    basis: &[usize],
) -> Option<usize> {
    let mut leave: Option<(usize, f64)> = None;
    for &i in supp {
        let wi = w[i];
        if wi > TOL {
            let theta = xb[i] / wi;
            let better = match leave {
                None => true,
                Some((li, lt)) => {
                    theta < lt - TOL || ((theta - lt).abs() <= TOL && basis[i] < basis[li])
                }
            };
            if better {
                leave = Some((i, theta));
            }
        }
    }
    leave.map(|(i, _)| i)
}

impl LpSolver for RevisedSimplex {
    /// Presolve (unless disabled), then a two-phase cold start from the
    /// artificial identity basis.
    fn solve(&self, problem: &Problem) -> Result<Solution, LpError> {
        problem.validate()?;
        // Every outcome but an optimum carries no point.
        let without_point = |status, iterations| Solution {
            status,
            objective: 0.0,
            values: vec![0.0; problem.num_vars()],
            iterations,
            degraded: false,
        };
        let std = if self.presolve {
            match reduce(problem) {
                Ok(reduction) => StandardLp::from_reduction(problem, &reduction),
                Err(status) => return Ok(without_point(status, 0)),
            }
        } else {
            StandardLp::from_problem(problem)
        };
        let m = std.m;
        let n = std.n();

        if m == 0 {
            if std.c.iter().any(|&cj| cj < -TOL) {
                return Ok(without_point(Status::Unbounded, 0));
            }
            let (values, objective) = std.recover(problem, &vec![0.0; n]);
            return Ok(Solution {
                status: Status::Optimal,
                objective,
                values,
                iterations: 0,
                degraded: false,
            });
        }

        let limit = self
            .max_iterations
            .unwrap_or_else(|| 50_000u64.max(200 * (m as u64 + n as u64)));

        // Phase 1.
        let mut core = Core::new(&std);
        let phase1 = move |j: usize| if j >= n { 1.0 } else { 0.0 };
        let finished = core.optimise(&phase1, n, limit)?;
        debug_assert!(finished, "phase 1 is bounded below by 0");
        if core.objective(&phase1) > 1e-7 {
            return Ok(without_point(Status::Infeasible, core.iterations));
        }

        // Phase 2.
        let c = std.c.clone();
        let phase2 = move |j: usize| if j < c.len() { c[j] } else { 0.0 };
        if !core.optimise(&phase2, n, limit)? {
            return Ok(without_point(Status::Unbounded, core.iterations));
        }

        let x = core.extract();
        let (values, objective) = std.recover(problem, &x);
        Ok(Solution {
            status: Status::Optimal,
            objective,
            values,
            iterations: core.iterations,
            degraded: false,
        })
    }

    fn name(&self) -> &'static str {
        "revised-simplex (Gurobi stand-in)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    fn solve(p: &Problem) -> Solution {
        RevisedSimplex::default().solve(p).expect("solve")
    }

    #[test]
    fn max_two_vars() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 3.0);
        let y = p.add_var(0.0, f64::INFINITY, 2.0);
        p.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        p.add_le(&[(x, 1.0)], 2.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-6);
    }

    #[test]
    fn matches_dense_on_mixed_constraints() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_ge(&[(x, 1.0), (y, 2.0)], 6.0);
        p.add_ge(&[(x, 3.0), (y, 1.0)], 9.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 4.2).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_le(&[(x, 1.0)], 1.0);
        p.add_ge(&[(x, 1.0)], 2.0);
        assert_eq!(solve(&p).status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 0.0);
        p.add_ge(&[(x, 1.0), (y, -1.0)], 0.0);
        assert_eq!(solve(&p).status, Status::Unbounded);
    }

    #[test]
    fn degenerate_lp_terminates() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 0.75);
        let y = p.add_var(0.0, f64::INFINITY, -150.0);
        let z = p.add_var(0.0, f64::INFINITY, 0.02);
        let w = p.add_var(0.0, f64::INFINITY, -6.0);
        p.add_le(&[(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)], 0.0);
        p.add_le(&[(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)], 0.0);
        p.add_le(&[(z, 1.0)], 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 0.05).abs() < 1e-6);
    }

    #[test]
    fn refactorisation_keeps_accuracy_on_longer_solves() {
        // A transportation-style LP big enough to trigger refactorisation.
        let mut p = Problem::new(Sense::Minimize);
        let srcs = 12;
        let dsts = 12;
        let mut vars = Vec::new();
        for i in 0..srcs {
            for j in 0..dsts {
                let cost = 1.0 + ((i * 7 + j * 13) % 10) as f64;
                vars.push(p.add_var(0.0, f64::INFINITY, cost));
            }
        }
        for i in 0..srcs {
            let row: Vec<_> = (0..dsts).map(|j| (vars[i * dsts + j], 1.0)).collect();
            p.add_eq(&row, 10.0);
        }
        for j in 0..dsts {
            let col: Vec<_> = (0..srcs).map(|i| (vars[i * dsts + j], 1.0)).collect();
            p.add_eq(&col, 10.0);
        }
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!(p.is_feasible(&s.values, 1e-5));
        // Cross-check against the dense solver.
        let d = crate::dense::DenseSimplex::default().solve(&p).unwrap();
        assert!((s.objective - d.objective).abs() < 1e-4,
            "revised {} vs dense {}", s.objective, d.objective);
    }

    #[test]
    fn presolve_toggle_agrees() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 7.0, 2.0);
        let y = p.add_var(1.0, 9.0, 1.0);
        p.add_le(&[(x, 1.0), (y, 1.0)], 8.0);
        p.add_le(&[(x, 1.0)], 100.0); // redundant singleton
        let with = RevisedSimplex::default().solve(&p).unwrap();
        let without =
            RevisedSimplex { presolve: false, ..Default::default() }.solve(&p).unwrap();
        assert!((with.objective - without.objective).abs() < 1e-6);
    }

    /// Independent oracles for the incremental pricing state: the
    /// full-scan pricing and Devex update each pivot used to run, and a
    /// fresh `reduced_cost` for every cached `d_j`.
    mod incremental_oracle {
        use super::super::*;
        use crate::model::Sense;
        use proptest::prelude::*;

        /// Devex pricing over reduced costs recomputed from `y` for
        /// every nonbasic column.
        fn reference_price_devex(
            core: &Core,
            y: &[f64],
            c: &dyn Fn(usize) -> f64,
            allow_below: usize,
        ) -> Option<usize> {
            let mut best: Option<(usize, f64)> = None;
            for j in 0..allow_below {
                if core.in_basis[j] {
                    continue;
                }
                let rj = core.reduced_cost(j, y, c);
                if rj < -TOL {
                    let score = rj * rj / core.devex[j];
                    if best.is_none_or(|(_, s)| score > s) {
                        best = Some((j, score));
                    }
                }
            }
            best.map(|(j, _)| j)
        }

        /// The duals `c_B B⁻¹` of the current basis by the dense solves:
        /// the eta file in reverse creation order, then the dense `btran`.
        fn dense_duals(core: &Core, c: &dyn Fn(usize) -> f64) -> Vec<f64> {
            let mut y: Vec<f64> = core.basis.iter().map(|&b| c(b)).collect();
            for eta in core.etas.iter().rev() {
                eta.apply_btran(&mut y);
            }
            core.factor.btran_dense(&mut y);
            y
        }

        /// The Devex update over every nonbasic column, applied to
        /// `weights` instead of the core's own, with `ρ` from the dense
        /// solves.
        fn reference_devex_update(
            core: &Core,
            weights: &mut [f64],
            q: usize,
            lr: usize,
            alpha_q: f64,
            allow_below: usize,
        ) {
            let mut rho = vec![0.0; core.std.m];
            rho[lr] = 1.0;
            for eta in core.etas.iter().rev() {
                eta.apply_btran(&mut rho);
            }
            core.factor.btran_dense(&mut rho);
            let wq = weights[q].max(1.0);
            let ref_weight = wq / (alpha_q * alpha_q);
            for (j, weight) in weights.iter_mut().enumerate().take(allow_below) {
                if core.in_basis[j] || j == q {
                    continue;
                }
                let alpha_j = match core.col(j) {
                    ColRef::Unit(r) => rho[r],
                    ColRef::Sparse(col) => col.iter().map(|&(r, v)| rho[r] * v).sum(),
                };
                if alpha_j != 0.0 {
                    let cand = alpha_j * alpha_j * ref_weight;
                    if cand > *weight {
                        *weight = cand;
                    }
                }
            }
            weights[core.basis[lr]] = ref_weight.max(1.0);
            if ref_weight > DEVEX_RESET {
                weights.fill(1.0);
            }
        }

        /// `B⁻¹ a_q` by the dense solves: the dense `ftran`, then the
        /// eta file in creation order.
        fn dense_ftran(core: &Core, q: usize) -> Vec<f64> {
            let mut w = vec![0.0; core.std.m];
            match core.col(q) {
                ColRef::Unit(r) => w[r] = 1.0,
                ColRef::Sparse(col) => col.iter().for_each(|&(r, v)| w[r] += v),
            }
            core.factor.ftran_dense(&mut w);
            for eta in &core.etas {
                eta.apply_ftran(&mut w);
            }
            w
        }

        /// What the checked pivots of a solve went through.
        #[derive(Debug, Default)]
        struct Tally {
            /// Pivots priced by Bland's rule.
            bland: u64,
            /// Refactorizations, each discarding a non-empty eta file.
            refactors: u64,
            /// Devex reference-frame resets.
            resets: u64,
            /// Etas of the dense ftran pass that found only zeros at
            /// their positions, a `-0.0` among them, and changed a bit:
            /// the ones the sparse pass reaches only through the
            /// factor's negative-diagonal positions.
            zero_sign_flips: u64,
            /// `-0.0` entries of `x_B` off `w`'s support at a pivot: the
            /// zeros whose bits the sparse `x_B` update relies on
            /// keeping.
            xb_neg_zeros_off_support: u64,
        }

        /// The dense eta pass of the duals from `c_B`: the `z` it ends
        /// with, and what each eta wrote at its position.
        fn dense_eta_pass(core: &Core, c: &dyn Fn(usize) -> f64) -> (Vec<f64>, Vec<f64>) {
            let mut z: Vec<f64> = core.basis.iter().map(|&b| c(b)).collect();
            let mut out = vec![0.0; core.etas.len()];
            for (k, eta) in core.etas.iter().enumerate().rev() {
                eta.apply_btran(&mut z);
                out[k] = z[eta.r];
            }
            (z, out)
        }

        /// The `x_B` update of a pivot at `lr` over every entry.
        fn dense_xb_update(core: &Core, lr: usize) -> Vec<f64> {
            let theta = core.step_length(lr);
            let mut xb = core.xb.clone();
            for (x, &wi) in xb.iter_mut().zip(&core.w) {
                let v = *x - theta * wi;
                *x = if v < 0.0 && v > -TOL { 0.0 } else { v };
            }
            xb[lr] = theta;
            xb
        }

        /// Every tournament leaf holds its column's current score.
        fn check_leaves(core: &Core, allow_below: usize) -> Result<(), TestCaseError> {
            for j in 0..allow_below {
                let (leaf, want) = (core.tree.score(j), core.score(j));
                prop_assert_eq!(leaf.to_bits(), want.to_bits(), "stale leaf {}", j);
            }
            Ok(())
        }

        /// Runs one phase exactly as `Core::optimise` does, checking
        /// every pivot against the oracles and tallying into `tally`.
        fn checked_phase(
            core: &mut Core,
            c: &dyn Fn(usize) -> f64,
            allow_below: usize,
            tally: &mut Tally,
        ) -> Result<(), TestCaseError> {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            core.start_phase();
            while core.iterations < 10_000 {
                core.refresh_reduced_costs(c, allow_below);
                let (z, eta_out) = dense_eta_pass(core, c);
                prop_assert_eq!(bits(&core.eta_out), bits(&eta_out), "stale eta output");
                prop_assert_eq!(bits(&core.z), bits(&z), "eta pass drifted");
                let y = dense_duals(core, c);
                prop_assert_eq!(bits(&core.y), bits(&y), "incremental duals drifted");
                for j in 0..allow_below {
                    let fresh = core.reduced_cost(j, &y, c);
                    prop_assert_eq!(core.d[j].to_bits(), fresh.to_bits(), "stale d_{}", j);
                }
                let improving: Vec<usize> = (0..allow_below)
                    .filter(|&j| !core.in_basis[j] && core.reduced_cost(j, &y, c) < -TOL)
                    .collect();
                prop_assert_eq!(core.candidates().collect::<Vec<_>>(), improving.clone());
                let use_bland = core.degenerate_run >= DEGENERATE_SWITCH;
                let want = if use_bland {
                    tally.bland += 1;
                    improving.first().copied()
                } else {
                    reference_price_devex(core, &y, c, allow_below)
                };
                let entering = core.entering(use_bland);
                prop_assert_eq!(entering, want);
                let Some(q) = entering else { return Ok(()) };
                core.ftran(q);
                let w = dense_ftran(core, q);
                tally.zero_sign_flips += zero_sign_flips(core, q);
                prop_assert_eq!(bits(&core.w), bits(&w), "ftran drifted");
                prop_assert!(core.w_supp.windows(2).all(|p| p[0] < p[1]), "support unsorted");
                let off = (0..w.len()).find(|&i| w[i] != 0.0 && !core.w_supp.contains(&i));
                prop_assert_eq!(off, None, "nonzero of w off its support");
                let Some(lr) = core.leaving(use_bland) else { return Ok(()) };
                if !use_bland {
                    let mut want = core.devex.clone();
                    reference_devex_update(core, &mut want, q, lr, w[lr], allow_below);
                    if core.devex[q].max(1.0) / (w[lr] * w[lr]) > DEVEX_RESET {
                        tally.resets += 1;
                    }
                    core.devex_update(q, lr, w[lr], allow_below);
                    prop_assert_eq!(bits(&core.devex), bits(&want));
                    check_leaves(core, allow_below)?;
                }
                let xb = dense_xb_update(core, lr);
                tally.xb_neg_zeros_off_support += (0..w.len())
                    .filter(|&i| core.xb[i].to_bits() == NEG_ZERO && !core.w_supp.contains(&i))
                    .count() as u64;
                let etas = core.etas.len();
                core.pivot(q, lr);
                if core.etas.len() <= etas {
                    tally.refactors += 1;
                } else {
                    prop_assert_eq!(bits(&core.xb), bits(&xb), "x_B update drifted");
                }
                check_leaves(core, allow_below)?;
            }
            Err(TestCaseError::fail("no optimum within 10,000 pivots"))
        }

        /// Replays the dense ftran of column `q` and counts the etas
        /// that found only zeros at their positions, a `-0.0` among
        /// them, and changed a bit of `w`.
        fn zero_sign_flips(core: &Core, q: usize) -> u64 {
            let mut w = vec![0.0; core.std.m];
            match core.col(q) {
                ColRef::Unit(r) => w[r] = 1.0,
                ColRef::Sparse(col) => col.iter().for_each(|&(r, v)| w[r] += v),
            }
            core.factor.ftran_dense(&mut w);
            let mut flips = 0;
            for eta in &core.etas {
                let at = |w: &[f64]| eta.w.iter().map(|&(i, _)| w[i].to_bits()).collect::<Vec<_>>();
                let before = at(&w);
                eta.apply_ftran(&mut w);
                let zeros = before.iter().all(|&b| f64::from_bits(b) == 0.0);
                let neg = before.iter().any(|&b| b == (-0.0f64).to_bits());
                if zeros && neg && at(&w) != before {
                    flips += 1;
                }
            }
            flips
        }

        /// A random LP with `rows` constraints over `vars` variables.
        /// Coefficients come from `coef` (zero = absent); when
        /// `degenerate`, all but every fifth right-hand side is zero, so
        /// long degenerate runs hand pricing to Bland's rule.
        fn random_lp(
            rows: usize,
            vars: usize,
            coef: &[i32],
            costs: &[i32],
            rhs: &[u32],
            ops: &[u32],
            degenerate: bool,
        ) -> Problem {
            let mut p = Problem::new(Sense::Maximize);
            let x: Vec<_> = (0..vars)
                .map(|v| p.add_var(0.0, f64::INFINITY, costs[v] as f64))
                .collect();
            for r in 0..rows {
                let terms: Vec<_> = (0..vars)
                    .filter(|&v| coef[r * vars + v] != 0)
                    .map(|v| (x[v], coef[r * vars + v] as f64 / 2.0))
                    .collect();
                let b = if degenerate && r % 5 != 0 { 0.0 } else { rhs[r] as f64 };
                match ops[r] {
                    0 => p.add_ge(&terms, b),
                    1 => p.add_eq(&terms, b),
                    _ => p.add_le(&terms, b),
                }
            }
            p
        }

        /// Give the rows of `p` with a zero right-hand side `-0.0`
        /// instead, and nonnegative coefficients, so that standard form
        /// keeps the sign in `b` and the artificial basis starts with
        /// `-0.0`s in `x_B`.
        fn negative_zero_rows(p: &mut Problem) {
            for con in p.constraints.iter_mut().filter(|con| con.rhs == 0.0) {
                con.rhs = -0.0;
                con.terms.iter_mut().for_each(|t| t.1 = t.1.abs());
            }
        }

        /// Both phases of a cold solve, checked pivot by pivot.
        fn checked_solve(p: &Problem) -> Result<Tally, TestCaseError> {
            let std = StandardLp::from_problem(p);
            let n = std.n();
            let mut core = Core::new(&std);
            let mut tally = Tally::default();
            let phase1 = move |j: usize| if j >= n { 1.0 } else { 0.0 };
            checked_phase(&mut core, &phase1, n, &mut tally)?;
            if core.objective(&phase1) <= 1e-7 {
                let c = std.c.clone();
                let phase2 = move |j: usize| if j < c.len() { c[j] } else { 0.0 };
                checked_phase(&mut core, &phase2, n, &mut tally)?;
            }
            Ok(tally)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// On every pivot of random LPs, degenerate ones included:
            /// the incremental duals and each cached `d_j` have the bits
            /// of the dense solve, the candidate bitmap is the full
            /// scan's set, the entering column is the full rescan's, the
            /// hypersparse `w` is the dense one with a covering support,
            /// and the Devex weights, the eta pass of the duals, every
            /// tournament leaf and `x_B` are the full loops', bitwise.
            #[test]
            fn incremental_pricing_matches_full_rescan(
                rows in 1usize..48,
                vars in 1usize..48,
                coef in proptest::collection::vec(-2i32..5, 48 * 48),
                costs in proptest::collection::vec(-3i32..6, 48),
                rhs in proptest::collection::vec(0u32..9, 48),
                ops in proptest::collection::vec(0u32..4, 48),
                degenerate in any::<bool>(),
                negative_zeros in any::<bool>(),
            ) {
                // Degenerate runs long enough for Bland's rule need room.
                let (rows, vars) =
                    if degenerate { (32 + rows % 16, 32 + vars % 16) } else { (rows, vars) };
                let mut p = random_lp(rows, vars, &coef, &costs, &rhs, &ops, degenerate);
                if negative_zeros {
                    negative_zero_rows(&mut p);
                }
                checked_solve(&p)?;
            }
        }

        /// The `index`-th 48 × 48 instance of a fixed stream of
        /// [`random_lp`] draws.
        fn fixed_lp(index: usize, degenerate: bool) -> Problem {
            let mut state = 0x2545_f491_4f6c_dd1d_u64;
            let mut draw = |n: u32| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((state >> 33) % n as u64) as u32
            };
            let mut lp = None;
            for _ in 0..=index {
                let coef: Vec<i32> = (0..48 * 48).map(|_| draw(7) as i32 - 2).collect();
                let costs: Vec<i32> = (0..48).map(|_| draw(9) as i32 - 3).collect();
                let rhs: Vec<u32> = (0..48).map(|_| draw(9)).collect();
                let ops: Vec<u32> = (0..48).map(|_| draw(4)).collect();
                lp = Some(random_lp(48, 48, &coef, &costs, &rhs, &ops, degenerate));
            }
            lp.expect("the loop runs at least once")
        }

        /// The proptest's degenerate LPs do reach Bland's rule: of
        /// eight fixed 48 × 48 instances, some price by it.
        #[test]
        fn degenerate_lps_reach_blands_rule() {
            let bland: u64 = (0..8)
                .map(|i| checked_solve(&fixed_lp(i, true)).expect("oracles agree").bland)
                .sum();
            assert!(bland > 0, "no pivot priced by Bland's rule");
        }

        /// The eta index's reset and the tournament's rebuild stay under
        /// the bitwise oracles. Every third row of this fixed instance
        /// is scaled by `1e-4`, so some pivots are small enough to
        /// overflow the Devex frame, and half its terms are dropped, so
        /// a pivot's dual change misses some columns and the frame
        /// reset alone must rescore them. It crosses refactorizations
        /// (each with a non-empty eta file) and frame resets.
        #[test]
        fn refactorizations_and_devex_resets_stay_under_the_oracles() {
            let mut p = fixed_lp(1, false);
            for (r, con) in p.constraints.iter_mut().enumerate() {
                con.terms.retain(|t| (t.0.index() + r) % 2 == 0);
                if r % 3 == 0 {
                    con.terms.iter_mut().for_each(|t| t.1 *= 1e-4);
                    con.rhs *= 1e-4;
                }
            }
            let tally = checked_solve(&p).expect("oracles agree");
            assert!(tally.refactors > 0, "no refactorization: {tally:?}");
            assert!(tally.resets > 0, "no Devex frame reset: {tally:?}");
        }

        /// Degenerate instances whose zero right-hand sides are `-0.0`
        /// start with `-0.0`s in `x_B`; pivots meet them off `w`'s
        /// support, where the sparse update leaves them alone, and `x_B`
        /// keeps the dense update's bits.
        #[test]
        fn negative_zero_right_hand_sides_keep_their_bits() {
            let met: u64 = (0..4)
                .map(|i| {
                    let mut p = fixed_lp(i, true);
                    negative_zero_rows(&mut p);
                    checked_solve(&p).expect("oracles agree").xb_neg_zeros_off_support
                })
                .sum();
            assert!(met > 0, "no -0.0 of x_B met off the support");
        }

        /// Standard form over the columns `cols` with costs `c` and
        /// right-hand side `b`, for driving `Core` by hand.
        fn hand_lp(cols: Vec<Vec<(usize, f64)>>, b: Vec<f64>, c: Vec<f64>) -> StandardLp {
            StandardLp { m: b.len(), cols, b, c, var_map: Vec::new() }
        }

        /// Bring column `q` into position `lr`, whatever pricing and the
        /// ratio test would pick, checking `w` against the dense ftran
        /// and every tournament leaf afterwards.
        fn forced_pivot(core: &mut Core, q: usize, lr: usize) {
            let (n, costs) = (core.n_real, core.std.c.clone());
            core.refresh_reduced_costs(&|j| costs.get(j).copied().unwrap_or(0.0), n);
            core.ftran(q);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&core.w), bits(&dense_ftran(core, q)), "ftran drifted");
            core.pivot(q, lr);
            check_leaves(core, n).expect("leaves hold their scores");
        }

        /// A column that leaves the basis with `d_j < -TOL` (a basic
        /// column's reduced cost is zero only up to rounding: here
        /// `c − (c / 3)·3` is `-1.5e-8`) becomes a candidate at once,
        /// and its tournament leaf must say so: the duals do not move,
        /// so no refresh would rescore it.
        #[test]
        fn a_leaving_column_can_reenter_as_a_candidate() {
            let c0 = 104_123_711.340_206_19;
            let std = hand_lp(vec![vec![(0, 3.0)], vec![(0, 1.0)]], vec![1.0], vec![c0, c0 / 3.0]);
            let mut core = Core::new(&std);
            core.start_phase();
            forced_pivot(&mut core, 0, 0);
            forced_pivot(&mut core, 1, 0);
            assert!(core.d[0] < -TOL, "d_0 = {}", core.d[0]);
            assert!(core.score(0) > f64::NEG_INFINITY, "column 0 is no candidate");
            assert_eq!(core.entering(false), Some(0));
        }

        /// An `ftran` eta whose `w[r] / pivot` underflows to `-0.0`
        /// leaves a zero at `r` that a later eta's update flips to
        /// `+0.0`: the sparse pass must queue the later etas touching
        /// `r`, although `r` no longer holds a nonzero.
        #[test]
        fn ftran_requeues_an_underflowed_position() {
            let cols = vec![
                vec![(0, 3.0)],
                vec![(0, -3.0), (1, 1.0)],
                vec![(0, -f64::from_bits(1))],
            ];
            let std = hand_lp(cols, vec![1.0, 1.0], vec![0.0; 3]);
            let mut core = Core::new(&std);
            core.start_phase();
            forced_pivot(&mut core, 0, 0);
            forced_pivot(&mut core, 1, 1);
            core.ftran(2);
            let w = dense_ftran(&core, 2);
            assert_eq!(w[0].to_bits(), 0.0f64.to_bits(), "the dense pass flips w[0] to +0.0");
            assert_eq!(core.w[0].to_bits(), w[0].to_bits(), "ftran drifted");
        }

        /// On this fixed instance the factor's negative diagonal leaves
        /// `-0.0` in the LU image where etas that meet only zeros flip a
        /// sign, and the sparse ftran still matches the dense one.
        #[test]
        fn negative_diagonal_zeros_reach_the_etas() {
            let tally = checked_solve(&fixed_lp(25, false)).expect("oracles agree");
            assert!(tally.zero_sign_flips > 0, "no sign flip: {tally:?}");
        }
    }

    mod tournament {
        use super::super::Tournament;
        use proptest::prelude::*;

        /// The ascending scan with a strict `>` that pricing ran before
        /// the tournament; `-inf` marks a non-candidate.
        fn scan(scores: &[f64]) -> Option<usize> {
            let mut best: Option<(usize, f64)> = None;
            for (j, &s) in scores.iter().enumerate() {
                if s > f64::NEG_INFINITY && best.is_none_or(|(_, b)| s > b) {
                    best = Some((j, s));
                }
            }
            best.map(|(j, _)| j)
        }

        /// Few distinct scores, so ties are common; `0` is `-inf`.
        fn score(v: u8) -> f64 {
            if v == 0 {
                f64::NEG_INFINITY
            } else {
                v as f64 / 4.0
            }
        }

        proptest! {
            /// After a rebuild and after every single-leaf update, the
            /// root is the scan's pick: the smallest index among the
            /// highest scores, or none once every leaf is `-inf`. Leaf
            /// counts include 1 and non-powers of two.
            #[test]
            fn tournament_matches_ascending_scan(
                n in prop_oneof![Just(1usize), 1usize..70],
                init in proptest::collection::vec(0u8..5, 70),
                updates in proptest::collection::vec((0usize..70, 0u8..5), 0..120),
            ) {
                let mut scores: Vec<f64> = init[..n].iter().map(|&v| score(v)).collect();
                let mut tree = Tournament::default();
                tree.rebuild(scores.iter().copied());
                prop_assert_eq!(tree.best(), scan(&scores));
                let clear_all = (0..n).map(|j| (j, 0));
                for (j, v) in updates.iter().map(|&(j, v)| (j % n, v)).chain(clear_all) {
                    scores[j] = score(v);
                    tree.set(j, scores[j]);
                    prop_assert_eq!(tree.best(), scan(&scores));
                }
                prop_assert_eq!(tree.best(), None);
            }
        }
    }

    mod ratio_equivalence {
        use super::super::{harris_ratio, textbook_ratio};
        use proptest::prelude::*;

        proptest! {
            /// On non-degenerate instances — every candidate row's
            /// ratio separated from the others by a gap far wider than
            /// the Harris feasibility relaxation — the two-pass Harris
            /// test must leave on exactly the row the textbook
            /// minimum-ratio test picks.
            #[test]
            fn harris_matches_textbook_when_nondegenerate(
                mraw in 2u32..12,
                wvals in proptest::collection::vec(1i32..20, 12),
                keys in proptest::collection::vec(any::<u32>(), 12),
                negs in proptest::collection::vec(any::<bool>(), 12),
            ) {
                let m = mraw as usize;
                let mut cand: Vec<usize> = (0..m).filter(|&i| !negs[i]).collect();
                if cand.is_empty() {
                    cand.push(0);
                }
                // Rank candidate rows by a random key (index tie-break)
                // so the minimum ratio lands on an arbitrary row, then
                // hand out ratios with 0.5 gaps: unambiguously
                // non-degenerate against FEAS_TOL = 1e-7.
                let mut ranked = cand.clone();
                ranked.sort_by_key(|&i| (keys[i], i));
                let mut w = vec![0.0; m];
                let mut xb = vec![0.0; m];
                for i in 0..m {
                    w[i] = -(wvals[i] as f64) / 10.0;
                    xb[i] = wvals[(i + 1) % 12] as f64 / 10.0;
                }
                for (rank, &i) in ranked.iter().enumerate() {
                    w[i] = wvals[i] as f64 / 10.0;
                    xb[i] = (1.0 + rank as f64 * 0.5) * w[i];
                }
                let basis: Vec<usize> = (0..m).collect();
                let h = harris_ratio(&w, &basis, &xb, &basis);
                let t = textbook_ratio(&w, &basis, &xb, &basis);
                prop_assert_eq!(h, t);
                prop_assert_eq!(h, Some(ranked[0]));
            }
        }
    }
}
