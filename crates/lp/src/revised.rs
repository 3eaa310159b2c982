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
//! Combined with [`crate::presolve`], it is one to two orders of
//! magnitude faster than [`crate::dense::DenseSimplex`] on the
//! traffic-engineering LPs in this workspace — the gap Table A measures.

use crate::presolve::presolve;
use crate::sparse_lu::{Eta, SparseLu};
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
    xb: Vec<f64>,
    iterations: u64,
    degenerate_run: u32,
    /// Devex reference weights, indexed like `in_basis` (real columns
    /// then artificials); reset to the unit frame per phase.
    devex: Vec<f64>,
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
        Core {
            std,
            n_real,
            basis: (n_real..n_total).collect(),
            in_basis,
            factor: SparseLu::identity(m),
            etas: Vec::new(),
            eta_nnz: 0,
            xb: std.b.clone(),
            iterations: 0,
            degenerate_run: 0,
            devex: vec![1.0; n_total],
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

    /// `w = B⁻¹ a_j`: sparse gather, LU forward/back solve, then the
    /// eta file in creation order. Result in basis-position space.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let m = self.std.m;
        let mut w = vec![0.0; m];
        match self.col(j) {
            ColRef::Unit(r) => w[r] = 1.0,
            ColRef::Sparse(col) => {
                for &(r, v) in col {
                    w[r] += v;
                }
            }
        }
        self.factor.ftran(&mut w);
        for eta in &self.etas {
            eta.apply_ftran(&mut w);
        }
        w
    }

    /// `y = c_B B⁻¹`: eta file in reverse creation order, then the LU
    /// transpose solves. Result in original-row space (the duals).
    fn btran(&self, c: &dyn Fn(usize) -> f64) -> Vec<f64> {
        let mut y: Vec<f64> = Vec::with_capacity(self.std.m);
        y.extend(self.basis.iter().map(|&b| c(b)));
        for eta in self.etas.iter().rev() {
            eta.apply_btran(&mut y);
        }
        self.factor.btran(&mut y);
        y
    }

    /// `ρ = e_lr B⁻¹` — the pivot row of the inverse, needed by the
    /// Devex weight update.
    fn btran_unit(&self, lr: usize) -> Vec<f64> {
        let mut y = vec![0.0; self.std.m];
        y[lr] = 1.0;
        for eta in self.etas.iter().rev() {
            eta.apply_btran(&mut y);
        }
        self.factor.btran(&mut y);
        y
    }

    fn reduced_cost(&self, j: usize, y: &[f64], c: &dyn Fn(usize) -> f64) -> f64 {
        let dot = match self.col(j) {
            ColRef::Unit(r) => y[r],
            ColRef::Sparse(col) => col.iter().map(|&(r, v)| y[r] * v).sum(),
        };
        c(j) - dot
    }

    /// Devex pricing: maximise `r_j² / w_j` over the improving columns.
    /// Ascending scan with a strict-greater comparison makes the
    /// tie-break "smallest column index" — fixed and deterministic.
    fn price_devex(&self, y: &[f64], c: &dyn Fn(usize) -> f64, allow_below: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..allow_below {
            if self.in_basis[j] {
                continue;
            }
            let rj = self.reduced_cost(j, y, c);
            if rj < -TOL {
                let score = rj * rj / self.devex[j];
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((j, score));
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// Devex reference-weight update after the pivot `(q, lr)`, using
    /// the pivot row `ρ = e_lr B⁻¹` of the *pre-pivot* basis. Must run
    /// before the eta for this pivot is pushed.
    fn devex_update(&mut self, q: usize, lr: usize, alpha_q: f64, allow_below: usize) {
        let rho = self.btran_unit(lr);
        let wq = self.devex[q].max(1.0);
        let ref_weight = wq / (alpha_q * alpha_q);
        for j in 0..allow_below {
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
                }
            }
        }
        // The leaving variable re-enters the nonbasic pool with the
        // reference weight; overflow resets the whole frame.
        self.devex[self.basis[lr]] = ref_weight.max(1.0);
        if ref_weight > DEVEX_RESET {
            self.devex.fill(1.0);
        }
    }

    /// One simplex pivot under cost `c`, with entering candidates drawn
    /// from `0..allow_below`.
    fn step(&mut self, c: &dyn Fn(usize) -> f64, allow_below: usize) -> Step {
        let y = self.btran(c);
        let use_bland = self.degenerate_run >= DEGENERATE_SWITCH;
        let entering = if use_bland {
            (0..allow_below)
                .find(|&j| !self.in_basis[j] && self.reduced_cost(j, &y, c) < -TOL)
        } else {
            self.price_devex(&y, c, allow_below)
        };
        let Some(q) = entering else { return Step::Optimal };

        let w = self.ftran(q);
        let leave = if use_bland {
            textbook_ratio(&w, &self.xb, &self.basis)
        } else {
            harris_ratio(&w, &self.xb, &self.basis)
        };
        let Some(lr) = leave else { return Step::Unbounded };
        let theta = self.xb[lr].max(0.0) / w[lr];

        if theta <= TOL {
            self.degenerate_run += 1;
        } else {
            self.degenerate_run = 0;
        }

        if !use_bland {
            self.devex_update(q, lr, w[lr], allow_below);
        }

        // Update the solution estimate.
        for (i, &wi) in w.iter().enumerate().take(self.std.m) {
            if i != lr {
                self.xb[i] -= theta * wi;
                if self.xb[i] < 0.0 && self.xb[i] > -TOL {
                    self.xb[i] = 0.0;
                }
            }
        }
        self.xb[lr] = theta;

        self.in_basis[self.basis[lr]] = false;
        self.in_basis[q] = true;
        self.basis[lr] = q;
        self.iterations += 1;

        // Product-form update, then the growth/drift-driven
        // refactorization policy (no fixed cadence).
        match Eta::from_dense(&w, lr) {
            Some(eta) => {
                self.eta_nnz += eta.nnz();
                self.etas.push(eta);
                let grown = self.etas.len() >= eta_limit(self.std.m)
                    || self.eta_nnz > 2 * self.factor.nnz() + 64;
                if grown
                    || (self.iterations.is_multiple_of(DRIFT_CHECK_EVERY)
                        && self.drift_exceeded())
                {
                    self.refactorise();
                }
            }
            // Pivot too small for a stable eta: rebuild from scratch.
            None => {
                self.refactorise();
            }
        }
        Step::Pivoted
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
        self.eta_nnz = 0;
        let mut xb = self.std.b.clone();
        self.factor.ftran(&mut xb);
        for x in &mut xb {
            if x.abs() < TOL {
                *x = 0.0;
            }
        }
        self.xb = xb;
        true
    }

    fn optimise(
        &mut self,
        c: &dyn Fn(usize) -> f64,
        allow_below: usize,
        limit: u64,
    ) -> Result<bool, LpError> {
        // Fresh Devex reference frame per phase (the cost vector the
        // weights approximate steepest-edge against has changed).
        self.devex.fill(1.0);
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

enum ColRef<'a> {
    Sparse(&'a [(usize, f64)]),
    Unit(usize),
}

/// Harris two-pass ratio test. Pass 1 relaxes each binding row by
/// [`FEAS_TOL`] to compute the loosest admissible step `θ_max`; pass 2
/// picks, among the rows whose exact ratio fits under `θ_max`, the one
/// with the **largest pivot magnitude** (numerical stability), breaking
/// ties toward the smallest basis variable index. Returns the leaving
/// row, or `None` when the direction is unbounded.
pub(crate) fn harris_ratio(w: &[f64], xb: &[f64], basis: &[usize]) -> Option<usize> {
    let mut theta_max = f64::INFINITY;
    let mut any = false;
    for (i, &wi) in w.iter().enumerate() {
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
    for (i, &wi) in w.iter().enumerate() {
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
/// rule). Kept both as the degenerate-run fallback and as the oracle
/// the Harris test is proptested against.
pub(crate) fn textbook_ratio(w: &[f64], xb: &[f64], basis: &[usize]) -> Option<usize> {
    let mut leave: Option<(usize, f64)> = None;
    for (i, &wi) in w.iter().enumerate() {
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
        let pre;
        let effective: &Problem = if self.presolve {
            match presolve(problem) {
                Ok(reduced) => {
                    pre = reduced;
                    &pre
                }
                Err(status) => return Ok(without_point(status, 0)),
            }
        } else {
            problem
        };

        let std = StandardLp::from_problem(effective);
        let m = std.m;
        let n = std.n();

        if m == 0 {
            if std.c.iter().any(|&cj| cj < -TOL) {
                return Ok(without_point(Status::Unbounded, 0));
            }
            let (values, objective) = std.recover(effective, &vec![0.0; n]);
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
        let (values, objective) = std.recover(effective, &x);
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
        let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
        p.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        p.add_le(&[(x, 1.0)], 2.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-6);
    }

    #[test]
    fn matches_dense_on_mixed_constraints() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
        p.add_ge(&[(x, 1.0), (y, 2.0)], 6.0);
        p.add_ge(&[(x, 3.0), (y, 1.0)], 9.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 4.2).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        p.add_le(&[(x, 1.0)], 1.0);
        p.add_ge(&[(x, 1.0)], 2.0);
        assert_eq!(solve(&p).status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 0.0);
        p.add_ge(&[(x, 1.0), (y, -1.0)], 0.0);
        assert_eq!(solve(&p).status, Status::Unbounded);
    }

    #[test]
    fn degenerate_lp_terminates() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 0.75);
        let y = p.add_var("y", 0.0, f64::INFINITY, -150.0);
        let z = p.add_var("z", 0.0, f64::INFINITY, 0.02);
        let w = p.add_var("w", 0.0, f64::INFINITY, -6.0);
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
                vars.push(p.add_var(&format!("x{i}_{j}"), 0.0, f64::INFINITY, cost));
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
        let x = p.add_var("x", 0.0, 7.0, 2.0);
        let y = p.add_var("y", 1.0, 9.0, 1.0);
        p.add_le(&[(x, 1.0), (y, 1.0)], 8.0);
        p.add_le(&[(x, 1.0)], 100.0); // redundant singleton
        let with = RevisedSimplex::default().solve(&p).unwrap();
        let without =
            RevisedSimplex { presolve: false, ..Default::default() }.solve(&p).unwrap();
        assert!((with.objective - without.objective).abs() < 1e-6);
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
                let h = harris_ratio(&w, &xb, &basis);
                let t = textbook_ratio(&w, &xb, &basis);
                prop_assert_eq!(h, t);
                prop_assert_eq!(h, Some(ranked[0]));
            }
        }
    }
}
