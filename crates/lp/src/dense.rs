//! A textbook two-phase dense-tableau simplex with Bland's rule.
//!
//! This is the deliberately straightforward solver — the stand-in for the
//! PuLP/CBC tool-chain the paper's participant A used. Every pivot
//! touches the entire `m × (n + m)` tableau and entering variables are
//! chosen by Bland's anti-cycling rule, which converges slowly but never
//! cycles. No presolve is applied.

use crate::standard::StandardLp;
use crate::{LpError, LpSolver, Problem, Solution, Status};

const TOL: f64 = 1e-9;

/// The dense-tableau solver. See the module docs.
#[derive(Debug, Clone)]
pub struct DenseSimplex {
    /// Hard pivot limit; the default scales with problem size.
    pub max_iterations: Option<u64>,
    /// Round-trip the model through the CPLEX-LP text format before
    /// solving, the way the PuLP → CBC pipeline does (on by default;
    /// see [`crate::format`]). Turn off for a pure-algorithm ablation.
    pub file_interchange: bool,
}

impl Default for DenseSimplex {
    fn default() -> Self {
        DenseSimplex { max_iterations: None, file_interchange: true }
    }
}

struct Tableau {
    /// `m` rows of `n_total` coefficients (structural + artificial).
    rows: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    basis: Vec<usize>,
    n_real: usize,
    n_total: usize,
    iterations: u64,
}

impl Tableau {
    fn new(std: &StandardLp) -> Self {
        let m = std.m;
        let n_real = std.n();
        let n_total = n_real + m;
        let mut rows = vec![vec![0.0; n_total]; m];
        for (j, col) in std.cols.iter().enumerate() {
            for &(r, v) in col {
                rows[r][j] = v;
            }
        }
        for i in 0..m {
            rows[i][n_real + i] = 1.0; // artificial
        }
        Tableau {
            rows,
            rhs: std.b.clone(),
            basis: (n_real..n_total).collect(),
            n_real,
            n_total,
            iterations: 0,
        }
    }

    /// Reduced costs `r_j = c_j − c_B·T_j` for the given cost vector.
    fn reduced_costs(&self, c: &[f64]) -> Vec<f64> {
        let cb: Vec<f64> = self.basis.iter().map(|&b| c[b]).collect();
        (0..self.n_total)
            .map(|j| {
                let zj: f64 = (0..self.rows.len()).map(|i| cb[i] * self.rows[i][j]).sum();
                c[j] - zj
            })
            .collect()
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.rows[row][col];
        debug_assert!(p.abs() > TOL);
        for v in &mut self.rows[row] {
            *v /= p;
        }
        self.rhs[row] /= p;
        for i in 0..self.rows.len() {
            if i == row {
                continue;
            }
            let f = self.rows[i][col];
            if f == 0.0 {
                continue;
            }
            for j in 0..self.n_total {
                let delta = f * self.rows[row][j];
                self.rows[i][j] -= delta;
            }
            self.rhs[i] -= f * self.rhs[row];
            if self.rhs[i].abs() < TOL {
                self.rhs[i] = 0.0;
            }
        }
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// Run simplex with cost vector `c`, allowing entering columns only
    /// from `0..allow_below`. Returns `Ok(true)` on optimality,
    /// `Ok(false)` on unboundedness.
    fn optimise(&mut self, c: &[f64], allow_below: usize, limit: u64) -> Result<bool, LpError> {
        loop {
            if self.iterations > limit {
                return Err(LpError::IterationLimit(limit));
            }
            let r = self.reduced_costs(c);
            // Bland: the lowest-index improving column.
            let entering = (0..allow_below).find(|&j| r[j] < -TOL);
            let Some(q) = entering else { return Ok(true) };
            // Ratio test, Bland tie-break on basic-variable index.
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.rows.len() {
                let w = self.rows[i][q];
                if w > TOL {
                    let theta = self.rhs[i] / w;
                    let better = match leave {
                        None => true,
                        Some((li, lt)) => {
                            theta < lt - TOL
                                || ((theta - lt).abs() <= TOL && self.basis[i] < self.basis[li])
                        }
                    };
                    if better {
                        leave = Some((i, theta));
                    }
                }
            }
            let Some((row, _)) = leave else { return Ok(false) };
            self.pivot(row, q);
        }
    }

    fn objective(&self, c: &[f64]) -> f64 {
        self.basis.iter().zip(&self.rhs).map(|(&b, &x)| c[b] * x).sum()
    }

    fn extract(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n_real];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_real {
                x[b] = self.rhs[i];
            }
        }
        x
    }
}

impl LpSolver for DenseSimplex {
    fn solve(&self, problem: &Problem) -> Result<Solution, LpError> {
        problem.validate()?;
        // The PuLP/CBC pipeline serialises every model to an .lp file
        // and parses it back in the solver process; reproduce that
        // per-solve cost with the real text round-trip.
        let interchanged;
        let problem: &Problem = if self.file_interchange {
            let text = crate::format::write_lp(problem);
            // A written LP should always parse back; if the round-trip
            // ever fails, solving the in-memory model directly is the
            // graceful path (we merely skip the simulated file cost).
            match crate::format::parse_lp(&text) {
                Ok(parsed) => {
                    interchanged = parsed;
                    &interchanged
                }
                Err(_) => problem,
            }
        } else {
            problem
        };
        let std = StandardLp::from_problem(problem);
        let m = std.m;
        let n = std.n();

        if m == 0 {
            // No constraints: optimum sits at the (shifted) origin unless
            // some objective coefficient is improving, i.e. unbounded.
            if std.c.iter().any(|&cj| cj < -TOL) {
                return Ok(Solution {
                    status: Status::Unbounded,
                    objective: 0.0,
                    values: vec![0.0; problem.num_vars()],
                    iterations: 0,
                    degraded: false,
                });
            }
            let (values, objective) = std.recover(problem, &vec![0.0; n]);
            return Ok(Solution { status: Status::Optimal, objective, values, iterations: 0, degraded: false });
        }

        let limit = self
            .max_iterations
            .unwrap_or_else(|| 20_000u64.max(200 * (m as u64 + n as u64)));

        let mut t = Tableau::new(&std);

        // Phase 1: minimise the sum of artificials.
        let mut c1 = vec![0.0; t.n_total];
        for cost in c1.iter_mut().skip(n) {
            *cost = 1.0;
        }
        // Artificials may leave but never re-enter: allow_below = n.
        let finished = t.optimise(&c1, n, limit)?;
        debug_assert!(finished, "phase 1 is always bounded below by 0");
        if t.objective(&c1) > 1e-7 {
            return Ok(Solution {
                status: Status::Infeasible,
                objective: 0.0,
                values: vec![0.0; problem.num_vars()],
                iterations: t.iterations,
                degraded: false,
            });
        }

        // Phase 2 over the real objective (artificial costs forced to 0;
        // any artificial still basic sits at value 0 and cannot re-enter).
        let mut c2 = vec![0.0; t.n_total];
        c2[..n].copy_from_slice(&std.c);
        let bounded = t.optimise(&c2, n, limit)?;
        if !bounded {
            return Ok(Solution {
                status: Status::Unbounded,
                objective: 0.0,
                values: vec![0.0; problem.num_vars()],
                iterations: t.iterations,
                degraded: false,
            });
        }

        let x = t.extract();
        let (values, objective) = std.recover(problem, &x);
        Ok(Solution { status: Status::Optimal, objective, values, iterations: t.iterations, degraded: false })
    }

    fn name(&self) -> &'static str {
        "dense-simplex (PuLP/CBC stand-in)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    fn solve(p: &Problem) -> Solution {
        DenseSimplex::default().solve(p).expect("solve")
    }

    #[test]
    fn max_two_vars() {
        // max 3x + 2y st x + y <= 4, x <= 2 -> x=2, y=2, obj=10
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 3.0);
        let y = p.add_var(0.0, f64::INFINITY, 2.0);
        p.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        p.add_le(&[(x, 1.0)], 2.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn min_with_ge_rows_uses_phase1() {
        // min x + y st x + 2y >= 6, 3x + y >= 9 -> x=2.4, y=1.8, obj=4.2
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_ge(&[(x, 1.0), (y, 2.0)], 6.0);
        p.add_ge(&[(x, 3.0), (y, 1.0)], 9.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 4.2).abs() < 1e-6, "obj = {}", s.objective);
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
        p.add_ge(&[(x, 1.0), (y, -1.0)], 0.0); // never binds x from above
        assert_eq!(solve(&p).status, Status::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // max x + y st x + y == 3, x - y == 1 -> x=2, y=1
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_eq(&[(x, 1.0), (y, 1.0)], 3.0);
        p.add_eq(&[(x, 1.0), (y, -1.0)], 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn shifted_and_bounded_vars() {
        // max x st 1 <= x <= 5 -> 5
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 5.0, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn free_variable() {
        // min x st x >= -3  (x free) -> -3
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_ge(&[(x, 1.0)], -3.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) + 3.0).abs() < 1e-6, "x = {}", s.value(x));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: multiple constraints meeting at a vertex.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 0.75);
        let y = p.add_var(0.0, f64::INFINITY, -150.0);
        let z = p.add_var(0.0, f64::INFINITY, 0.02);
        let w = p.add_var(0.0, f64::INFINITY, -6.0);
        p.add_le(&[(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)], 0.0);
        p.add_le(&[(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)], 0.0);
        p.add_le(&[(z, 1.0)], 1.0);
        let s = solve(&p);
        // Beale's cycling example: Bland's rule must terminate at 1/20.
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 0.05).abs() < 1e-6, "obj = {}", s.objective);
    }

    #[test]
    fn solution_is_feasible() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 10.0, 2.0);
        let y = p.add_var(0.0, 10.0, 3.0);
        let z = p.add_var(0.0, 10.0, 1.0);
        p.add_le(&[(x, 1.0), (y, 2.0), (z, 1.0)], 14.0);
        p.add_le(&[(x, 3.0), (y, 1.0)], 12.0);
        p.add_ge(&[(y, 1.0), (z, 1.0)], 2.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!(p.is_feasible(&s.values, 1e-6));
    }

    #[test]
    fn no_constraints_bounded_by_bounds() {
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_var(0.0, 3.0, 2.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 6.0).abs() < 1e-6);
    }

    #[test]
    fn no_constraints_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_var(0.0, f64::INFINITY, 2.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Unbounded);
    }
}
