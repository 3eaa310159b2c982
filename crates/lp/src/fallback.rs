//! Graceful degradation: a primary solver backed by a slower fallback.
//!
//! The reproduction pipeline treats `RevisedSimplex` failures the way
//! the paper's participants treated a wedged Gurobi run: rather than
//! aborting the experiment, they re-ran the instance on the slower
//! stack. [`FallbackSolver`] encodes that policy — if the primary
//! solver returns an error (iteration limit from numerical trouble or
//! cycling), the same problem is handed to the fallback solver and the
//! recovered solution is tagged [`degraded`](crate::Solution::degraded).

use crate::{LpError, LpSolver, Problem, Solution};
use std::sync::atomic::{AtomicU64, Ordering};

/// A solver pair: try `primary`, recover with `fallback`.
///
/// Degradations are counted internally (atomics, because
/// [`LpSolver::solve`] takes `&self`) so a caller can report how often
/// the primary path failed across a run.
pub struct FallbackSolver<P: LpSolver, F: LpSolver> {
    /// The preferred (fast) solver.
    pub primary: P,
    /// The recovery (slow but robust) solver.
    pub fallback: F,
    degradations: AtomicU64,
    attempts: AtomicU64,
}

impl<P: LpSolver, F: LpSolver> FallbackSolver<P, F> {
    /// A fallback pair.
    pub fn new(primary: P, fallback: F) -> Self {
        FallbackSolver {
            primary,
            fallback,
            degradations: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
        }
    }

    /// How many solves fell back (primary failed, fallback recovered or
    /// was at least tried).
    pub fn degradations(&self) -> u64 {
        self.degradations.load(Ordering::Relaxed)
    }

    /// Total solves attempted through this pair.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }
}

impl<P: LpSolver, F: LpSolver> LpSolver for FallbackSolver<P, F> {
    // effect-allow(GlobalState): observability-only relaxed counters;
    // the solve outcome depends only on `problem`.
    fn solve(&self, problem: &Problem) -> Result<Solution, LpError> {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        match self.primary.solve(problem) {
            Ok(sol) => Ok(sol),
            Err(_primary_err) => {
                self.degradations.fetch_add(1, Ordering::Relaxed);
                self.fallback.solve(problem).map(|mut sol| {
                    sol.degraded = true;
                    sol
                })
            }
        }
    }

    fn name(&self) -> &'static str {
        "fallback(primary->backup)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseSimplex;
    use crate::revised::RevisedSimplex;
    use crate::{Sense, Status};

    fn sample_problem() -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 3.0);
        let y = p.add_var(0.0, f64::INFINITY, 2.0);
        p.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        p.add_le(&[(x, 1.0)], 2.0);
        p
    }

    #[test]
    fn healthy_primary_is_not_degraded() {
        let s = FallbackSolver::new(RevisedSimplex::default(), DenseSimplex::default());
        let sol = s.solve(&sample_problem()).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(!sol.degraded);
        assert_eq!(s.degradations(), 0);
        assert_eq!(s.attempts(), 1);
    }

    #[test]
    fn stalled_primary_falls_back_with_tag() {
        // An iteration cap of 1 stalls the revised simplex on any
        // non-trivial instance — the injected "numerical stall".
        let primary = RevisedSimplex { max_iterations: Some(1), ..Default::default() };
        let s = FallbackSolver::new(primary, DenseSimplex::default());
        let sol = s.solve(&sample_problem()).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 10.0).abs() < 1e-6, "fallback optimum preserved");
        assert!(sol.degraded, "recovered solution must carry the Degraded tag");
        assert_eq!(s.degradations(), 1);
    }

    #[test]
    fn both_failing_surfaces_the_fallback_error() {
        let primary = RevisedSimplex { max_iterations: Some(1), ..Default::default() };
        let backup = DenseSimplex { max_iterations: Some(1), ..Default::default() };
        let s = FallbackSolver::new(primary, backup);
        let err = s.solve(&sample_problem()).unwrap_err();
        assert!(matches!(err, LpError::IterationLimit(_)));
    }
}
