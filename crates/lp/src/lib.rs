//! `netrepro-lp` — a linear-programming substrate.
//!
//! Both traffic-engineering systems reproduced in the HotNets'23 paper
//! (NCFlow, participant A; ARROW, participant B) reduce to linear
//! programs. The paper attributes participant A's up-to-111× latency gap
//! entirely to the LP-solver pairing: the open-source NCFlow uses Gurobi
//! while the LLM-reproduced one uses PuLP/CBC.
//!
//! This crate therefore ships two interchangeable solvers over the same
//! model and standard form:
//!
//! * [`revised::RevisedSimplex`] — the "Gurobi stand-in": presolve,
//!   sparse revised simplex with Devex pricing (Bland's rule as the
//!   anti-cycling fallback) and basis refactorization driven by
//!   eta-file growth and residual drift.
//! * [`dense::DenseSimplex`] — the "PuLP/CBC stand-in": a textbook
//!   two-phase dense-tableau simplex with Bland's rule and no presolve.
//!
//! Both return identical optima (they solve the same LP); only speed
//! differs, which is exactly the behaviour Table A needs.
//!
//! # Example
//!
//! ```
//! use netrepro_lp::{Problem, Sense, LpSolver, revised::RevisedSimplex};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4, x <= 2, x,y >= 0
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var(0.0, f64::INFINITY, 3.0);
//! let y = p.add_var(0.0, f64::INFINITY, 2.0);
//! p.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
//! p.add_le(&[(x, 1.0)], 2.0);
//! let sol = RevisedSimplex::default().solve(&p).unwrap();
//! assert!((sol.objective - 10.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod fallback;
pub mod format;
pub mod model;
pub mod presolve;
pub mod revised;
pub mod standard;
pub(crate) mod sparse_lu;

pub use model::{ConstraintOp, Problem, Sense, VarId};
pub use standard::StandardLp;

/// Final status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// A solved LP: status, objective value and per-variable values (indexed
/// by [`VarId`]).
#[derive(Debug, Clone)]
pub struct Solution {
    /// Solve status. `objective`/`values` are meaningful only for
    /// [`Status::Optimal`].
    pub status: Status,
    /// Objective value in the problem's own sense.
    pub objective: f64,
    /// Value of each variable, indexed by `VarId::index()`.
    pub values: Vec<f64>,
    /// Simplex pivots performed (both phases).
    pub iterations: u64,
    /// Set when the solution came from a degraded path — e.g. the
    /// [`fallback::FallbackSolver`] recovered from a primary-solver
    /// failure with its slower backup. The solution is still feasible
    /// and optimal for the model; the tag records that the preferred
    /// solver did not produce it.
    pub degraded: bool,
}

impl Solution {
    /// Value of `v` in this solution.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }
}

/// Errors from model construction or solving.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The iteration limit was exceeded (numerical trouble or cycling).
    IterationLimit(u64),
    /// The model references a variable that does not belong to it.
    ForeignVariable(VarId),
    /// A bound pair was inverted (`lo > hi`).
    BadBounds {
        /// The offending variable.
        var: VarId,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::IterationLimit(n) => write!(f, "simplex exceeded {n} iterations"),
            LpError::ForeignVariable(v) => write!(f, "variable {v:?} not in this problem"),
            LpError::BadBounds { var, lo, hi } => {
                write!(f, "variable {var:?} has inverted bounds [{lo}, {hi}]")
            }
        }
    }
}

impl std::error::Error for LpError {}

/// A linear-programming solver.
pub trait LpSolver {
    /// Solve `problem`, returning a [`Solution`] or an error.
    fn solve(&self, problem: &Problem) -> Result<Solution, LpError>;

    /// Human-readable solver name for experiment reports.
    fn name(&self) -> &'static str;
}
