//! Presolve: cheap model reductions applied before the revised simplex.
//!
//! Three safe reductions (each preserves the set of optimal original
//! points, so no postsolve beyond the identity is needed — variables are
//! never renumbered):
//!
//! 1. **Empty rows** — a constraint with no terms either always holds
//!    (dropped) or is a contradiction (infeasible).
//! 2. **Singleton rows** — `a·x {<=,>=,==} rhs` over one variable is
//!    folded into that variable's bounds and dropped.
//! 3. **Crossed bounds** — if folding makes `lo > hi` the model is
//!    infeasible.

use crate::model::{ConstraintOp, Problem, Variable};
use crate::Status;

const TOL: f64 = 1e-9;

/// What presolve keeps of a problem: every variable's bounds, tightened
/// by the singleton rows folded into them, and the rows left, ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    /// `(lo, hi)` by variable index.
    pub bounds: Vec<(f64, f64)>,
    /// Indices of the constraints kept.
    pub rows: Vec<usize>,
}

/// Presolve `p` without copying it, returning the [`Reduction`] or the
/// detected terminal status.
pub fn reduce(p: &Problem) -> Result<Reduction, Status> {
    let mut bounds: Vec<(f64, f64)> = p.vars.iter().map(|v| (v.lo, v.hi)).collect();
    let mut rows = Vec::with_capacity(p.constraints.len());
    for (r, con) in p.constraints.iter().enumerate() {
        match con.terms.len() {
            0 => {
                let holds = match con.op {
                    ConstraintOp::Le => 0.0 <= con.rhs + TOL,
                    ConstraintOp::Ge => 0.0 >= con.rhs - TOL,
                    ConstraintOp::Eq => con.rhs.abs() <= TOL,
                };
                if !holds {
                    return Err(Status::Infeasible);
                }
            }
            1 => {
                let (v, a) = con.terms[0];
                let (lo, hi) = &mut bounds[v.index()];
                let bound = con.rhs / a;
                // a*x <= rhs  =>  x <= bound (a>0) or x >= bound (a<0).
                let op = if a > 0.0 {
                    con.op
                } else {
                    match con.op {
                        ConstraintOp::Le => ConstraintOp::Ge,
                        ConstraintOp::Ge => ConstraintOp::Le,
                        ConstraintOp::Eq => ConstraintOp::Eq,
                    }
                };
                match op {
                    ConstraintOp::Le => *hi = hi.min(bound),
                    ConstraintOp::Ge => *lo = lo.max(bound),
                    ConstraintOp::Eq => {
                        *lo = lo.max(bound);
                        *hi = hi.min(bound);
                    }
                }
                if *lo > *hi + TOL {
                    return Err(Status::Infeasible);
                }
                // Snap nearly-equal bounds so standard form fixes them.
                if *lo > *hi {
                    *hi = *lo;
                }
            }
            _ => rows.push(r),
        }
    }
    Ok(Reduction { bounds, rows })
}

/// Apply presolve, returning the reduced problem (same variables, fewer
/// rows, possibly tighter bounds) or the detected terminal status: the
/// [`Reduction`] built into a model of its own.
pub fn presolve(p: &Problem) -> Result<Problem, Status> {
    let reduction = reduce(p)?;
    let mut out = Problem::new(p.sense);
    out.vars = p
        .vars
        .iter()
        .zip(&reduction.bounds)
        .map(|(v, &(lo, hi))| Variable { lo, hi, obj: v.obj })
        .collect();
    out.constraints = reduction.rows.iter().map(|&r| p.constraints[r].clone()).collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    #[test]
    fn empty_true_row_is_dropped() {
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_var(0.0, 1.0, 1.0);
        p.add_le(&[], 5.0);
        let out = presolve(&p).unwrap();
        assert_eq!(out.num_constraints(), 0);
    }

    #[test]
    fn empty_false_row_is_infeasible() {
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_var(0.0, 1.0, 1.0);
        p.add_ge(&[], 5.0);
        assert!(matches!(presolve(&p), Err(Status::Infeasible)));
    }

    #[test]
    fn singleton_le_tightens_upper_bound() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 100.0, 1.0);
        p.add_le(&[(x, 2.0)], 10.0);
        let out = presolve(&p).unwrap();
        assert_eq!(out.num_constraints(), 0);
        assert_eq!(out.var_bounds(x), (0.0, 5.0));
    }

    #[test]
    fn singleton_with_negative_coefficient_flips() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 100.0, 1.0);
        p.add_le(&[(x, -1.0)], -3.0); // x >= 3
        let out = presolve(&p).unwrap();
        assert_eq!(out.var_bounds(x), (3.0, 100.0));
    }

    #[test]
    fn crossed_bounds_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 100.0, 1.0);
        p.add_le(&[(x, 1.0)], 2.0);
        p.add_ge(&[(x, 1.0)], 5.0);
        assert!(matches!(presolve(&p), Err(Status::Infeasible)));
    }

    #[test]
    fn singleton_eq_fixes_variable() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, 100.0, 1.0);
        p.add_eq(&[(x, 4.0)], 8.0);
        let out = presolve(&p).unwrap();
        assert_eq!(out.var_bounds(x), (2.0, 2.0));
    }

    #[test]
    fn multi_term_rows_survive() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 1.0, 1.0);
        let y = p.add_var(0.0, 1.0, 1.0);
        p.add_le(&[(x, 1.0), (y, 1.0)], 1.5);
        let out = presolve(&p).unwrap();
        assert_eq!(out.num_constraints(), 1);
    }
}
