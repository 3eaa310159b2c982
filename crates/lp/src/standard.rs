//! Conversion of a [`Problem`] to computational standard form:
//!
//! ```text
//!     minimize  c'x    subject to    Ax = b,   x >= 0,   b >= 0
//! ```
//!
//! Transformations applied:
//! * maximisation is negated into minimisation;
//! * a variable with finite lower bound `l` is shifted (`x = l + x'`);
//! * a free variable is split (`x = x⁺ − x⁻`);
//! * a finite upper bound becomes an explicit `x' <= u − l` row;
//! * `<=`/`>=` rows gain slack/surplus columns;
//! * rows are scaled so `b >= 0`.
//!
//! The struct remembers enough to map a standard-form point back to the
//! original variables and objective. It is built either from a whole
//! [`Problem`] or from a problem seen through a presolve [`Reduction`]
//! (tightened bounds, a subset of the rows), without copying the model.

use crate::model::{Constraint, ConstraintOp, Problem, Sense};
use crate::presolve::Reduction;

/// How one original variable maps into standard-form columns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VarMap {
    /// `x = shift + col`
    Shifted {
        /// Standard-form column index.
        col: usize,
        /// Additive shift (the original lower bound).
        shift: f64,
    },
    /// `x = pos - neg` (free variable split)
    Split {
        /// Column for the positive part.
        pos: usize,
        /// Column for the negative part.
        neg: usize,
    },
    /// `x = hi - col` (a variable with only an upper bound)
    Mirrored {
        /// Standard-form column index.
        col: usize,
        /// The upper bound.
        hi: f64,
    },
    /// Variable was fixed (`lo == hi`) and eliminated.
    Fixed(f64),
}

/// A sparse column: `(row, coefficient)` pairs sorted by row.
pub type SparseCol = Vec<(usize, f64)>;

/// A problem in computational standard form.
#[derive(Debug, Clone)]
pub struct StandardLp {
    /// Columns of `A` (structural + slack), stored sparsely.
    pub cols: Vec<SparseCol>,
    /// Right-hand side, all non-negative.
    pub b: Vec<f64>,
    /// Minimisation objective per column.
    pub c: Vec<f64>,
    /// Number of rows.
    pub m: usize,
    pub(crate) var_map: Vec<VarMap>,
}

impl StandardLp {
    /// Convert `p` (already validated) to standard form.
    pub fn from_problem(p: &Problem) -> Self {
        let rows: Vec<&Constraint> = p.constraints.iter().collect();
        Self::build(p, |i| (p.vars[i].lo, p.vars[i].hi), &rows)
    }

    /// Convert `p` (already validated) as presolve reduced it to
    /// standard form: the same as converting the reduced model, which
    /// is never built.
    pub fn from_reduction(p: &Problem, reduction: &Reduction) -> Self {
        let rows: Vec<&Constraint> = reduction.rows.iter().map(|&r| &p.constraints[r]).collect();
        Self::build(p, |i| reduction.bounds[i], &rows)
    }

    /// Standard form of `p`'s variables under `bounds` and its rows
    /// `constraints`.
    fn build(
        p: &Problem,
        bounds: impl Fn(usize) -> (f64, f64),
        constraints: &[&Constraint],
    ) -> Self {
        let mut cols: Vec<SparseCol> = Vec::new();
        let mut c: Vec<f64> = Vec::new();
        let mut var_map: Vec<VarMap> = Vec::with_capacity(p.vars.len());
        // Rows: original constraints first, upper-bound rows appended.
        type Row = (Vec<(usize, f64)>, ConstraintOp, f64);
        let mut rows: Vec<Row> =
            constraints.iter().map(|con| (Vec::new(), con.op, con.rhs)).collect();

        let sign = match p.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };

        for (i, v) in p.vars.iter().enumerate() {
            let (lo, hi) = bounds(i);
            if lo == hi {
                var_map.push(VarMap::Fixed(lo));
                continue;
            }
            if lo.is_finite() {
                let col = cols.len();
                cols.push(Vec::new());
                c.push(sign * v.obj);
                var_map.push(VarMap::Shifted { col, shift: lo });
                if hi.is_finite() {
                    rows.push((vec![(col, 1.0)], ConstraintOp::Le, hi - lo));
                }
            } else if hi.is_finite() {
                // Only an upper bound: substitute x = hi - x', x' >= 0.
                let col = cols.len();
                cols.push(Vec::new());
                c.push(-sign * v.obj);
                var_map.push(VarMap::Mirrored { col, hi });
            } else {
                let pos = cols.len();
                cols.push(Vec::new());
                c.push(sign * v.obj);
                let neg = cols.len();
                cols.push(Vec::new());
                c.push(-sign * v.obj);
                var_map.push(VarMap::Split { pos, neg });
            }
        }

        // Fill constraint coefficients.
        for (ci, con) in constraints.iter().enumerate() {
            for &(v, coef) in &con.terms {
                match var_map[v.index()] {
                    VarMap::Fixed(val) => {
                        rows[ci].2 -= coef * val;
                    }
                    VarMap::Shifted { col, shift } => {
                        rows[ci].0.push((col, coef));
                        rows[ci].2 -= coef * shift;
                    }
                    VarMap::Mirrored { col, hi } => {
                        // x = hi - x' contributes -coef * x' and coef*hi
                        // to the right-hand side.
                        rows[ci].0.push((col, -coef));
                        rows[ci].2 -= coef * hi;
                    }
                    VarMap::Split { pos, neg } => {
                        rows[ci].0.push((pos, coef));
                        rows[ci].0.push((neg, -coef));
                    }
                }
            }
        }

        // Materialise rows into columns, adding slack/surplus and fixing
        // signs so that b >= 0.
        let m = rows.len();
        let mut b = vec![0.0; m];
        for (ri, (terms, op, rhs)) in rows.into_iter().enumerate() {
            let flip = if rhs < 0.0 { -1.0 } else { 1.0 };
            b[ri] = flip * rhs;
            for (col, coef) in terms {
                cols[col].push((ri, flip * coef));
            }
            match op {
                ConstraintOp::Eq => {}
                ConstraintOp::Le => {
                    let s = cols.len();
                    cols.push(vec![(ri, flip)]);
                    c.push(0.0);
                    let _ = s;
                }
                ConstraintOp::Ge => {
                    let s = cols.len();
                    cols.push(vec![(ri, -flip)]);
                    c.push(0.0);
                    let _ = s;
                }
            }
        }

        // Merge duplicate (row) entries inside each column and sort.
        for col in &mut cols {
            col.sort_by_key(|&(r, _)| r);
            let mut merged: SparseCol = Vec::with_capacity(col.len());
            for &(r, v) in col.iter() {
                match merged.last_mut() {
                    Some(&mut (lr, ref mut lv)) if lr == r => *lv += v,
                    _ => merged.push((r, v)),
                }
            }
            merged.retain(|&(_, v)| v != 0.0);
            *col = merged;
        }

        StandardLp { cols, b, m, c, var_map }
    }

    /// Number of columns (structural + slack).
    pub fn n(&self) -> usize {
        self.cols.len()
    }

    /// Map a standard-form point back to original-variable values and
    /// the original-sense objective of `p`, the problem this was built
    /// from.
    pub fn recover(&self, p: &Problem, x: &[f64]) -> (Vec<f64>, f64) {
        let values: Vec<f64> = self
            .var_map
            .iter()
            .map(|vm| match *vm {
                VarMap::Fixed(v) => v,
                VarMap::Shifted { col, shift } => shift + x[col],
                VarMap::Mirrored { col, hi } => hi - x[col],
                VarMap::Split { pos, neg } => x[pos] - x[neg],
            })
            .collect();
        let obj = p.objective_at(&values);
        (values, obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Sense};

    #[test]
    fn le_rows_gain_slacks() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_le(&[(x, 1.0)], 4.0);
        let s = StandardLp::from_problem(&p);
        assert_eq!(s.m, 1);
        assert_eq!(s.n(), 2); // x + slack
        assert_eq!(s.b, vec![4.0]);
    }

    #[test]
    fn negative_rhs_rows_are_flipped() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_ge(&[(x, -1.0)], -4.0); // i.e. x <= 4
        let s = StandardLp::from_problem(&p);
        assert_eq!(s.b, vec![4.0]);
        // Row was multiplied by -1, so x's coefficient is +1 and the
        // surplus became +1 as well (a slack).
        assert_eq!(s.cols[0], vec![(0, 1.0)]);
        assert_eq!(s.cols[1], vec![(0, 1.0)]);
    }

    #[test]
    fn finite_lower_bound_shifts() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(2.0, f64::INFINITY, 3.0);
        p.add_ge(&[(x, 1.0)], 5.0);
        let s = StandardLp::from_problem(&p);
        // Row becomes x' >= 3; x' = 3 recovers x = 5 at objective 15.
        assert_eq!(s.b, vec![3.0]);
        assert_eq!(s.recover(&p, &[3.0, 0.0]), (vec![5.0], 15.0));
    }

    #[test]
    fn fixed_variable_is_eliminated() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(3.0, 3.0, 2.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_ge(&[(x, 1.0), (y, 1.0)], 5.0);
        let s = StandardLp::from_problem(&p);
        // x contributes 3 to the row, leaving y >= 2; x adds 6 to the
        // objective.
        assert_eq!(s.b, vec![2.0]);
        let (values, obj) = s.recover(&p, &[2.0, 0.0]);
        assert_eq!(values, vec![3.0, 2.0]);
        assert_eq!(obj, 8.0);
    }

    #[test]
    fn free_variable_is_split() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_eq(&[(x, 1.0)], -7.0);
        let s = StandardLp::from_problem(&p);
        assert_eq!(s.n(), 2);
        // Row flipped to b = 7: -pos + neg = 7.
        let (values, _) = s.recover(&p, &[0.0, 7.0]);
        assert!((values[0] + 7.0).abs() < 1e-12);
    }

    #[test]
    fn upper_bound_becomes_row() {
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_var(0.0, 9.0, 1.0);
        let s = StandardLp::from_problem(&p);
        assert_eq!(s.m, 1);
        assert_eq!(s.b, vec![9.0]);
    }

    #[test]
    fn maximize_negates_objective() {
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_var(0.0, f64::INFINITY, 5.0);
        let s = StandardLp::from_problem(&p);
        assert_eq!(s.c[0], -5.0);
    }
}
