//! The user-facing LP model: variables with bounds, linear constraints
//! and a linear objective.

use crate::LpError;

/// Handle to a variable within one [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Index of this variable in [`crate::Solution::values`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Maximise the objective.
    Maximize,
    /// Minimise the objective.
    Minimize,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub lo: f64,
    pub hi: f64,
    pub obj: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    /// Sparse row: `(variable, coefficient)` with distinct variables.
    pub terms: Vec<(VarId, f64)>,
    pub op: ConstraintOp,
    pub rhs: f64,
}

/// A linear program under construction.
#[derive(Debug)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
    /// Scratch of [`Problem::add_constraint`], by variable index: the
    /// position of the variable's merged term, or `UNSEEN` (the value
    /// every entry holds between calls).
    merge_slot: Vec<u32>,
}

/// A `merge_slot` entry with no term.
const UNSEEN: u32 = u32::MAX;

/// A clone starts with an empty merge scratch: it holds no state.
impl Clone for Problem {
    fn clone(&self) -> Self {
        Problem {
            sense: self.sense,
            vars: self.vars.clone(),
            constraints: self.constraints.clone(),
            merge_slot: Vec::new(),
        }
    }
}

impl Problem {
    /// An empty problem with the given optimisation sense.
    pub fn new(sense: Sense) -> Self {
        Problem { sense, vars: Vec::new(), constraints: Vec::new(), merge_slot: Vec::new() }
    }

    /// The problem's optimisation sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a variable with bounds `[lo, hi]` (either may be infinite)
    /// and objective coefficient `obj`. Returns its handle; LP dumps
    /// name it `v{i}` by creation order.
    pub fn add_var(&mut self, lo: f64, hi: f64, obj: f64) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(Variable { lo, hi, obj });
        id
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Bounds of a variable.
    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        let var = &self.vars[v.index()];
        (var.lo, var.hi)
    }

    /// Set the objective coefficient of an existing variable.
    pub fn set_obj(&mut self, v: VarId, obj: f64) {
        self.vars[v.index()].obj = obj;
    }

    /// Add a `terms <= rhs` constraint.
    pub fn add_le(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.add_constraint(terms, ConstraintOp::Le, rhs);
    }

    /// Add a `terms >= rhs` constraint.
    pub fn add_ge(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.add_constraint(terms, ConstraintOp::Ge, rhs);
    }

    /// Add a `terms == rhs` constraint.
    pub fn add_eq(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.add_constraint(terms, ConstraintOp::Eq, rhs);
    }

    /// Add a constraint with an explicit relation. Zero coefficients are
    /// dropped, and duplicate variables in `terms` are merged by summing
    /// their coefficients left to right, at the variable's first place
    /// (a sum that cancels to `0.0` stays).
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], op: ConstraintOp, rhs: f64) {
        let mut merged: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            if c == 0.0 {
                continue;
            }
            let i = v.index();
            if i >= self.merge_slot.len() {
                self.merge_slot.resize(i + 1, UNSEEN);
            }
            match self.merge_slot[i] {
                UNSEEN => {
                    self.merge_slot[i] = merged.len() as u32;
                    merged.push((v, c));
                }
                k => merged[k as usize].1 += c,
            }
        }
        for &(v, _) in &merged {
            self.merge_slot[v.index()] = UNSEEN;
        }
        self.constraints.push(Constraint { terms: merged, op, rhs });
    }

    /// Validate the model: every referenced variable exists and bounds
    /// are ordered.
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lo > v.hi {
                return Err(LpError::BadBounds { var: VarId(i as u32), lo: v.lo, hi: v.hi });
            }
        }
        for c in &self.constraints {
            for &(v, _) in &c.terms {
                if v.index() >= self.vars.len() {
                    return Err(LpError::ForeignVariable(v));
                }
            }
        }
        Ok(())
    }

    /// Evaluate the objective at a point.
    pub fn objective_at(&self, values: &[f64]) -> f64 {
        self.vars.iter().zip(values).map(|(v, x)| v.obj * x).sum()
    }

    /// Check primal feasibility of a point within tolerance `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (v, &x) in self.vars.iter().zip(values) {
            if x < v.lo - tol || x > v.hi + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, coef)| coef * values[v.index()]).sum();
            let ok = match c.op {
                ConstraintOp::Le => lhs <= c.rhs + tol,
                ConstraintOp::Ge => lhs >= c.rhs - tol,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_var_assigns_sequential_ids() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_var(0.0, 1.0, 1.0);
        let b = p.add_var(0.0, 1.0, 1.0);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(p.num_vars(), 2);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_var(0.0, 10.0, 1.0);
        p.add_le(&[(a, 1.0), (a, 2.0)], 6.0);
        assert_eq!(p.constraints[0].terms, vec![(a, 3.0)]);
    }

    /// The quadratic merge `add_constraint` used to run: a linear
    /// search of the merged terms for each input term.
    fn merge_by_scan(terms: &[(VarId, f64)]) -> Vec<(VarId, f64)> {
        let mut merged: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            if c == 0.0 {
                continue;
            }
            match merged.iter_mut().find(|(mv, _)| *mv == v) {
                Some((_, mc)) => *mc += c,
                None => merged.push((v, c)),
            }
        }
        merged
    }

    proptest::proptest! {
        /// Rows with repeated variables, zero inputs of either sign and
        /// sums that cancel merge exactly as the scan merges them: the
        /// same terms in the same order with the same coefficient bits.
        /// Inexact tenths make the summation order visible.
        #[test]
        fn merge_matches_the_scan(
            rows in proptest::collection::vec(
                proptest::collection::vec((0u32..6, -4i32..5), 0..24), 1..6),
        ) {
            let mut p = Problem::new(Sense::Minimize);
            let vars: Vec<VarId> = (0..6).map(|_| p.add_var(0.0, 1.0, 0.0)).collect();
            for row in &rows {
                let terms: Vec<(VarId, f64)> = row
                    .iter()
                    .map(|&(v, c)| (vars[v as usize], if c == -4 { -0.0 } else { c as f64 / 10.0 }))
                    .collect();
                p.add_eq(&terms, 0.0);
                let got = &p.constraints[p.constraints.len() - 1].terms;
                let bits = |t: &[(VarId, f64)]| t.iter().map(|&(v, c)| (v, c.to_bits())).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(got), bits(&merge_by_scan(&terms)));
            }
        }
    }

    #[test]
    fn cancelled_sums_stay_as_zero_terms() {
        let mut p = Problem::new(Sense::Minimize);
        let a = p.add_var(0.0, 10.0, 1.0);
        let b = p.add_var(0.0, 10.0, 1.0);
        p.add_le(&[(b, 0.5), (a, 1.0), (b, -0.5), (a, 2.0)], 1.0);
        assert_eq!(p.constraints[0].terms, vec![(b, 0.0), (a, 3.0)]);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut p = Problem::new(Sense::Minimize);
        let a = p.add_var(0.0, 10.0, 1.0);
        let b = p.add_var(0.0, 10.0, 1.0);
        p.add_ge(&[(a, 0.0), (b, 1.0)], 1.0);
        assert_eq!(p.constraints[0].terms, vec![(b, 1.0)]);
    }

    #[test]
    fn validate_rejects_inverted_bounds() {
        let mut p = Problem::new(Sense::Maximize);
        let v = p.add_var(2.0, 1.0, 0.0);
        match p.validate() {
            Err(LpError::BadBounds { var, .. }) => assert_eq!(var, v),
            other => panic!("expected BadBounds, got {other:?}"),
        }
    }

    #[test]
    fn feasibility_checks_bounds_and_rows() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 5.0, 1.0);
        let y = p.add_var(0.0, 5.0, 1.0);
        p.add_le(&[(x, 1.0), (y, 1.0)], 6.0);
        assert!(p.is_feasible(&[3.0, 3.0], 1e-9));
        assert!(!p.is_feasible(&[4.0, 3.0], 1e-9)); // row violated
        assert!(!p.is_feasible(&[6.0, 0.0], 1e-9)); // bound violated
    }

    #[test]
    fn objective_at_dot_product() {
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_var(0.0, 5.0, 3.0);
        let _y = p.add_var(0.0, 5.0, -1.0);
        assert_eq!(p.objective_at(&[2.0, 4.0]), 2.0);
    }
}
