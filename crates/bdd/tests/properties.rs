//! Property-based tests: BDD semantics against a brute-force truth-table
//! oracle, and agreement between the two engine profiles.

use netrepro_bdd::{BddManager, EngineProfile, Ref, FALSE, TRUE};
use proptest::prelude::*;

const VARS: u32 = 5;

/// A tiny boolean-expression AST we can evaluate both via the BDD engine
/// and directly.
#[derive(Debug, Clone)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Diff(Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0..VARS).prop_map(Expr::Var);
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Diff(Box::new(a), Box::new(b))),
        ]
    })
}

fn eval_direct(e: &Expr, assignment: &[bool]) -> bool {
    match e {
        Expr::Var(v) => assignment[*v as usize],
        Expr::Not(a) => !eval_direct(a, assignment),
        Expr::And(a, b) => eval_direct(a, assignment) && eval_direct(b, assignment),
        Expr::Or(a, b) => eval_direct(a, assignment) || eval_direct(b, assignment),
        Expr::Xor(a, b) => eval_direct(a, assignment) ^ eval_direct(b, assignment),
        Expr::Diff(a, b) => eval_direct(a, assignment) && !eval_direct(b, assignment),
    }
}

fn build(m: &mut BddManager, e: &Expr) -> Ref {
    match e {
        Expr::Var(v) => m.var(*v),
        Expr::Not(a) => {
            let a = build(m, a);
            m.not(a)
        }
        Expr::And(a, b) => {
            let a = build(m, a);
            let b = build(m, b);
            m.and(a, b)
        }
        Expr::Or(a, b) => {
            let a = build(m, a);
            let b = build(m, b);
            m.or(a, b)
        }
        Expr::Xor(a, b) => {
            let a = build(m, a);
            let b = build(m, b);
            m.xor(a, b)
        }
        Expr::Diff(a, b) => {
            let a = build(m, a);
            let b = build(m, b);
            m.diff(a, b)
        }
    }
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << VARS)).map(|bits| (0..VARS).map(|i| (bits >> i) & 1 == 1).collect())
}

proptest! {
    /// The BDD of an arbitrary expression agrees with direct evaluation
    /// on every assignment.
    #[test]
    fn bdd_matches_truth_table(e in arb_expr()) {
        let mut m = BddManager::new(VARS, EngineProfile::Cached);
        let f = build(&mut m, &e);
        for a in assignments() {
            prop_assert_eq!(m.eval(f, &a), Ok(eval_direct(&e, &a)));
        }
    }

    /// Cached and Uncached profiles are observationally identical.
    #[test]
    fn profiles_agree(e in arb_expr()) {
        let mut mc = BddManager::new(VARS, EngineProfile::Cached);
        let mut mu = BddManager::new(VARS, EngineProfile::Uncached);
        let fc = build(&mut mc, &e);
        let fu = build(&mut mu, &e);
        for a in assignments() {
            prop_assert_eq!(mc.eval(fc, &a), mu.eval(fu, &a));
        }
        prop_assert_eq!(mc.sat_count(fc), mu.sat_count(fu));
    }

    /// Canonicity: semantically equal expressions map to the same node.
    #[test]
    fn canonical_form(e in arb_expr()) {
        let mut m = BddManager::new(VARS, EngineProfile::Cached);
        let f = build(&mut m, &e);
        // Double negation must return the identical Ref.
        let nf = m.not(f);
        let nnf = m.not(nf);
        prop_assert_eq!(f, nnf);
        // f XOR f is the FALSE terminal, f OR f is f itself.
        prop_assert_eq!(m.xor(f, f), FALSE);
        prop_assert_eq!(m.or(f, f), f);
    }

    /// sat_count equals the brute-force model count.
    #[test]
    fn satcount_matches_bruteforce(e in arb_expr()) {
        let mut m = BddManager::new(VARS, EngineProfile::Cached);
        let f = build(&mut m, &e);
        let brute = assignments().filter(|a| eval_direct(&e, a)).count();
        prop_assert_eq!(m.sat_count(f), brute as f64);
    }

    /// GC with the root protected never changes the function.
    #[test]
    fn gc_preserves_semantics(e in arb_expr()) {
        let mut m = BddManager::new(VARS, EngineProfile::Cached);
        let f = build(&mut m, &e);
        m.ref_inc(f);
        m.gc();
        for a in assignments() {
            prop_assert_eq!(m.eval(f, &a), Ok(eval_direct(&e, &a)));
        }
        // Rebuilding after GC reproduces the identical node.
        let f2 = build(&mut m, &e);
        prop_assert_eq!(f, f2);
    }

    /// Boolean-algebra identities hold at the Ref level (canonicity).
    #[test]
    fn algebraic_identities(a in arb_expr(), b in arb_expr(), c in arb_expr()) {
        let mut m = BddManager::new(VARS, EngineProfile::Cached);
        let fa = build(&mut m, &a);
        let fb = build(&mut m, &b);
        let fc = build(&mut m, &c);
        // Distributivity: a & (b | c) == (a & b) | (a & c)
        let bc = m.or(fb, fc);
        let lhs = m.and(fa, bc);
        let ab = m.and(fa, fb);
        let ac = m.and(fa, fc);
        let rhs = m.or(ab, ac);
        prop_assert_eq!(lhs, rhs);
        // Absorption: a | (a & b) == a
        let aab = m.or(fa, ab);
        prop_assert_eq!(aab, fa);
        // Complement: a | !a == TRUE
        let na = m.not(fa);
        prop_assert_eq!(m.or(fa, na), TRUE);
    }
}
