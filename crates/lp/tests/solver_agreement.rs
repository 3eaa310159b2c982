//! Property tests: the two solvers must agree on status and optimum for
//! arbitrary generated LPs, and returned optima must be feasible.

use netrepro_lp::dense::DenseSimplex;
use netrepro_lp::revised::RevisedSimplex;
use netrepro_lp::{LpSolver, Problem, Sense, Status};
use proptest::prelude::*;

/// A random LP whose feasible region always contains the box `[0,1]^n`
/// scaled points (we generate rows as `sum a_ij x_j <= rhs` with
/// `rhs >= 0` and bounded variables, so the origin is feasible and the
/// problem is bounded) — plus an optional equality row to exercise
/// phase 1.
fn arb_lp() -> impl Strategy<Value = Problem> {
    (
        2usize..6,                     // variables
        1usize..6,                     // <= rows
        prop::collection::vec(0.0f64..5.0, 2..6), // objective coefficients
        any::<bool>(),                 // sense
        any::<bool>(),                 // include an equality row
        prop::collection::vec(-3.0f64..3.0, 4..36), // coefficient pool
        prop::collection::vec(0.5f64..10.0, 1..6),  // rhs pool
    )
        .prop_map(|(n, m, obj, maximize, with_eq, coefs, rhss)| {
            let sense = if maximize { Sense::Maximize } else { Sense::Minimize };
            let mut p = Problem::new(sense);
            let vars: Vec<_> = (0..n)
                .map(|i| {
                    let c = obj.get(i).copied().unwrap_or(1.0);
                    // Finite box keeps everything bounded.
                    p.add_var(0.0, 10.0, if maximize { c } else { c - 2.0 })
                })
                .collect();
            for r in 0..m {
                let row: Vec<_> = vars
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| (v, coefs[(r * n + j) % coefs.len()]))
                    .collect();
                let rhs = rhss[r % rhss.len()];
                p.add_le(&row, rhs);
            }
            if with_eq && n >= 2 {
                // x0 + x1 == small constant keeps feasibility (both in
                // [0,10], rows allow slack at the origin... equality may
                // conflict with <= rows; both solvers must then agree on
                // Infeasible).
                p.add_eq(&[(vars[0], 1.0), (vars[1], 1.0)], 1.0);
            }
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solvers_agree(p in arb_lp()) {
        let d = DenseSimplex::default().solve(&p).expect("dense");
        let r = RevisedSimplex::default().solve(&p).expect("revised");
        prop_assert_eq!(d.status, r.status, "status mismatch");
        if d.status == Status::Optimal {
            prop_assert!((d.objective - r.objective).abs() < 1e-5,
                "dense {} vs revised {}", d.objective, r.objective);
        }
    }

    #[test]
    fn optima_are_feasible(p in arb_lp()) {
        for sol in [
            DenseSimplex::default().solve(&p).expect("dense"),
            RevisedSimplex::default().solve(&p).expect("revised"),
        ] {
            if sol.status == Status::Optimal {
                prop_assert!(p.is_feasible(&sol.values, 1e-5));
                prop_assert!((p.objective_at(&sol.values) - sol.objective).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn fallback_recovers_a_feasible_degraded_solution(p in arb_lp()) {
        use netrepro_lp::fallback::FallbackSolver;
        // A one-iteration budget stalls the primary on anything
        // non-trivial — the injected "numerical stall".
        let crippled = RevisedSimplex { max_iterations: Some(1), ..Default::default() };
        let s = FallbackSolver::new(crippled, DenseSimplex::default());
        let sol = s.solve(&p).expect("fallback must recover whenever dense can solve");
        if sol.status == Status::Optimal {
            prop_assert!(p.is_feasible(&sol.values, 1e-5));
            if s.degradations() > 0 {
                prop_assert!(sol.degraded, "recovered solution must carry the Degraded tag");
                let reference = DenseSimplex::default().solve(&p).expect("dense");
                prop_assert!((sol.objective - reference.objective).abs() < 1e-5,
                    "degraded optimum {} drifted from dense optimum {}",
                    sol.objective, reference.objective);
            }
        }
    }

    #[test]
    fn presolve_never_changes_the_answer(p in arb_lp()) {
        let with = RevisedSimplex::default().solve(&p).expect("with presolve");
        let without = RevisedSimplex { presolve: false, ..Default::default() }
            .solve(&p)
            .expect("without presolve");
        prop_assert_eq!(with.status, without.status);
        if with.status == Status::Optimal {
            prop_assert!((with.objective - without.objective).abs() < 1e-5);
        }
    }
}
