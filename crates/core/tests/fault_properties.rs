//! Property tests for the fault-injection subsystem: determinism of
//! the fault schedule, hard bounds on retry budgets, and end-to-end
//! reproducibility of faulted session runs.

use netrepro_core::fault::{
    FaultKind, FaultPlan, FaultProfile, FaultSite, RetryPolicy,
};
use netrepro_core::paper::TargetSystem;
use netrepro_core::student::Participant;
use netrepro_core::ReproductionSession;
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = FaultProfile> {
    prop_oneof![
        Just(FaultProfile::None),
        Just(FaultProfile::Light),
        Just(FaultProfile::Heavy),
        Just(FaultProfile::Chaos),
    ]
}

/// Every (site, kind) pairing the pipeline actually rolls.
fn arb_site_kind() -> impl Strategy<Value = (FaultSite, FaultKind)> {
    prop_oneof![
        Just((FaultSite::LlmResponse, FaultKind::TruncatedResponse)),
        Just((FaultSite::LlmResponse, FaultKind::GarbageResponse)),
        Just((FaultSite::Session, FaultKind::StalledSession)),
        Just((FaultSite::LpSolver, FaultKind::SolverStall)),
        Just((FaultSite::LpSolver, FaultKind::IterationExplosion)),
        Just((FaultSite::BddTable, FaultKind::TableExhaustion)),
        Just((FaultSite::DpvDataset, FaultKind::LinkCorruption)),
        Just((FaultSite::DpvDataset, FaultKind::FibCorruption)),
        Just((FaultSite::Harness, FaultKind::TaskPanic)),
        Just((FaultSite::Harness, FaultKind::TaskWedge)),
        Just((FaultSite::Worker, FaultKind::WorkerCrash)),
        Just((FaultSite::Worker, FaultKind::WorkerStall)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same plan (profile, seed) + same roll sequence ⇒ bit-identical
    /// fault trace and resilience report.
    #[test]
    fn same_seed_produces_identical_trace(
        profile in arb_profile(),
        seed in any::<u64>(),
        rolls in prop::collection::vec(arb_site_kind(), 1..64),
    ) {
        let mut a = FaultPlan::new(profile, seed).injector();
        let mut b = FaultPlan::new(profile, seed).injector();
        for &(site, kind) in &rolls {
            let fa = a.roll(site, kind);
            let fb = b.roll(site, kind);
            prop_assert_eq!(fa.is_some(), fb.is_some(), "fire/skip diverged");
            if let (Some(fa), Some(fb)) = (fa, fb) {
                a.absorb(fa);
                b.absorb(fb);
            }
        }
        prop_assert_eq!(
            serde_json::to_string(&a.report()).unwrap(),
            serde_json::to_string(&b.report()).unwrap()
        );
    }

    /// The `none` profile never fires and never touches the RNG.
    #[test]
    fn none_profile_never_fires(
        seed in any::<u64>(),
        rolls in prop::collection::vec(arb_site_kind(), 1..64),
    ) {
        let mut inj = FaultPlan::new(FaultProfile::None, seed).injector();
        for &(site, kind) in &rolls {
            prop_assert!(inj.roll(site, kind).is_none());
        }
        prop_assert_eq!(inj.report().injected, 0);
        prop_assert!(inj.trace().is_empty());
    }

    /// A retry budget grants at most `max_retries` attempts, no matter
    /// how often it is asked, and its accounting always balances.
    #[test]
    fn retry_budget_is_never_exceeded(max in 0u32..10, asks in 0u32..40) {
        let mut budget = RetryPolicy { max_retries: max }.budget();
        let mut granted = 0u32;
        for _ in 0..asks {
            if budget.try_consume() {
                granted += 1;
            }
        }
        prop_assert!(granted <= max, "granted {granted} > cap {max}");
        prop_assert_eq!(budget.used(), granted);
        prop_assert_eq!(budget.used() + budget.remaining(), max);
    }
}

proptest! {
    // Full sessions per case — keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two faulted session runs under the same plan are byte-identical:
    /// same report, same fault trace, regardless of profile severity.
    #[test]
    fn faulted_sessions_are_reproducible(
        profile in arb_profile(),
        seed in 0u64..1000,
    ) {
        let run = || {
            let mut inj = FaultPlan::new(profile, seed).injector();
            let r = ReproductionSession::new(
                Participant::preset(TargetSystem::NcFlow),
                seed,
            )
            .run_with_faults(&mut inj);
            (
                serde_json::to_string(&r).unwrap(),
                serde_json::to_string(&inj.report()).unwrap(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}
