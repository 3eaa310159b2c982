//! Seeded, deterministic fault injection across the reproduction
//! pipeline.
//!
//! Reproduction runs are long chains — prompt loops, LP solves, BDD
//! compilations, dataset generation, socket sessions — and the paper's
//! participants hit failures at every link: stalled ChatGPT sessions,
//! garbage responses, wedged solvers, exhausted BDD tables. This module
//! makes those failures *first-class and reproducible*: a
//! [`FaultPlan`] (profile + seed) drives a [`FaultInjector`] whose
//! fault trace is bit-identical across runs with the same plan, so a
//! crash under `--faults heavy --seed 7` is a crash anyone can replay.
//!
//! Design rules:
//!
//! * The injector owns its **own RNG stream**, separate from every
//!   simulation RNG. Under [`FaultProfile::None`] it performs **zero
//!   draws and zero injections**, so a `none` run is byte-identical to
//!   a run without the fault layer at all.
//! * Every injection is recorded in the trace as **escaped** until the
//!   resilience machinery explicitly absorbs it — unhandled faults are
//!   visible by default, not silently lost.
//! * Absorption mechanisms live in the layer that owns the failure
//!   (solver fallback in `lp`, node-cap growth in `bdd`/`dpv`, retry
//!   budgets here in `core`, timeouts/backoff in `rps`); this module
//!   only decides *when* to break things and keeps the ledger.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Where in the pipeline a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSite {
    /// The simulated LLM's response channel.
    LlmResponse,
    /// The interactive session itself (stalls, lost turns).
    Session,
    /// The LP solver layer.
    LpSolver,
    /// The BDD node table.
    BddTable,
    /// The synthesised FIB dataset.
    DpvDataset,
    /// The sweep harness supervising a task (crash/wedge of a whole
    /// matrix cell, as opposed to a failure inside the session).
    Harness,
    /// A worker thread in the parallel sweep pool (the machinery
    /// *around* a cell, as opposed to the cell's own supervision).
    Worker,
}

impl FaultSite {
    /// Stable lowercase name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::LlmResponse => "llm-response",
            FaultSite::Session => "session",
            FaultSite::LpSolver => "lp-solver",
            FaultSite::BddTable => "bdd-table",
            FaultSite::DpvDataset => "dpv-dataset",
            FaultSite::Harness => "harness",
            FaultSite::Worker => "worker",
        }
    }

    /// Every site, in report order.
    pub const ALL: [FaultSite; 7] = [
        FaultSite::LlmResponse,
        FaultSite::Session,
        FaultSite::LpSolver,
        FaultSite::BddTable,
        FaultSite::DpvDataset,
        FaultSite::Harness,
        FaultSite::Worker,
    ];
}

/// What kind of failure is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The LLM returned a truncated artifact (half the code, and it
    /// does not compile).
    TruncatedResponse,
    /// The LLM returned unusable garbage; the artifact must be
    /// regenerated.
    GarbageResponse,
    /// The session stalled; the prompt was spent but no response
    /// arrived.
    StalledSession,
    /// The primary LP solver stalls numerically (iteration cap hit).
    SolverStall,
    /// The LP iteration count explodes on the reproduced path.
    IterationExplosion,
    /// The BDD node table runs out of its configured capacity.
    TableExhaustion,
    /// A topology link goes dark without FIB convergence.
    LinkCorruption,
    /// FIB rules are corrupted in place.
    FibCorruption,
    /// A whole sweep task crashes (the harness catches the panic).
    TaskPanic,
    /// A whole sweep task wedges and never finishes (the harness's
    /// step-budget deadline reaps it).
    TaskWedge,
    /// A pool worker dies while holding a cell; the pool re-executes
    /// the cell, so the committed outcome is unchanged.
    WorkerCrash,
    /// A pool worker is descheduled mid-cell, perturbing execution
    /// order (but never commit order).
    WorkerStall,
}

impl FaultKind {
    /// Stable lowercase name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TruncatedResponse => "truncated-response",
            FaultKind::GarbageResponse => "garbage-response",
            FaultKind::StalledSession => "stalled-session",
            FaultKind::SolverStall => "solver-stall",
            FaultKind::IterationExplosion => "iteration-explosion",
            FaultKind::TableExhaustion => "table-exhaustion",
            FaultKind::LinkCorruption => "link-corruption",
            FaultKind::FibCorruption => "fib-corruption",
            FaultKind::TaskPanic => "task-panic",
            FaultKind::TaskWedge => "task-wedge",
            FaultKind::WorkerCrash => "worker-crash",
            FaultKind::WorkerStall => "worker-stall",
        }
    }
}

/// How aggressively to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultProfile {
    /// No faults, no RNG draws: byte-identical to the unfaulted run.
    None,
    /// Rare faults — every one should be absorbed.
    Light,
    /// Frequent faults — retry budgets get exercised hard.
    Heavy,
    /// Most operations fault — for probing escape paths.
    Chaos,
}

impl FaultProfile {
    /// Parse a CLI profile name.
    pub fn parse(s: &str) -> Option<FaultProfile> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Some(FaultProfile::None),
            "light" => Some(FaultProfile::Light),
            "heavy" => Some(FaultProfile::Heavy),
            "chaos" => Some(FaultProfile::Chaos),
            _ => None,
        }
    }

    /// The profile's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Light => "light",
            FaultProfile::Heavy => "heavy",
            FaultProfile::Chaos => "chaos",
        }
    }

    /// Injection probability for one roll of `kind`.
    pub fn rate(self, kind: FaultKind) -> f64 {
        let base = match self {
            FaultProfile::None => return 0.0,
            FaultProfile::Light => 0.04,
            FaultProfile::Heavy => 0.25,
            FaultProfile::Chaos => 0.6,
        };
        // Session stalls are the paper's most-reported failure; solver
        // and table faults are rarer but costlier.
        let weight: f64 = match kind {
            FaultKind::StalledSession => 1.5,
            FaultKind::GarbageResponse | FaultKind::TruncatedResponse => 1.0,
            FaultKind::SolverStall | FaultKind::IterationExplosion => 0.8,
            FaultKind::TableExhaustion => 0.8,
            FaultKind::LinkCorruption | FaultKind::FibCorruption => 0.6,
            // Whole-task crashes/wedges are rarer than in-session
            // failures but cost a full attempt each.
            FaultKind::TaskPanic => 0.6,
            FaultKind::TaskWedge => 0.5,
            // Worker-site faults strike the pool machinery itself; the
            // pool must absorb them without touching any cell outcome.
            FaultKind::WorkerCrash => 0.4,
            FaultKind::WorkerStall => 0.5,
        };
        (base * weight).min(0.95)
    }
}

/// A complete, replayable description of a fault run: the profile and
/// the seed of the injector's private RNG stream. Same plan ⇒
/// bit-identical fault trace for the same sequence of rolls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Injection aggressiveness.
    pub profile: FaultProfile,
    /// Seed of the injector's own RNG stream.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultPlan { profile, seed }
    }

    /// The no-fault plan.
    pub fn none() -> Self {
        FaultPlan { profile: FaultProfile::None, seed: 0 }
    }

    /// Parse a CLI `--faults` value. Errors name the valid profiles.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        match FaultProfile::parse(spec) {
            Some(profile) => Ok(FaultPlan { profile, seed }),
            None => Err(format!(
                "unknown fault profile '{spec}' (expected none|light|heavy|chaos)"
            )),
        }
    }

    /// Build the injector for this plan.
    pub fn injector(self) -> FaultInjector {
        FaultInjector::new(self)
    }
}

/// Final state of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// The resilience machinery recovered (retry, fallback, regrow…).
    Absorbed,
    /// Nothing recovered it; the fault reached the caller.
    Escaped,
}

/// One injected fault, in injection order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// 0-based injection sequence number.
    pub seq: u64,
    /// Where it struck.
    pub site: FaultSite,
    /// What it was.
    pub kind: FaultKind,
    /// Whether it was absorbed.
    pub outcome: FaultOutcome,
}

/// Handle to a just-injected fault; pass back to
/// [`FaultInjector::absorb`] once recovery succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a rolled fault defaults to Escaped unless absorbed"]
pub struct FaultId(usize);

/// The injector: decides when to break things, keeps the trace.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// An injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, rng: StdRng::seed_from_u64(plan.seed), events: Vec::new() }
    }

    /// The always-quiet injector ([`FaultProfile::None`]).
    pub fn disabled() -> Self {
        Self::new(FaultPlan::none())
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Whether this injector can ever fire.
    pub fn enabled(&self) -> bool {
        self.plan.profile != FaultProfile::None
    }

    /// Roll the dice for one `(site, kind)` boundary crossing. Returns
    /// a handle when the fault fires. Under [`FaultProfile::None`] this
    /// returns immediately without touching the RNG.
    pub fn roll(&mut self, site: FaultSite, kind: FaultKind) -> Option<FaultId> {
        let p = self.plan.profile.rate(kind);
        if p <= 0.0 {
            return None;
        }
        if self.rng.random::<f64>() >= p {
            return None;
        }
        let seq = self.events.len();
        self.events.push(FaultEvent {
            seq: seq as u64,
            site,
            kind,
            outcome: FaultOutcome::Escaped,
        });
        Some(FaultId(seq))
    }

    /// Mark a fault recovered.
    pub fn absorb(&mut self, id: FaultId) {
        self.events[id.0].outcome = FaultOutcome::Absorbed;
    }

    /// Number of faults injected so far (a checkpoint for
    /// [`FaultInjector::escaped_since`]).
    pub fn checkpoint(&self) -> usize {
        self.events.len()
    }

    /// Escaped faults injected at or after `checkpoint` — the signal
    /// the [`crate::framework::AutoEngineer`] escalates on.
    pub fn escaped_since(&self, checkpoint: usize) -> usize {
        self.events[checkpoint.min(self.events.len())..]
            .iter()
            .filter(|e| e.outcome == FaultOutcome::Escaped)
            .count()
    }

    /// The full trace, in injection order.
    pub fn trace(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Summarise into a [`ResilienceReport`].
    pub fn report(&self) -> ResilienceReport {
        let mut by_site = Vec::new();
        for site in FaultSite::ALL {
            let events = self.events.iter().filter(|e| e.site == site);
            let (mut injected, mut absorbed) = (0u64, 0u64);
            for e in events {
                injected += 1;
                if e.outcome == FaultOutcome::Absorbed {
                    absorbed += 1;
                }
            }
            if injected > 0 {
                by_site.push(SiteStats {
                    site: site.name().to_string(),
                    injected,
                    absorbed,
                    escaped: injected - absorbed,
                });
            }
        }
        let injected = self.events.len() as u64;
        let absorbed =
            self.events.iter().filter(|e| e.outcome == FaultOutcome::Absorbed).count() as u64;
        ResilienceReport {
            profile: self.plan.profile.name().to_string(),
            seed: self.plan.seed,
            injected,
            absorbed,
            escaped: injected - absorbed,
            by_site,
            trace: self.events.clone(),
        }
    }
}

/// Per-site fault counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteStats {
    /// Site name.
    pub site: String,
    /// Faults injected at this site.
    pub injected: u64,
    /// Faults absorbed at this site.
    pub absorbed: u64,
    /// Faults that escaped from this site.
    pub escaped: u64,
}

/// The ledger of a fault run: what was injected, what the resilience
/// machinery absorbed, and what escaped. `validate` prints it and
/// `diagnosis` classifies it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// Profile name of the plan.
    pub profile: String,
    /// Seed of the plan.
    pub seed: u64,
    /// Total faults injected.
    pub injected: u64,
    /// Faults recovered by retries/fallbacks/regrowth.
    pub absorbed: u64,
    /// Faults that reached the caller.
    pub escaped: u64,
    /// Per-site breakdown (sites with no injections are omitted).
    pub by_site: Vec<SiteStats>,
    /// Full trace in injection order.
    pub trace: Vec<FaultEvent>,
}

impl ResilienceReport {
    /// Fraction of injected faults that were absorbed (1.0 when
    /// nothing was injected).
    pub fn absorption_rate(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.absorbed as f64 / self.injected as f64
    }
}

/// How many recoveries a single operation may consume before the
/// fault is allowed to escape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries per guarded operation.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Two retries mirrors what the paper's participants actually
        // did with a stalled ChatGPT session: re-send, re-send again,
        // then give up and re-plan.
        RetryPolicy { max_retries: 2 }
    }
}

impl RetryPolicy {
    /// A fresh budget under this policy.
    pub fn budget(self) -> RetryBudget {
        RetryBudget { remaining: self.max_retries, used: 0 }
    }
}

/// A draining retry budget. [`RetryBudget::try_consume`] never lets
/// `used` exceed the policy's `max_retries`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    remaining: u32,
    used: u32,
}

impl RetryBudget {
    /// Take one retry if any remain; `false` means the budget is dry
    /// and the fault must escape.
    pub fn try_consume(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        self.used += 1;
        true
    }

    /// Retries consumed so far.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Retries still available.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roll_sequence(inj: &mut FaultInjector) {
        for _ in 0..200 {
            if let Some(f) = inj.roll(FaultSite::Session, FaultKind::StalledSession) {
                inj.absorb(f);
            }
            let _ = inj.roll(FaultSite::LpSolver, FaultKind::SolverStall);
            let _ = inj.roll(FaultSite::BddTable, FaultKind::TableExhaustion);
        }
    }

    #[test]
    fn same_plan_same_trace() {
        let mk = || {
            let mut inj = FaultPlan::new(FaultProfile::Heavy, 99).injector();
            roll_sequence(&mut inj);
            inj.report()
        };
        assert_eq!(mk(), mk(), "trace must be bit-identical for the same plan");
    }

    #[test]
    fn different_seed_different_trace() {
        let run = |seed| {
            let mut inj = FaultPlan::new(FaultProfile::Heavy, seed).injector();
            roll_sequence(&mut inj);
            inj.report().trace
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn none_profile_never_fires_and_never_draws() {
        let mut inj = FaultInjector::disabled();
        for _ in 0..1000 {
            assert!(inj.roll(FaultSite::LlmResponse, FaultKind::GarbageResponse).is_none());
        }
        assert!(!inj.enabled());
        let r = inj.report();
        assert_eq!((r.injected, r.absorbed, r.escaped), (0, 0, 0));
        assert!(r.by_site.is_empty());
        assert_eq!(r.absorption_rate(), 1.0);
    }

    #[test]
    fn unabsorbed_faults_count_as_escaped() {
        let mut inj = FaultPlan::new(FaultProfile::Chaos, 5).injector();
        let mut first = None;
        while first.is_none() {
            first = inj.roll(FaultSite::Harness, FaultKind::TaskPanic);
        }
        let r = inj.report();
        assert_eq!(r.escaped, r.injected);
        assert_eq!(r.by_site.len(), 1);
        assert_eq!(r.by_site[0].site, "harness");
        let _ = first;
    }

    #[test]
    fn checkpoints_scope_escape_counts() {
        let mut inj = FaultPlan::new(FaultProfile::Chaos, 5).injector();
        while inj.roll(FaultSite::Session, FaultKind::StalledSession).is_none() {}
        let cp = inj.checkpoint();
        assert_eq!(inj.escaped_since(cp), 0, "nothing injected after the checkpoint yet");
        while inj.roll(FaultSite::Session, FaultKind::StalledSession).is_none() {}
        assert_eq!(inj.escaped_since(cp), 1);
        assert!(inj.escaped_since(0) >= 2);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let mut b = RetryPolicy { max_retries: 3 }.budget();
        let mut granted = 0;
        for _ in 0..100 {
            if b.try_consume() {
                granted += 1;
            }
        }
        assert_eq!(granted, 3);
        assert_eq!(b.used(), 3);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn profile_parsing_round_trips() {
        for p in [FaultProfile::None, FaultProfile::Light, FaultProfile::Heavy, FaultProfile::Chaos] {
            assert_eq!(FaultProfile::parse(p.name()), Some(p));
        }
        assert_eq!(FaultProfile::parse("NONE"), Some(FaultProfile::None));
        assert!(FaultProfile::parse("medium").is_none());
        let err = FaultPlan::parse("medium", 0).unwrap_err();
        assert!(err.contains("none|light|heavy|chaos"), "{err}");
    }

    #[test]
    fn report_serialises_and_round_trips() {
        let mut inj = FaultPlan::new(FaultProfile::Heavy, 11).injector();
        roll_sequence(&mut inj);
        let r = inj.report();
        let json = serde_json::to_string(&r).unwrap();
        let back: ResilienceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
