//! Deterministic content-addressed memoization for the sweep harness.
//!
//! The experiment matrix repeats an enormous amount of identical
//! sub-work: every cell of a `(system, style, profile)` class rebuilds
//! the same [`PaperSpec`] and participant preset (the oracle side of a
//! cell is seed-independent by construction — only the simulated LLM
//! draws per-seed RNG), and a warm re-run of the matrix (the paper's
//! own §3.2 validation loop: re-running prototypes against the oracle
//! repeatedly) re-executes cells whose outcome is already known, because
//! [`crate::harness::Sweep::execute_cell`] is a pure function of the
//! [`CellId`].
//!
//! [`CellMemo`] exploits both layers:
//!
//! * **Oracle layer** — `Arc`-shared [`PaperSpec`]s keyed by system and
//!   participant presets keyed by `(system, style)`, reused across every
//!   cell of the class instead of being rebuilt per attempt.
//! * **Cell layer** — completed [`CellWork`] keyed by the cell's stable
//!   key. A warm hit replays the execution byte-for-byte; the
//!   supervision state (virtual clock, breaker) still advances at
//!   commit time only, so journals stay identical.
//!
//! # Determinism argument
//!
//! Caching here is *observationally invisible*. `execute_cell` derives
//! every RNG stream from the cell key alone, so its output is a fixed
//! value per cell; memoizing a pure function cannot change any journal
//! or report byte, whether the memo is cold, warm, or partially warm
//! (property-tested in the harness). The journal header records
//! [`SCHEME`] — the *scheme* fingerprint, not the enablement state —
//! so a journal written with the memo on resumes bit-identically with
//! it off and vice versa.
//!
//! The effects analyzer (`repolint --effects`) proves this module's
//! determinism transitively: it must never read wall-clock time, and
//! its maps are only ever probed by key (iteration order never reaches
//! any output). The interior mutability is declared with
//! `effect-allow(GlobalState)` at each audited method.

use crate::harness::{CellId, CellWork};
use crate::paper::{PaperSpec, TargetSystem};
use crate::student::Participant;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache-scheme identifier, recorded in every journal header. Bump the
/// suffix when the memoization key derivation changes incompatibly.
/// Deliberately constant across cache on/off: the header describes the
/// *scheme* journals were written under, not whether a memo was warm.
pub const SCHEME: &str = "cellmemo-v1/fnv1a64";

/// Hit/miss counters for one memo layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that executed fresh work.
    pub misses: u64,
}

/// The per-sweep memoization store. Shared across pool workers
/// (`Mutex` + atomics — [`crate::pool::run_ordered`] requires the
/// execute closure to be `Sync`) and across consecutive sweeps when the
/// caller holds the same `Arc` (that is what makes a warm re-run fast).
#[derive(Debug, Default)]
pub struct CellMemo {
    specs: Mutex<HashMap<TargetSystem, Arc<PaperSpec>>>,
    participants: Mutex<HashMap<String, Arc<Participant>>>,
    work: Mutex<HashMap<String, CellWork>>,
    work_hits: AtomicU64,
    work_misses: AtomicU64,
}

impl CellMemo {
    /// An empty (cold) memo.
    pub fn new() -> Self {
        CellMemo::default()
    }

    /// A cold memo behind an `Arc`, ready to share across sweeps and
    /// workers.
    pub fn shared() -> Arc<Self> {
        Arc::new(CellMemo::new())
    }

    /// The shared [`PaperSpec`] for `system`, built at most once per
    /// memo.
    // effect-allow(GlobalState): memoization — the cached value is a pure
    // function of `system`, so sharing the map never changes a result.
    pub fn spec(&self, system: TargetSystem) -> Arc<PaperSpec> {
        let mut specs = self.specs.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(
            specs
                .entry(system)
                .or_insert_with(|| Arc::new(PaperSpec::for_system(system))),
        )
    }

    /// The participant driving `cell` — the oracle-side preset shared
    /// by every cell of the `(system, style)` class. The per-cell copy
    /// is a clone of the memoized value, not a fresh preset build.
    // effect-allow(GlobalState): memoization — the preset is a pure
    // function of the (system, style) class; callers get clones.
    pub fn participant(&self, cell: CellId) -> Participant {
        let key = format!("{}/{}", cell.system.name(), cell.style.name());
        let mut participants = self.participants.lock().unwrap_or_else(|p| p.into_inner());
        let arc = participants
            .entry(key)
            .or_insert_with(|| Arc::new(cell.participant()));
        (**arc).clone()
    }

    /// Replay the memoized execution of `cell`, if one is stored.
    // effect-allow(GlobalState): memoization + relaxed stat counters; a
    // hit replays the exact value a cold run would have produced.
    pub fn lookup_work(&self, cell: CellId) -> Option<CellWork> {
        let work = self.work.lock().unwrap_or_else(|p| p.into_inner());
        match work.get(&cell.key()) {
            Some(w) => {
                self.work_hits.fetch_add(1, Ordering::Relaxed);
                Some(w.clone())
            }
            None => {
                self.work_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store the execution of `cell` for future replays.
    // effect-allow(GlobalState): memoization — writes are keyed by the
    // cell id and idempotent for deterministic executions.
    pub fn store_work(&self, cell: CellId, value: &CellWork) {
        let mut work = self.work.lock().unwrap_or_else(|p| p.into_inner());
        work.insert(cell.key(), value.clone());
    }

    /// Hit/miss counters of the cell layer.
    // effect-allow(GlobalState): observability-only relaxed counters —
    // never fed back into any computed result.
    pub fn work_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.work_hits.load(Ordering::Relaxed),
            misses: self.work_misses.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized cell executions.
    // effect-allow(GlobalState): observability-only cache size probe.
    pub fn work_len(&self) -> usize {
        self.work.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultProfile;
    use crate::harness::FaultTally;
    use crate::prompt::PromptStyle;

    fn cell(seed: u64) -> CellId {
        CellId {
            system: TargetSystem::NcFlow,
            style: PromptStyle::ModularText,
            seed,
            profile: FaultProfile::None,
            scale: crate::harness::TopoScale::Paper,
        }
    }

    #[test]
    fn specs_are_shared_per_system() {
        let memo = CellMemo::new();
        let a = memo.spec(TargetSystem::NcFlow);
        let b = memo.spec(TargetSystem::NcFlow);
        assert!(Arc::ptr_eq(&a, &b), "same system must share one spec");
        let c = memo.spec(TargetSystem::Arrow);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn participants_match_the_uncached_preset() {
        let memo = CellMemo::new();
        let c = cell(3);
        let cached = memo.participant(c);
        let fresh = c.participant();
        assert_eq!(cached.name, fresh.name);
        assert_eq!(cached.strategy.style, fresh.strategy.style);
        // Cells of the class share the memo regardless of seed.
        let again = memo.participant(cell(99));
        assert_eq!(again.name, cached.name);
    }

    #[test]
    fn work_memo_replays_and_counts() {
        let memo = CellMemo::new();
        let c = cell(0);
        assert!(memo.lookup_work(c).is_none());
        let w = CellWork {
            attempts: Vec::new(),
            result: None,
            faults: FaultTally::zero(),
            ticks: 7,
        };
        memo.store_work(c, &w);
        let hit = memo.lookup_work(c).expect("warm hit");
        assert_eq!(hit, w);
        assert_eq!(memo.work_stats(), MemoStats { hits: 1, misses: 1 });
        assert_eq!(memo.work_len(), 1);
        // A different seed is a different cell.
        assert!(memo.lookup_work(cell(1)).is_none());
    }
}
