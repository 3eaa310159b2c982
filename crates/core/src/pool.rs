//! Worker pool with a reorder buffer: the one executor every sweep
//! mode runs its cells through.
//!
//! The sweep matrix is embarrassingly parallel *by construction*:
//! every cell derives its RNG streams from its own key
//! ([`crate::harness::derive_seed`]), so execution order cannot perturb
//! any cell's outcome. What is **not** order-free is supervision state
//! — the virtual clock and the per-class circuit breaker — so the pool
//! splits the two:
//!
//! * **Executors** claim cells in canonical order from an atomic cursor
//!   and execute them out of order. `N` workers are `N` threads: the
//!   caller's thread and `N − 1` helpers. The pool itself knows nothing
//!   of clocks or breakers; the sweep's `execute` closure may read the
//!   committed breaker counts and skip a cell whose class has already
//!   tripped ([`crate::harness::Sweep::run_slice`]).
//! * **The commit loop** runs on the caller's thread. It drains the
//!   helpers' finished cells into a reorder buffer and commits them
//!   strictly in canonical matrix order. When the next cell to commit
//!   is not buffered, it claims and executes a cell itself, and it
//!   blocks only once the cursor is exhausted. Every supervision
//!   decision that changes a journal byte — skip-by-breaker, clock
//!   assignment, journal append — is made at commit, in
//!   `harness::commit_cell`, so the journal and report are
//!   byte-identical for every worker count.
//! * **One worker** is the same loop with no helpers: it commits each
//!   cell before it claims the next, so execute and commit alternate
//!   and every pre-execution check sees every earlier commit.
//! * **Stopping** — the commit loop owns the channel's receiver. When
//!   it returns (done, or a commit `Err`) or unwinds (a re-raised
//!   panic), the receiver drops, each helper's next send fails, and the
//!   helper exits after at most one more cell. The reorder
//!   buffer needs no bound of its own: it never holds more than the
//!   run's remaining cells, all of which end up in the report anyway.
//!
//! Worker-site faults ([`crate::fault::FaultSite::Worker`]) strike the
//! pool machinery itself, not the cell, on every executor of a pool of
//! two or more — the caller's thread included: a `worker-crash` kills
//! the execution of a cell mid-flight (the pool catches the typed
//! panic and re-executes the cell — outcomes are pure, so the retry is
//! sound), and a `worker-stall` deschedules the executor, perturbing
//! completion order. Both are absorbed entirely inside the pool and
//! are tracked in [`PoolStats`], never in the journal: a faulted
//! parallel run must still be byte-identical to `--workers 1`, which
//! rolls no worker faults.
//!
//! Any *other* panic escaping a cell is a genuine bug: it travels
//! through the reorder buffer (from a helper, over the channel), and
//! the commit loop re-raises it with `resume_unwind` at the cell's
//! canonical commit slot — the same boundary where a serial run would
//! have died, with the same journal prefix on disk.

use crate::fault::{FaultKind, FaultPlan, FaultSite};
use crate::harness::{derive_seed, CellId, SALT_WORKER};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;

/// How many scheduler yields an injected `worker-stall` burns.
const STALL_YIELDS: u32 = 8;

/// Panic payload for an injected worker crash — distinguishable by
/// downcast from both a genuine bug and an in-cell
/// [`crate::harness::InjectedCrash`].
#[derive(Debug, Clone, Copy)]
pub struct InjectedWorkerCrash {
    /// The cell the worker was holding when it died.
    pub cell: CellId,
}

/// What the pool machinery absorbed, over and above the cell outcomes.
/// Deliberately *not* part of the byte-compared report: worker-site
/// faults must leave the journal untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Cell executions that ran to completion on a worker (an injected
    /// crash kills the worker *before* the cell runs, so each cell
    /// completes exactly once).
    pub executed: u64,
    /// Injected worker crashes absorbed by re-execution.
    pub crashes_absorbed: u64,
    /// Injected worker stalls absorbed by rescheduling.
    pub stalls_absorbed: u64,
}

#[derive(Default)]
struct StatCounters {
    executed: AtomicU64,
    crashes: AtomicU64,
    stalls: AtomicU64,
}

impl StatCounters {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            executed: self.executed.load(Ordering::Relaxed),
            crashes_absorbed: self.crashes.load(Ordering::Relaxed),
            stalls_absorbed: self.stalls.load(Ordering::Relaxed),
        }
    }
}

/// Execute one cell on a pool executor, absorbing injected worker-site
/// faults. Returns the execute result or a genuine panic payload.
fn worker_execute<W, X>(
    cell: CellId,
    execute: &X,
    stats: &StatCounters,
) -> std::thread::Result<W>
where
    X: Fn(CellId) -> W,
{
    let mut faults = FaultPlan::new(cell.profile, derive_seed(cell, 0, SALT_WORKER)).injector();
    if let Some(id) = faults.roll(FaultSite::Worker, FaultKind::WorkerStall) {
        for _ in 0..STALL_YIELDS {
            std::thread::yield_now();
        }
        faults.absorb(id);
        stats.stalls.fetch_add(1, Ordering::Relaxed);
    }
    let crash = faults.roll(FaultSite::Worker, FaultKind::WorkerCrash);
    let first = catch_unwind(AssertUnwindSafe(|| {
        if crash.is_some() {
            std::panic::panic_any(InjectedWorkerCrash { cell });
        }
        stats.executed.fetch_add(1, Ordering::Relaxed);
        execute(cell)
    }));
    match first {
        Err(payload) if payload.downcast_ref::<InjectedWorkerCrash>().is_some() => {
            // The worker died at the pool layer before (or instead of)
            // finishing the cell; cell execution is a pure function of
            // the cell id, so re-executing is sound and the fault is
            // absorbed invisibly.
            if let Some(id) = crash {
                faults.absorb(id);
            }
            stats.crashes.fetch_add(1, Ordering::Relaxed);
            stats.executed.fetch_add(1, Ordering::Relaxed);
            catch_unwind(AssertUnwindSafe(|| execute(cell)))
        }
        other => other,
    }
}

/// Run `cells` through `execute` on `workers` threads, delivering each
/// result to `commit` **in slice order** through a reorder buffer.
/// `commit` receives the cell's offset within `cells` plus the
/// produced work; an `Err` from `commit` stops the pool and is
/// returned. A genuine panic inside `execute` is re-raised on the
/// caller's thread at the cell's commit slot.
pub(crate) fn run_ordered<W, X, C>(
    workers: usize,
    cells: &[CellId],
    execute: X,
    commit: C,
) -> Result<PoolStats, String>
where
    W: Send,
    X: Fn(CellId) -> W + Sync,
    C: FnMut(usize, W) -> Result<(), String>,
{
    // Worker-site faults strike every executor of a pool, the
    // caller's thread included. One worker is no pool: execute and
    // commit alternate on the caller's thread, which no fault strikes.
    let pooled = workers.min(cells.len()) > 1;
    run_ordered_core(
        workers,
        cells.len(),
        |i, stats| {
            if pooled {
                worker_execute(cells[i], &execute, stats)
            } else {
                counted(stats, || execute(cells[i]))
            }
        },
        commit,
    )
}

/// Run arbitrary work items through `execute` on `workers` threads,
/// delivering each result to `commit` **in slice order** through the
/// same reorder buffer the sweep uses. Unlike [`run_ordered`],
/// items carry no [`CellId`], so no worker-site faults are injected —
/// this is the plain deterministic fan-out used by the partitioned DPV
/// runner ([`crate::dpv_scale`]): each item is a destination chunk and
/// the commit order makes the merged verdict stream canonical whatever
/// the worker count.
pub fn run_ordered_items<T, W, X, C>(
    workers: usize,
    items: &[T],
    execute: X,
    commit: C,
) -> Result<PoolStats, String>
where
    T: Sync,
    W: Send,
    X: Fn(usize, &T) -> W + Sync,
    C: FnMut(usize, W) -> Result<(), String>,
{
    let execute = |i: usize, stats: &StatCounters| counted(stats, || execute(i, &items[i]));
    run_ordered_core(workers, items.len(), execute, commit)
}

/// Run `f` under `catch_unwind`, counting it as executed once it
/// completes.
fn counted<W>(stats: &StatCounters, f: impl FnOnce() -> W) -> std::thread::Result<W> {
    let r = catch_unwind(AssertUnwindSafe(f));
    if r.is_ok() {
        stats.executed.fetch_add(1, Ordering::Relaxed);
    }
    r
}

/// The shared pool engine: claim indices in canonical order from an
/// atomic cursor, execute out of order, commit strictly in order.
/// `workers - 1` helper threads claim and execute; the caller's thread
/// commits and, between commits, claims and executes too, so `workers`
/// threads execute in all. `execute` returns a `thread::Result` so the
/// caller layer decides what counts as an absorbable fault; whatever
/// still comes back as `Err` is a genuine panic, re-raised at the
/// item's commit slot.
fn run_ordered_core<W, X, C>(
    workers: usize,
    total: usize,
    execute: X,
    mut commit: C,
) -> Result<PoolStats, String>
where
    W: Send,
    X: Fn(usize, &StatCounters) -> std::thread::Result<W> + Sync,
    C: FnMut(usize, W) -> Result<(), String>,
{
    let stats = StatCounters::default();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Owned by the commit loop: on every exit path (done, `Err`,
        // unwind) the receiver drops and the helpers' sends fail.
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<W>)>();
        for _ in 1..workers.min(total) {
            let tx = tx.clone();
            let (next, stats, execute) = (&next, &stats, &execute);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total || tx.send((i, execute(i, stats))).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut buffer: BTreeMap<usize, std::thread::Result<W>> = BTreeMap::new();
        for i in 0..total {
            let outcome = loop {
                buffer.extend(rx.try_iter());
                if let Some(o) = buffer.remove(&i) {
                    break o;
                }
                // Nothing to commit yet: execute the next unclaimed
                // item here rather than wait. Item `i` is committed
                // before `i + 1` is claimed unless a helper holds `i`,
                // so with no helpers execute and commit alternate.
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j < total {
                    let o = execute(j, &stats);
                    if j == i {
                        break o;
                    }
                    buffer.insert(j, o);
                    continue;
                }
                let Ok((j, o)) = rx.recv() else {
                    return Err(format!("worker pool hung up with cell {i} of {total} undelivered"));
                };
                buffer.insert(j, o);
            };
            match outcome {
                Ok(work) => commit(i, work)?,
                // A genuine bug: re-raise at the canonical commit
                // boundary, exactly where a one-worker run would die,
                // with the same journal prefix already durable.
                Err(payload) => resume_unwind(payload),
            }
        }
        Ok(stats.snapshot())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultProfile;
    use crate::harness::{CellId, SweepConfig};
    use crate::paper::TargetSystem;
    use crate::prompt::PromptStyle;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    fn cells(n: u64, profile: FaultProfile) -> Vec<CellId> {
        (0..n)
            .map(|seed| CellId {
                system: TargetSystem::RockPaperScissors,
                style: PromptStyle::ModularText,
                seed,
                profile,
                scale: crate::harness::TopoScale::Paper,
            })
            .collect()
    }

    #[test]
    fn commits_in_slice_order_for_every_worker_count() {
        let cs = cells(23, FaultProfile::None);
        for workers in [1, 2, 4, 8] {
            let mut seen = Vec::new();
            let stats = run_ordered(
                workers,
                &cs,
                |cell| cell.seed * 10,
                |i, w| {
                    seen.push((i, w));
                    Ok(())
                },
            )
            .expect("pool runs");
            let want: Vec<(usize, u64)> = (0..23).map(|i| (i, i as u64 * 10)).collect();
            assert_eq!(seen, want, "workers={workers}");
            assert_eq!(stats.executed, 23);
        }
    }

    #[test]
    fn chaos_profile_injects_and_absorbs_worker_faults() {
        // Under chaos, worker crashes fire with p≈0.24 over 64 cells —
        // the deterministic per-cell streams make the count exact.
        let cs = cells(64, FaultProfile::Chaos);
        let run = |workers| {
            let mut order = Vec::new();
            let stats = run_ordered(workers, &cs, |c| c.seed, |_, w| {
                order.push(w);
                Ok(())
            })
            .expect("pool runs");
            (order, stats)
        };
        let (order_a, stats_a) = run(3);
        let (order_b, stats_b) = run(7);
        assert_eq!(order_a, (0..64).collect::<Vec<_>>());
        assert_eq!(order_a, order_b, "commit order is worker-count independent");
        assert!(stats_a.crashes_absorbed > 0, "{stats_a:?}");
        assert!(stats_a.stalls_absorbed > 0, "{stats_a:?}");
        // Fault rolls derive from per-cell seeds, so the absorbed
        // counts are identical whatever the pool shape.
        assert_eq!(stats_a, stats_b);
        assert_eq!(stats_a.executed, 64, "every cell completes exactly once");
    }

    #[test]
    fn none_profile_never_touches_worker_faults() {
        let cs = cells(16, FaultProfile::None);
        let stats = run_ordered(4, &cs, |c| c.seed, |_, _| Ok(())).expect("pool runs");
        assert_eq!(stats.crashes_absorbed, 0);
        assert_eq!(stats.stalls_absorbed, 0);
        assert_eq!(stats.executed, 16);
    }

    #[test]
    fn commit_error_stops_the_pool() {
        let cs = cells(40, FaultProfile::None);
        let mut committed = 0u32;
        let err = run_ordered(
            4,
            &cs,
            |c| c.seed,
            |i, _| {
                if i == 5 {
                    return Err("sink full".to_string());
                }
                committed += 1;
                Ok(())
            },
        )
        .expect_err("commit failure must surface");
        assert_eq!(err, "sink full");
        assert_eq!(committed, 5);
    }

    #[test]
    fn real_panics_reraise_at_the_commit_slot() {
        let cs = cells(12, FaultProfile::None);
        let committed = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_ordered(
                4,
                &cs,
                |c| {
                    if c.seed == 7 {
                        std::panic::panic_any("pool bug".to_string());
                    }
                    c.seed
                },
                |_, _| {
                    committed.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
            )
        }));
        let payload = caught.expect_err("the bug must escape the pool");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("pool bug"));
        // Every cell before the panicking one commits; nothing after.
        assert_eq!(committed.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn one_worker_runs_inline_and_sees_every_earlier_commit() {
        // At one worker, execute and commit alternate on the caller's
        // thread — which is what lets the sweep's pre-execution breaker
        // check see every earlier cell's commit.
        let cs = cells(9, FaultProfile::Chaos);
        let caller = std::thread::current().id();
        let committed = AtomicUsize::new(0);
        let mut seen = Vec::new();
        let stats = run_ordered(
            1,
            &cs,
            |_| (std::thread::current().id(), committed.load(Ordering::Relaxed)),
            |i, w| {
                seen.push((i, w));
                committed.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
        )
        .expect("pool runs");
        let want: Vec<_> = (0..9).map(|i| (i, (caller, i))).collect();
        assert_eq!(seen, want);
        // No pool thread, so no worker-site fault, even under chaos.
        assert_eq!(stats, PoolStats { executed: 9, ..PoolStats::default() });
    }

    /// Spin until `flag` is set, for at most ten seconds: a test
    /// handshake that cannot hang the suite.
    fn wait_for(flag: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    #[test]
    fn two_workers_are_the_caller_and_one_helper() {
        // Each side's first cell waits until the other side has started
        // one, so both execute whatever the scheduling.
        let cs = cells(40, FaultProfile::None);
        let caller = std::thread::current().id();
        let (caller_ran, helper_ran) = (AtomicBool::new(false), AtomicBool::new(false));
        let threads = Mutex::new(HashSet::new());
        let mut seen = Vec::new();
        let stats = run_ordered(
            2,
            &cs,
            |c| {
                let me = std::thread::current().id();
                let (mine, theirs) = if me == caller {
                    (&caller_ran, &helper_ran)
                } else {
                    (&helper_ran, &caller_ran)
                };
                mine.store(true, Ordering::SeqCst);
                wait_for(theirs);
                threads.lock().unwrap().insert(me);
                c.seed
            },
            |i, w| {
                seen.push((i, w));
                Ok(())
            },
        )
        .expect("pool runs");
        assert_eq!(seen, (0..40).map(|i| (i, i as u64)).collect::<Vec<_>>());
        assert_eq!(stats.executed, 40);
        let threads = threads.into_inner().unwrap();
        assert!(threads.contains(&caller), "the caller executes cells");
        assert_eq!(threads.len(), 2, "exactly one helper thread: {threads:?}");
    }

    #[test]
    fn a_panic_the_caller_executed_reraises_at_its_commit_slot() {
        // Only the caller panics, on its first cell from index 3 on;
        // the helper holds its first cell until then, so the caller
        // gets there.
        let cs = cells(30, FaultProfile::None);
        let caller = std::thread::current().id();
        let caller_panicked = AtomicBool::new(false);
        let committed = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_ordered(
                2,
                &cs,
                |c| {
                    if std::thread::current().id() != caller {
                        wait_for(&caller_panicked);
                    } else if c.seed >= 3 {
                        caller_panicked.store(true, Ordering::SeqCst);
                        std::panic::panic_any(c.seed);
                    }
                    c.seed
                },
                |i, _| {
                    assert_eq!(i, committed.fetch_add(1, Ordering::SeqCst));
                    Ok(())
                },
            )
        }));
        let payload = caught.expect_err("the bug must escape the pool");
        let seed = *payload.downcast_ref::<u64>().expect("the cell's own payload");
        assert!(seed >= 3);
        // Every cell before the panicking one commits; nothing after.
        assert_eq!(committed.load(Ordering::SeqCst) as u64, seed);
    }

    #[test]
    fn a_commit_error_stops_the_helper() {
        // From index 10 on the helper waits for the error, so it is
        // mid-cell when the commit loop fails. Its send may still beat
        // the receiver's drop, so it may start one more cell — slowed
        // here so the drop surely lands during it — and no other.
        let cs = cells(200, FaultProfile::None);
        let caller = std::thread::current().id();
        let failed = AtomicBool::new(false);
        let after = AtomicUsize::new(0);
        let err = run_ordered(
            2,
            &cs,
            |c| {
                if std::thread::current().id() != caller {
                    if failed.load(Ordering::SeqCst) {
                        after.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(100));
                    } else if c.seed >= 10 {
                        wait_for(&failed);
                    }
                }
                c.seed
            },
            |i, _| {
                if i == 5 {
                    failed.store(true, Ordering::SeqCst);
                    return Err("sink full".to_string());
                }
                Ok(())
            },
        )
        .expect_err("commit failure must surface");
        assert_eq!(err, "sink full");
        let after = after.load(Ordering::SeqCst);
        assert!(after <= 1, "the helper ran {after} cells after the error");
    }

    #[test]
    fn chaos_worker_fault_counts_do_not_depend_on_the_worker_count() {
        let cs = cells(64, FaultProfile::Chaos);
        let stats: Vec<PoolStats> = [2, 4, 8]
            .into_iter()
            .map(|workers| run_ordered(workers, &cs, |c| c.seed, |_, _| Ok(())).expect("pool runs"))
            .collect();
        assert!(stats[0].crashes_absorbed > 0 && stats[0].stalls_absorbed > 0, "{stats:?}");
        assert!(stats.iter().all(|s| *s == stats[0]), "{stats:?}");
    }

    #[test]
    fn generic_items_commit_in_slice_order_without_fault_injection() {
        // Items are plain strings — no CellId, so no worker faults can
        // fire; commit order must still be slice order at any width.
        let items: Vec<String> = (0..17).map(|i| format!("chunk-{i}")).collect();
        for workers in [1, 3, 8] {
            let mut seen = Vec::new();
            let stats = run_ordered_items(
                workers,
                &items,
                |i, s: &String| format!("{s}/{i}"),
                |i, w| {
                    seen.push((i, w));
                    Ok(())
                },
            )
            .expect("pool runs");
            let want: Vec<(usize, String)> =
                (0..17).map(|i| (i, format!("chunk-{i}/{i}"))).collect();
            assert_eq!(seen, want, "workers={workers}");
            assert_eq!(stats.executed, 17);
            assert_eq!(stats.crashes_absorbed, 0);
            assert_eq!(stats.stalls_absorbed, 0);
        }
    }

    #[test]
    fn worker_fault_seed_is_stable() {
        // The worker stream must not collide with the session/fault/
        // harness streams of the same cell (distinct salts).
        let cfg = SweepConfig::default();
        let cell = cfg.expand()[0];
        let w = derive_seed(cell, 0, SALT_WORKER);
        for salt in [0x5e55_1011_0000_0001u64, 0xfa17_0a75_0000_0002, 0x4a52_4e53_0000_0003] {
            assert_ne!(w, derive_seed(cell, 0, salt));
        }
    }
}
