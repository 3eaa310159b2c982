//! The serve daemon's determinism contract, exercised at the
//! scheduler layer (no sockets): a job's journal and report are
//! byte-identical to running the same spec through the harness
//! directly, regardless of arrival order, tenant mix, worker count,
//! memoization, or a mid-job crash — and every admission refusal is
//! typed, immediate, and recoverable.

use netrepro_core::cache::CellMemo;
use netrepro_core::harness::{parse_journal, MemoryJournal, Sweep, SweepConfig};
use netrepro_rps::{JobState, RejectReason};
use netrepro_core::wal;
use netrepro_serve::ledger::{parse_ledger, LedgerHeader, LedgerLine, LEDGER_VERSION};
use netrepro_serve::sched::{Admission, RuntimeFactory, SchedConfig, Scheduler};
use netrepro_serve::spec::JobSpec;
use netrepro_serve::storage::{FileStorage, JobStorage, MemStorage};
use proptest::prelude::*;
use std::sync::Arc;

/// A cheap, fast job (1 cell) and a slightly larger one (4 cells).
const SMALL: &str = "systems=rps;styles=mono;profiles=none;seeds=1";
const MEDIUM: &str = "systems=rps+ap;styles=mono;profiles=none;seeds=2";

/// Marker deadline the poison factory recognises.
const POISON_DEADLINE: u64 = 424_242;
const POISON_SPEC: &str = "systems=rps;styles=mono;profiles=none;seeds=1;deadline=424242";

fn plain_factory() -> RuntimeFactory {
    Arc::new(|cfg: &SweepConfig| Sweep::new(cfg.clone()))
}

fn memo_factory(memo: Arc<CellMemo>) -> RuntimeFactory {
    Arc::new(move |cfg: &SweepConfig| Sweep::new(cfg.clone()).with_cache(Arc::clone(&memo)))
}

/// Panics (inside the gate) for any spec carrying the poison marker —
/// the scheduler worker must absorb the panic and fail only that job.
fn poison_factory() -> RuntimeFactory {
    Arc::new(|cfg: &SweepConfig| {
        let sweep = Sweep::new(cfg.clone());
        if cfg.limits.deadline_steps == POISON_DEADLINE {
            sweep.with_gate(Box::new(|_, _| panic!("poison job")))
        } else {
            sweep
        }
    })
}

/// The one-shot baseline: journal text and report JSON for `spec`.
fn direct(spec: &str) -> (String, String) {
    let job = JobSpec::parse(spec).expect("spec");
    let sweep = Sweep::new(job.config.clone());
    let mut replay = parse_journal("", &job.config).expect("empty replay");
    let mut sink = MemoryJournal::new();
    let step = sweep.run_slice(&mut replay, &mut sink, u64::MAX).expect("run");
    let report = step.report.expect("complete run yields a report");
    (sink.text().to_string(), report.render_json())
}

/// Start workers, wait for every live job to reach a terminal state,
/// then stop the workers.
fn run_to_idle(sched: &Arc<Scheduler>) {
    let handles = sched.start_workers();
    sched.wait_idle();
    sched.shutdown();
    for h in handles {
        h.join().expect("worker");
    }
}

fn submit_ok(sched: &Scheduler, tenant: &str, nonce: u64, spec: &str) -> u64 {
    match sched.submit(tenant, nonce, spec).expect("submit") {
        Admission::Accepted(id) => id,
        other => panic!("expected acceptance, got {other:?}"),
    }
}

#[test]
fn scheduler_runs_a_job_byte_identically() {
    let storage = MemStorage::new();
    let sched = Arc::new(
        Scheduler::recover(SchedConfig::default(), plain_factory(), Arc::new(storage.clone()))
            .expect("recover"),
    );
    let id = submit_ok(&sched, "alice", 1, MEDIUM);
    run_to_idle(&sched);
    let (state, journaled, total) = sched.status(id).expect("status");
    assert_eq!(state, JobState::Done);
    assert_eq!(journaled, total);
    let (journal, report) = direct(MEDIUM);
    assert_eq!(storage.journal_text(id), journal, "journal bytes differ from one-shot run");
    assert_eq!(sched.results(id).expect("results"), Some(report));
}

#[test]
fn results_survive_a_restart_without_re_execution() {
    let storage = MemStorage::new();
    let factory = plain_factory();
    let sched = Arc::new(
        Scheduler::recover(SchedConfig::default(), Arc::clone(&factory), Arc::new(storage.clone()))
            .expect("recover"),
    );
    let id = submit_ok(&sched, "alice", 1, SMALL);
    run_to_idle(&sched);
    let journal_before = storage.journal_text(id);
    // Restart: the in-memory report is gone; RESULTS reconstructs it
    // from the journal without executing a cell (the journal must not
    // change).
    let revived = Scheduler::recover(SchedConfig::default(), factory, Arc::new(storage.clone()))
        .expect("recover again");
    assert_eq!(revived.status(id).expect("status").0, JobState::Done);
    let (_, report) = direct(SMALL);
    assert_eq!(revived.results(id).expect("results"), Some(report));
    assert_eq!(storage.journal_text(id), journal_before, "reconstruction must not append");
}

#[test]
fn admission_refusals_are_typed_and_immediate() {
    let cfg = SchedConfig {
        workers: 1,
        queue_cap: 2,
        tenant_quota: 1,
        breaker_threshold: 3,
        quantum: 8,
    };
    let storage = MemStorage::new();
    let sched =
        Scheduler::recover(cfg, plain_factory(), Arc::new(storage.clone())).expect("recover");
    // Workers never started: everything stays queued (live).
    let a = sched.submit("alice", 1, SMALL).expect("submit");
    let Admission::Accepted(a_id) = a else { panic!("{a:?}") };
    assert_eq!(
        sched.submit("alice", 2, SMALL).expect("submit"),
        Admission::Rejected(RejectReason::TenantOverQuota),
    );
    // A duplicate (tenant, nonce) replays the original id, not a slot.
    assert_eq!(sched.submit("alice", 1, SMALL).expect("submit"), Admission::Accepted(a_id));
    assert!(matches!(sched.submit("bob", 1, SMALL).expect("submit"), Admission::Accepted(_)));
    assert_eq!(
        sched.submit("carol", 1, SMALL).expect("submit"),
        Admission::Rejected(RejectReason::QueueFull),
    );
    let huge = format!("systems={}", "rps+".repeat(600));
    assert_eq!(
        sched.submit("carol", 2, &huge).expect("submit"),
        Admission::Rejected(RejectReason::PayloadTooLarge),
    );
    assert!(matches!(
        sched.submit("carol", 3, "colour=blue").expect("submit"),
        Admission::Malformed(_)
    ));
    // Cancelling a queued job frees its slot immediately.
    assert_eq!(sched.cancel(a_id).expect("cancel"), Some(JobState::Cancelled));
    assert_eq!(sched.status(a_id).expect("status").0, JobState::Cancelled);
    assert!(matches!(sched.submit("carol", 4, SMALL).expect("submit"), Admission::Accepted(_)));
    // Draining admits nothing.
    assert!(sched.drain() > 0);
    assert_eq!(sched.submit("dave", 1, SMALL).expect("submit"), Admission::Draining);
}

#[test]
fn poison_jobs_fail_alone_and_open_the_breaker() {
    let cfg = SchedConfig { breaker_threshold: 2, tenant_quota: 8, ..SchedConfig::default() };
    let storage = MemStorage::new();
    let factory = poison_factory();
    let sched = Arc::new(
        Scheduler::recover(cfg.clone(), Arc::clone(&factory), Arc::new(storage.clone()))
            .expect("recover"),
    );
    let p1 = submit_ok(&sched, "mallory", 1, POISON_SPEC);
    let p2 = submit_ok(&sched, "mallory", 2, POISON_SPEC);
    let ok = submit_ok(&sched, "alice", 1, SMALL);
    run_to_idle(&sched);
    // The panics were absorbed: the poison jobs failed, the healthy
    // tenant's job finished, and the workers are still alive.
    assert_eq!(sched.status(p1).expect("status").0, JobState::Failed);
    assert_eq!(sched.status(p2).expect("status").0, JobState::Failed);
    assert_eq!(sched.status(ok).expect("status").0, JobState::Done);
    // Two consecutive failures opened mallory's breaker…
    assert_eq!(
        sched.submit("mallory", 3, SMALL).expect("submit"),
        Admission::Rejected(RejectReason::TenantBreakerOpen),
    );
    // …which persists across a restart (rebuilt from the ledger)…
    let revived =
        Scheduler::recover(cfg, factory, Arc::new(storage.clone())).expect("recover again");
    assert_eq!(
        revived.submit("mallory", 3, SMALL).expect("submit"),
        Admission::Rejected(RejectReason::TenantBreakerOpen),
    );
    // …and never touches other tenants.
    assert!(matches!(revived.submit("alice", 9, SMALL).expect("submit"), Admission::Accepted(_)));
}

#[test]
fn virtual_clock_deadline_leaves_a_byte_identical_prefix() {
    // clock=1 expires after the first slice of a 4-cell job; quantum=1
    // makes slices single-cell so the deadline lands mid-matrix.
    let spec = format!("{MEDIUM};clock=1");
    let cfg = SchedConfig { workers: 1, quantum: 1, ..SchedConfig::default() };
    let storage = MemStorage::new();
    let sched = Arc::new(
        Scheduler::recover(cfg, plain_factory(), Arc::new(storage.clone())).expect("recover"),
    );
    let id = submit_ok(&sched, "alice", 1, &spec);
    run_to_idle(&sched);
    let (state, journaled, total) = sched.status(id).expect("status");
    assert_eq!(state, JobState::Deadline);
    assert!(journaled < total, "the deadline must strike before the matrix completes");
    let (full, _) = direct(MEDIUM);
    let got = storage.journal_text(id);
    assert!(!got.is_empty());
    assert!(
        full.starts_with(&got),
        "a deadline'd journal must be a byte-identical prefix of the uninterrupted run"
    );
}

/// Deterministic Fisher–Yates (SplitMix64) so proptest seeds pick the
/// arrival order reproducibly.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arrival order, tenant mix, worker count and memoization never
    /// change a single journal byte.
    #[test]
    fn journals_are_arrival_order_and_memo_invariant(
        seed in 0u64..1000,
        workers in 1usize..4,
        memo_on in any::<bool>(),
    ) {
        let specs = [
            ("alice", 1u64, SMALL),
            ("alice", 2, MEDIUM),
            ("bob", 1, "systems=ap;styles=mono;profiles=none;seeds=2"),
            ("carol", 1, "systems=rps;styles=mono;profiles=light;seeds=2"),
        ];
        let mut order: Vec<usize> = (0..specs.len()).collect();
        shuffle(&mut order, seed);
        let factory = if memo_on {
            memo_factory(CellMemo::shared())
        } else {
            plain_factory()
        };
        let cfg = SchedConfig { workers, quantum: 2, ..SchedConfig::default() };
        let storage = MemStorage::new();
        let sched = Arc::new(
            Scheduler::recover(cfg, factory, Arc::new(storage.clone())).expect("recover"),
        );
        let mut ids = vec![0u64; specs.len()];
        for &i in &order {
            let (tenant, nonce, spec) = specs[i];
            ids[i] = submit_ok(&sched, tenant, nonce, spec);
        }
        run_to_idle(&sched);
        for (i, &(_, _, spec)) in specs.iter().enumerate() {
            let (journal, report) = direct(spec);
            prop_assert_eq!(sched.status(ids[i]).expect("status").0, JobState::Done);
            prop_assert_eq!(
                storage.journal_text(ids[i]),
                journal,
                "job {} journal differs (order {:?}, workers {}, memo {})",
                i, order, workers, memo_on
            );
            prop_assert_eq!(sched.results(ids[i]).expect("results"), Some(report));
        }
    }

    /// SIGKILL anywhere: cut every job's journal at an arbitrary byte
    /// (the write the crash tore), recover, and the finished journals
    /// are byte-identical to uninterrupted runs. The ledger's own torn
    /// tail (an unacked admission) is dropped, not resurrected.
    #[test]
    fn crash_at_any_byte_resumes_byte_identically(
        cut_a in 0usize..2048,
        cut_b in 0usize..2048,
    ) {
        let jobs = [("alice", 1u64, MEDIUM), ("bob", 1, SMALL)];
        let (full_a, report_a) = direct(MEDIUM);
        let (full_b, report_b) = direct(SMALL);

        // Reconstruct the causal pre-crash state by hand: both jobs
        // were acked (their Submitted lines are durable), each journal
        // holds an arbitrary prefix of its final bytes, and the crash
        // tore a third, never-acked admission off the ledger tail.
        let storage = MemStorage::new();
        let mut ledger = wal::line(&LedgerHeader { version: LEDGER_VERSION }).expect("header");
        for (i, &(tenant, nonce, spec)) in jobs.iter().enumerate() {
            ledger.push_str(
                &wal::line(&LedgerLine::Submitted {
                    job: i as u64 + 1,
                    tenant: tenant.to_string(),
                    nonce,
                    spec: spec.to_string(),
                })
                .expect("line"),
            );
        }
        ledger.push_str("{\"Submitted\":{\"job\":3,\"tena"); // torn mid-write
        storage.ledger_append(&ledger).expect("seed ledger");
        let cut_a = cut_a.min(full_a.len());
        let cut_b = cut_b.min(full_b.len());
        storage.journal_sink(1).expect("sink").append(&full_a[..cut_a]).expect("seed");
        storage.journal_sink(2).expect("sink").append(&full_b[..cut_b]).expect("seed");

        let sched = Arc::new(
            Scheduler::recover(SchedConfig::default(), plain_factory(), Arc::new(storage.clone()))
                .expect("recover"),
        );
        prop_assert!(sched.status(3).is_none(), "the unacked admission must not resurrect");
        run_to_idle(&sched);
        prop_assert_eq!(sched.status(1).expect("status").0, JobState::Done);
        prop_assert_eq!(sched.status(2).expect("status").0, JobState::Done);
        prop_assert_eq!(storage.journal_text(1), full_a, "job 1 cut at {}", cut_a);
        prop_assert_eq!(storage.journal_text(2), full_b, "job 2 cut at {}", cut_b);
        prop_assert_eq!(sched.results(1).expect("results"), Some(report_a));
        prop_assert_eq!(sched.results(2).expect("results"), Some(report_b));
    }
}

#[test]
fn a_warm_memo_is_invisible_in_the_bytes() {
    // Two identical jobs back to back over one shared memo: the second
    // run is served from cache yet must write the same bytes.
    let storage = MemStorage::new();
    let sched = Arc::new(
        Scheduler::recover(
            SchedConfig::default(),
            memo_factory(CellMemo::shared()),
            Arc::new(storage.clone()),
        )
        .expect("recover"),
    );
    let first = submit_ok(&sched, "alice", 1, MEDIUM);
    let second = submit_ok(&sched, "bob", 1, MEDIUM);
    run_to_idle(&sched);
    let (journal, _) = direct(MEDIUM);
    assert_eq!(storage.journal_text(first), journal);
    assert_eq!(storage.journal_text(second), journal);
}

#[test]
fn ledger_torn_inside_a_utf8_character_recovers() {
    // A daemon killed mid-append can cut the ledger inside a multi-byte
    // character; restart must drop that tail like any other torn write.
    let dir = std::env::temp_dir().join(format!("netrepro-serve-utf8-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = Arc::new(FileStorage::open(&dir).expect("state dir"));
    let sched = Scheduler::recover(SchedConfig::default(), plain_factory(), storage.clone())
        .expect("fresh daemon");
    submit_ok(&sched, "café", 1, SMALL);
    drop(sched);
    let path = dir.join("ledger.jsonl");
    let full = std::fs::read(&path).unwrap();
    let header_end = full.iter().position(|&b| b == b'\n').unwrap() + 1;
    let cut = full.windows(2).position(|w| w == "é".as_bytes()).expect("tenant in ledger") + 1;
    std::fs::write(&path, &full[..cut]).unwrap();

    let sched = Scheduler::recover(SchedConfig::default(), plain_factory(), storage.clone())
        .expect("restart over a ledger torn inside a character");
    assert_eq!(std::fs::read(&path).unwrap(), &full[..header_end], "cut to the last newline");
    let id = submit_ok(&sched, "café", 1, SMALL);
    let replay = parse_ledger(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(!replay.dropped_partial);
    assert!(
        matches!(&replay.records[..], [LedgerLine::Submitted { job, tenant, .. }] if *job == id && tenant == "café"),
        "{:?}",
        replay.records
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
