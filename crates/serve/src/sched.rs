//! The daemon's scheduler: bounded admission, per-tenant
//! deficit-round-robin fairness, virtual-clock deadlines,
//! cancellation, a per-tenant circuit breaker, and write-ahead
//! recovery.
//!
//! Jobs execute **serially within themselves** — a job is grown slice
//! by slice through [`Sweep::run_slice`], so its journal is
//! byte-identical to a one-shot run no matter how slices interleave
//! with other jobs. Concurrency lives *between* jobs: `workers`
//! scheduler threads each pick a tenant by deficit round-robin, pop
//! that tenant's front job, run one slice, and requeue. Fairness,
//! deadlines, cancellation and the breaker are therefore pure
//! scheduling policy: none of them can change a journal byte, only
//! *whether* and *when* bytes get written.
//!
//! All file I/O goes through the [`JobStorage`] trait (the daemon
//! plugs in [`FileStorage`](crate::storage::FileStorage)); all socket
//! I/O lives in the daemon module. This module's own effect budget is
//! scheduler state + the harness's seeded execution.

use crate::ledger::{parse_ledger, LedgerHeader, LedgerLine, LEDGER_VERSION};
use crate::spec::{JobSpec, MAX_SPEC_LEN};
use crate::storage::JobStorage;
use netrepro_core::harness::{parse_journal, MemoryJournal, Replay, Sweep, SweepConfig};
use netrepro_core::wal;
use netrepro_rps::{JobState, RejectReason};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Builds the per-job [`Sweep`] runtime. The caller wires the same
/// gate and (shared, warm) memo the one-shot CLI uses, so a job's
/// journal cannot depend on which path ran it.
pub type RuntimeFactory = Arc<dyn Fn(&SweepConfig) -> Sweep + Send + Sync>;

/// Scheduler tuning. Everything is in virtual units (jobs, cells) —
/// never wall time.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Scheduler worker threads (concurrent jobs in flight).
    pub workers: usize,
    /// Bounded admission queue: maximum live (queued + running) jobs
    /// across all tenants.
    pub queue_cap: usize,
    /// Maximum live jobs per tenant.
    pub tenant_quota: usize,
    /// Consecutive failed jobs after which a tenant's breaker opens.
    pub breaker_threshold: u32,
    /// Deficit-round-robin quantum, in cells credited per visit.
    pub quantum: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            workers: 2,
            queue_cap: 16,
            tenant_quota: 4,
            breaker_threshold: 3,
            quantum: 8,
        }
    }
}

/// One admitted job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Daemon-assigned id (sequential, persisted via the ledger).
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// The client's idempotency nonce.
    pub nonce: u64,
    /// Parsed spec.
    pub spec: JobSpec,
    /// The spec token exactly as submitted (ledger fidelity).
    pub spec_token: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Cells committed to the journal.
    pub journaled: u64,
    /// Matrix size.
    pub total: u64,
    /// Virtual clock after the last committed cell.
    pub clock: u64,
    /// Cancellation was requested; the worker honours it at the next
    /// slice boundary.
    pub cancel: bool,
    /// The rendered report, once the job is done.
    pub report_json: Option<String>,
}

/// What admission decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Admitted (or replayed: a duplicate `(tenant, nonce)` returns
    /// the original id).
    Accepted(u64),
    /// Refused with a typed reason.
    Rejected(RejectReason),
    /// The spec token did not parse.
    Malformed(String),
    /// The daemon is draining and admits nothing.
    Draining,
}

struct TenantQueue {
    tenant: String,
    queue: VecDeque<u64>,
    deficit: u64,
    /// Consecutive failed/deadline'd jobs (the breaker counter).
    failures: u32,
}

struct SchedState {
    jobs: BTreeMap<u64, JobRecord>,
    /// The in-memory journal of each queued job that has run a slice
    /// since admission or recovery. A worker takes it out when it
    /// claims the job and puts it back when it requeues it, so only a
    /// job's first slice in this process reads its journal.
    replays: BTreeMap<u64, Replay>,
    by_nonce: BTreeMap<(String, u64), u64>,
    ring: Vec<TenantQueue>,
    cursor: usize,
    next_id: u64,
    running: usize,
    draining: bool,
    shutdown: bool,
}

impl SchedState {
    fn tenant_mut(&mut self, tenant: &str) -> &mut TenantQueue {
        if let Some(i) = self.ring.iter().position(|t| t.tenant == tenant) {
            return &mut self.ring[i];
        }
        self.ring.push(TenantQueue {
            tenant: tenant.to_string(),
            queue: VecDeque::new(),
            deficit: 0,
            failures: 0,
        });
        let last = self.ring.len() - 1;
        &mut self.ring[last]
    }

    fn live_total(&self) -> usize {
        self.jobs.values().filter(|j| j.state.is_live()).count()
    }

    fn live_of(&self, tenant: &str) -> usize {
        self.jobs.values().filter(|j| j.state.is_live() && j.tenant == tenant).count()
    }

    fn has_runnable(&self) -> bool {
        self.ring.iter().any(|t| !t.queue.is_empty())
    }
}

/// The scheduler. Shared behind an [`Arc`]; worker threads are
/// started with [`Scheduler::start_workers`].
pub struct Scheduler {
    state: Mutex<SchedState>,
    work_ready: Condvar,
    idle: Condvar,
    cfg: SchedConfig,
    factory: RuntimeFactory,
    storage: Arc<dyn JobStorage>,
}

impl Scheduler {
    /// Create a scheduler over `storage`, replaying the ledger: jobs
    /// submitted but not finished before the last shutdown (or crash)
    /// are re-queued in their original admission order, each resuming
    /// from its journal's valid prefix.
    pub fn recover(
        cfg: SchedConfig,
        factory: RuntimeFactory,
        storage: Arc<dyn JobStorage>,
    ) -> Result<Scheduler, String> {
        let text = storage.ledger_load()?;
        let replay = parse_ledger(&text)?;
        if replay.dropped_partial {
            storage.ledger_truncate(replay.valid_bytes)?;
        }
        if replay.header.is_none() {
            storage.ledger_append(&wal::line(&LedgerHeader { version: LEDGER_VERSION })?)?;
        }
        let mut state = SchedState {
            jobs: BTreeMap::new(),
            replays: BTreeMap::new(),
            by_nonce: BTreeMap::new(),
            ring: Vec::new(),
            cursor: 0,
            next_id: 1,
            running: 0,
            draining: false,
            shutdown: false,
        };
        for line in &replay.records {
            match line {
                LedgerLine::Submitted { job, tenant, nonce, spec } => {
                    let parsed = JobSpec::parse(spec)
                        .map_err(|e| format!("ledger job {job}: {e}"))?;
                    let total = parsed.config.total_cells() as u64;
                    state.by_nonce.insert((tenant.clone(), *nonce), *job);
                    state.next_id = state.next_id.max(job + 1);
                    state.jobs.insert(
                        *job,
                        JobRecord {
                            id: *job,
                            tenant: tenant.clone(),
                            nonce: *nonce,
                            spec: parsed,
                            spec_token: spec.clone(),
                            state: JobState::Queued,
                            journaled: 0,
                            total,
                            clock: 0,
                            cancel: false,
                            report_json: None,
                        },
                    );
                }
                LedgerLine::Done { job, outcome } => {
                    let terminal = JobState::parse(outcome)
                        .filter(|s| !s.is_live())
                        .ok_or_else(|| format!("ledger job {job}: bad outcome {outcome:?}"))?;
                    let rec = state
                        .jobs
                        .get_mut(job)
                        .ok_or_else(|| format!("ledger: Done for unknown job {job}"))?;
                    rec.state = terminal;
                    if terminal == JobState::Done {
                        rec.journaled = rec.total;
                    }
                }
            }
        }
        // Rebuild each tenant's breaker from its terminal outcomes in
        // ledger order, then queue the survivors in admission order.
        for line in &replay.records {
            if let LedgerLine::Done { job, outcome } = line {
                if let Some(tenant) = state.jobs.get(job).map(|j| j.tenant.clone()) {
                    let failed = matches!(
                        JobState::parse(outcome),
                        Some(JobState::Failed) | Some(JobState::Deadline)
                    );
                    let tq = state.tenant_mut(&tenant);
                    if failed {
                        tq.failures += 1;
                    } else {
                        tq.failures = 0;
                    }
                }
            }
        }
        let pending: Vec<u64> = state
            .jobs
            .values()
            .filter(|j| j.state.is_live())
            .map(|j| j.id)
            .collect();
        for id in pending {
            // Resume point: parse the journal's valid prefix, truncate
            // the torn tail the crash left behind.
            let (config, tenant) = {
                let rec = &state.jobs[&id];
                (rec.spec.config.clone(), rec.tenant.clone())
            };
            let text = storage.journal_load(id)?;
            let journal = parse_journal(&text, &config)
                .map_err(|e| format!("job {id} journal: {e}"))?;
            if journal.dropped_partial {
                storage.journal_truncate(id, journal.valid_bytes)?;
            }
            if let Some(rec) = state.jobs.get_mut(&id) {
                rec.journaled = journal.records.len() as u64;
                rec.clock = journal.records.last().map_or(0, |r| r.clock_end);
            }
            state.tenant_mut(&tenant).queue.push_back(id);
        }
        Ok(Scheduler {
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            cfg,
            factory,
            storage,
        })
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admit (or refuse) a job. Typed, never blocking: the caller can
    /// always answer the client immediately.
    pub fn submit(&self, tenant: &str, nonce: u64, spec_token: &str) -> Result<Admission, String> {
        let mut state = self.lock();
        if state.draining {
            return Ok(Admission::Draining);
        }
        if spec_token.len() > MAX_SPEC_LEN {
            return Ok(Admission::Rejected(RejectReason::PayloadTooLarge));
        }
        let spec = match JobSpec::parse(spec_token) {
            Ok(s) => s,
            Err(e) => return Ok(Admission::Malformed(e.to_string())),
        };
        let key = (tenant.to_string(), nonce);
        if let Some(&id) = state.by_nonce.get(&key) {
            // Duplicate submit (client retry): idempotent.
            return Ok(Admission::Accepted(id));
        }
        if state.tenant_mut(tenant).failures >= self.cfg.breaker_threshold {
            return Ok(Admission::Rejected(RejectReason::TenantBreakerOpen));
        }
        if state.live_of(tenant) >= self.cfg.tenant_quota {
            return Ok(Admission::Rejected(RejectReason::TenantOverQuota));
        }
        if state.live_total() >= self.cfg.queue_cap {
            return Ok(Admission::Rejected(RejectReason::QueueFull));
        }
        let id = state.next_id;
        state.next_id += 1;
        // Write-ahead: the ledger line lands before the client ever
        // sees ACCEPTED, so a crash cannot lose an acked job.
        self.storage.ledger_append(&wal::line(&LedgerLine::Submitted {
            job: id,
            tenant: tenant.to_string(),
            nonce,
            spec: spec_token.to_string(),
        })?)?;
        let total = spec.config.total_cells() as u64;
        state.by_nonce.insert(key, id);
        state.jobs.insert(
            id,
            JobRecord {
                id,
                tenant: tenant.to_string(),
                nonce,
                spec,
                spec_token: spec_token.to_string(),
                state: JobState::Queued,
                journaled: 0,
                total,
                clock: 0,
                cancel: false,
                report_json: None,
            },
        );
        state.tenant_mut(tenant).queue.push_back(id);
        self.work_ready.notify_one();
        Ok(Admission::Accepted(id))
    }

    /// One job's `(state, journaled, total)`, if it exists.
    pub fn status(&self, id: u64) -> Option<(JobState, u64, u64)> {
        let state = self.lock();
        state.jobs.get(&id).map(|j| (j.state, j.journaled, j.total))
    }

    /// Request cancellation. A queued job cancels immediately; a
    /// running one is flagged and finalised at its next slice
    /// boundary (its journal keeps the committed prefix). Returns the
    /// job's state after the request, or `None` for an unknown id.
    pub fn cancel(&self, id: u64) -> Result<Option<JobState>, String> {
        let mut state = self.lock();
        let Some(rec) = state.jobs.get_mut(&id) else {
            return Ok(None);
        };
        match rec.state {
            JobState::Queued => {
                rec.cancel = true;
                let tenant = rec.tenant.clone();
                state.tenant_mut(&tenant).queue.retain(|&q| q != id);
                self.finalize(&mut state, id, JobState::Cancelled)?;
                Ok(Some(JobState::Cancelled))
            }
            JobState::Running => {
                rec.cancel = true;
                Ok(Some(JobState::Running))
            }
            terminal => Ok(Some(terminal)),
        }
    }

    /// Fetch a finished job's rendered report. `Ok(None)` when the
    /// job exists but is not `Done` (the caller reports state
    /// instead); an unknown id is an error.
    pub fn results(&self, id: u64) -> Result<Option<String>, String> {
        let config = {
            let state = self.lock();
            let rec = state.jobs.get(&id).ok_or_else(|| format!("no such job {id}"))?;
            if rec.state != JobState::Done {
                return Ok(None);
            }
            if let Some(json) = &rec.report_json {
                return Ok(Some(json.clone()));
            }
            rec.spec.config.clone()
        };
        // Reconstruct from the journal (post-restart): replaying a
        // complete journal re-assembles the identical report without
        // executing a single cell.
        let text = self.storage.journal_load(id)?;
        let mut replay = parse_journal(&text, &config).map_err(|e| e.to_string())?;
        let runtime = (self.factory)(&config);
        let mut sink = MemoryJournal::new();
        let step = runtime.run_slice(&mut replay, &mut sink, 0)?;
        let json = step
            .report
            .map(|r| r.render_json())
            .ok_or_else(|| format!("job {id}: journal incomplete"))?;
        let mut state = self.lock();
        if let Some(rec) = state.jobs.get_mut(&id) {
            rec.report_json = Some(json.clone());
        }
        Ok(Some(json))
    }

    /// Queue depths by lifecycle bucket: `(queued, running, done)`.
    pub fn health(&self) -> (u64, u64, u64) {
        let state = self.lock();
        let mut queued = 0;
        let mut running = 0;
        let mut done = 0;
        for j in state.jobs.values() {
            match j.state {
                JobState::Queued => queued += 1,
                JobState::Running => running += 1,
                _ => done += 1,
            }
        }
        (queued, running, done)
    }

    /// Stop admitting; in-flight jobs run to completion (or their
    /// next checkpoint, if the process is killed — the ledger covers
    /// that). Returns the number of jobs still live.
    pub fn drain(&self) -> u64 {
        let mut state = self.lock();
        state.draining = true;
        let live = state.live_total() as u64;
        self.work_ready.notify_all();
        live
    }

    /// Block until no job is live (all queues empty, nothing running).
    pub fn wait_idle(&self) {
        let mut state = self.lock();
        while state.live_total() > 0 {
            state = self.idle.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stop the worker threads after their current slice.
    pub fn shutdown(&self) {
        let mut state = self.lock();
        state.shutdown = true;
        self.work_ready.notify_all();
    }

    /// Spawn the scheduler's worker threads.
    pub fn start_workers(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.cfg.workers.max(1))
            .map(|_| {
                let sched = Arc::clone(self);
                std::thread::spawn(move || sched.worker_loop())
            })
            .collect()
    }

    /// Finalize a job: drop its held replay, set its terminal state,
    /// update the tenant breaker, append the `Done` ledger line, wake
    /// idle waiters.
    fn finalize(
        &self,
        state: &mut SchedState,
        id: u64,
        terminal: JobState,
    ) -> Result<(), String> {
        state.replays.remove(&id);
        let tenant = {
            let Some(rec) = state.jobs.get_mut(&id) else {
                return Err(format!("finalize: no such job {id}"));
            };
            rec.state = terminal;
            rec.tenant.clone()
        };
        let failed = matches!(terminal, JobState::Failed | JobState::Deadline);
        let tq = state.tenant_mut(&tenant);
        if failed {
            tq.failures += 1;
        } else if terminal == JobState::Done {
            tq.failures = 0;
        }
        self.storage
            .ledger_append(&wal::line(&LedgerLine::Done { job: id, outcome: terminal.wire().to_string() })?)?;
        self.idle.notify_all();
        Ok(())
    }

    /// Pick the next `(job, slice budget)` by deficit round-robin.
    fn pick(&self, state: &mut SchedState) -> Option<(u64, u64)> {
        let n = state.ring.len();
        for step in 0..n {
            let idx = (state.cursor + step) % n;
            if state.ring[idx].queue.is_empty() {
                // An idle tenant banks no deficit.
                state.ring[idx].deficit = 0;
                continue;
            }
            let tq = &mut state.ring[idx];
            tq.deficit = tq.deficit.saturating_add(self.cfg.quantum);
            let budget = tq.deficit;
            let id = tq.queue.pop_front()?;
            state.cursor = (idx + 1) % n;
            return Some((id, budget));
        }
        None
    }

    fn worker_loop(&self) {
        while let Some(claim) = self.claim() {
            self.run_claim(claim);
        }
    }

    /// Block until a job is runnable, then claim its next slice by
    /// deficit round-robin. `None` once the scheduler shuts down.
    fn claim(&self) -> Option<Claim> {
        let mut state = self.lock();
        loop {
            if state.shutdown {
                return None;
            }
            if !state.has_runnable() {
                state = self.work_ready.wait(state).unwrap_or_else(|p| p.into_inner());
                continue;
            }
            let Some((id, budget)) = self.pick(&mut state) else {
                continue;
            };
            let Some(rec) = state.jobs.get_mut(&id) else {
                continue;
            };
            rec.state = JobState::Running;
            let (config, before) = (rec.spec.config.clone(), rec.journaled);
            state.running += 1;
            let replay = state.replays.remove(&id);
            return Some(Claim { id, budget, config, before, replay });
        }
    }

    /// Run one claimed slice, then finalize or requeue its job.
    fn run_claim(&self, claim: Claim) {
        let Claim { id, budget, config, before, replay } = claim;
        // Execute one slice outside the lock. catch_unwind is the
        // poison-job absorber: a spec whose execution panics takes
        // down its own job, never the scheduler worker.
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<_, String> {
            // The journal is read only when no copy is held: a fresh
            // job's first slice, or a recovered job's first.
            let mut replay = match replay {
                Some(replay) => replay,
                None => {
                    let text = self.storage.journal_load(id)?;
                    parse_journal(&text, &config).map_err(|e| e.to_string())?
                }
            };
            let mut sink = self.storage.journal_sink(id)?;
            let runtime = (self.factory)(&config);
            let step = runtime.run_slice(&mut replay, sink.as_mut(), budget)?;
            Ok((step, replay))
        }));

        let mut state = self.lock();
        state.running -= 1;
        let Ok(Ok((step, replay))) = outcome else {
            // A failed slice, or a poison job whose panic is absorbed
            // here: the job fails alone and its replay is dropped.
            let _ = self.finalize(&mut state, id, JobState::Failed);
            return;
        };
        let executed = step.journaled.saturating_sub(before);
        let (tenant, cancel, clock_limit) = {
            let Some(rec) = state.jobs.get_mut(&id) else {
                return;
            };
            rec.journaled = step.journaled;
            rec.total = step.total;
            rec.clock = step.clock;
            if let Some(report) = &step.report {
                rec.report_json = Some(report.render_json());
            }
            (rec.tenant.clone(), rec.cancel, rec.spec.clock_limit)
        };
        {
            let tq = state.tenant_mut(&tenant);
            tq.deficit = tq.deficit.saturating_sub(executed);
        }
        if cancel {
            let _ = self.finalize(&mut state, id, JobState::Cancelled);
        } else if step.report.is_some() {
            let _ = self.finalize(&mut state, id, JobState::Done);
        } else if clock_limit > 0 && step.clock >= clock_limit {
            // The job's virtual clock ran out between slices. The
            // journal keeps its committed prefix — byte-identical
            // to the uninterrupted run's prefix.
            let _ = self.finalize(&mut state, id, JobState::Deadline);
        } else {
            // More cells to go: back to the *front* of the tenant's
            // queue so the job stays contiguous, its replay held.
            if let Some(rec) = state.jobs.get_mut(&id) {
                rec.state = JobState::Queued;
            }
            state.replays.insert(id, replay);
            state.tenant_mut(&tenant).queue.push_front(id);
            self.work_ready.notify_one();
        }
    }
}

/// A slice a worker claimed under the lock.
struct Claim {
    id: u64,
    /// Cells the slice may execute (the tenant's DRR deficit).
    budget: u64,
    config: SweepConfig,
    /// Cells journaled before the slice.
    before: u64,
    /// The job's held replay; `None` reads the journal from storage.
    replay: Option<Replay>,
}

#[cfg(test)]
mod tests {
    //! The in-memory replay, stepped one slice at a time without
    //! worker threads: with `quantum: 1` every slice is one cell, so
    //! each job is held, handed back and re-held dozens of times.

    use super::*;
    use crate::storage::MemStorage;
    use netrepro_core::harness::JournalSink;
    use netrepro_core::validate::StaticGate;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `MemStorage` that counts journal reads per job.
    #[derive(Clone, Default)]
    struct CountingStorage {
        inner: MemStorage,
        loads: Arc<Mutex<BTreeMap<u64, usize>>>,
    }

    impl CountingStorage {
        fn loads(&self, job: u64) -> usize {
            self.loads.lock().expect("loads").get(&job).copied().unwrap_or(0)
        }
    }

    impl JobStorage for CountingStorage {
        fn ledger_load(&self) -> Result<String, String> {
            self.inner.ledger_load()
        }
        fn ledger_truncate(&self, valid_bytes: u64) -> Result<(), String> {
            self.inner.ledger_truncate(valid_bytes)
        }
        fn ledger_append(&self, line: &str) -> Result<(), String> {
            self.inner.ledger_append(line)
        }
        fn journal_load(&self, job: u64) -> Result<String, String> {
            *self.loads.lock().expect("loads").entry(job).or_insert(0) += 1;
            self.inner.journal_load(job)
        }
        fn journal_truncate(&self, job: u64, valid_bytes: u64) -> Result<(), String> {
            self.inner.journal_truncate(job, valid_bytes)
        }
        fn journal_sink(&self, job: u64) -> Result<Box<dyn JournalSink + Send>, String> {
            self.inner.journal_sink(job)
        }
    }

    const CFG: SchedConfig = SchedConfig {
        workers: 1,
        queue_cap: 16,
        tenant_quota: 4,
        breaker_threshold: 3,
        quantum: 1,
    };
    /// 8, 16, 24 and 48 cells.
    const JOB_8: &str = "systems=rps;styles=mono;profiles=none+light;seeds=4";
    const JOB_16: &str = "systems=rps+ap;styles=mono+text;profiles=none;seeds=4";
    const JOB_24: &str = "systems=rps+ap;styles=mono+text;profiles=none+light;seeds=3";
    const JOB_48: &str = "systems=rps+ap+apkeep;styles=mono+text;profiles=none+light;seeds=4";
    /// The poison factory panics inside the gate of a job whose spec
    /// carries this deadline, once the gate has passed `POISON_AFTER`
    /// cells.
    const POISON_DEADLINE: u64 = 424_242;
    const POISON_AFTER: usize = 3;
    const POISON_SPEC: &str = "systems=rps;styles=mono;profiles=none;seeds=8;deadline=424242";

    fn plain() -> RuntimeFactory {
        Arc::new(|cfg: &SweepConfig| Sweep::new(cfg.clone()))
    }

    fn poison() -> RuntimeFactory {
        let calls = Arc::new(AtomicUsize::new(0));
        Arc::new(move |cfg: &SweepConfig| {
            let sweep = Sweep::new(cfg.clone());
            if cfg.limits.deadline_steps != POISON_DEADLINE {
                return sweep;
            }
            let calls = Arc::clone(&calls);
            sweep.with_gate(Box::new(move |_, _| {
                if calls.fetch_add(1, Ordering::SeqCst) == POISON_AFTER {
                    panic!("poison job");
                }
                StaticGate::clean()
            }))
        })
    }

    /// Journal text and rendered report of a one-shot `Sweep::run`.
    fn one_shot(spec: &str) -> (String, String) {
        let config = JobSpec::parse(spec).expect("spec").config;
        let mut sink = MemoryJournal::new();
        let report = Sweep::new(config).run(&mut sink).expect("one-shot run");
        (sink.text().to_string(), report.render_json())
    }

    fn recover(storage: &CountingStorage, factory: RuntimeFactory) -> Scheduler {
        Scheduler::recover(CFG, factory, Arc::new(storage.clone())).expect("recover")
    }

    fn submit(sched: &Scheduler, tenant: &str, spec: &str) -> u64 {
        let nonce = sched.lock().next_id;
        match sched.submit(tenant, nonce, spec).expect("submit") {
            Admission::Accepted(id) => id,
            other => panic!("{other:?}"),
        }
    }

    /// Claim and run one slice, as a worker would.
    fn step(sched: &Scheduler) {
        let claim = sched.claim().expect("a runnable job");
        sched.run_claim(claim);
    }

    fn run_to_idle(sched: &Scheduler) {
        while sched.lock().has_runnable() {
            step(sched);
        }
    }

    fn held(sched: &Scheduler, id: u64) -> bool {
        sched.lock().replays.contains_key(&id)
    }

    fn assert_done_like_one_shot(sched: &Scheduler, storage: &CountingStorage, id: u64, spec: &str) {
        let (journal, report) = one_shot(spec);
        assert_eq!(sched.status(id).expect("status").0, JobState::Done, "job {id}");
        assert_eq!(storage.inner.journal_text(id), journal, "job {id} journal");
        assert_eq!(sched.results(id).expect("results"), Some(report), "job {id} report");
        assert!(!held(sched, id), "job {id} replay outlived the job");
    }

    #[test]
    fn a_job_reads_its_journal_once_and_cancel_drops_the_held_replay() {
        let storage = CountingStorage::default();
        let sched = recover(&storage, plain());
        let big = submit(&sched, "alice", JOB_48);
        let small = submit(&sched, "bob", JOB_16);
        let after = submit(&sched, "alice", JOB_8);
        for _ in 0..10 {
            step(&sched);
        }
        // DRR alternates the tenants one cell at a time: each job is
        // queued between slices with its replay held, never re-read.
        assert_eq!(sched.status(big).expect("status"), (JobState::Queued, 5, 48));
        assert_eq!(sched.status(small).expect("status"), (JobState::Queued, 5, 16));
        assert!(held(&sched, big) && held(&sched, small));
        assert_eq!(sched.lock().replays[&big].records.len(), 5);
        assert_eq!(sched.cancel(big).expect("cancel"), Some(JobState::Cancelled));
        assert!(!held(&sched, big), "a cancelled job's replay must be dropped");
        let (full, _) = one_shot(JOB_48);
        let cut = storage.inner.journal_text(big);
        assert_eq!(cut.lines().count(), 6);
        assert!(full.starts_with(&cut), "a cancelled journal is a prefix of the one-shot run");
        run_to_idle(&sched);
        assert_done_like_one_shot(&sched, &storage, small, JOB_16);
        assert_done_like_one_shot(&sched, &storage, after, JOB_8);
        assert!(sched.lock().replays.is_empty());
        // A fresh job's first slice reads its (empty) journal; every
        // later slice runs from the held copy.
        for id in [big, small, after] {
            assert_eq!(storage.loads(id), 1, "job {id}");
        }
    }

    #[test]
    fn a_poison_job_failing_mid_run_drops_its_replay_and_spares_the_other_tenant() {
        let storage = CountingStorage::default();
        let sched = recover(&storage, poison());
        let bad = submit(&sched, "mallory", POISON_SPEC);
        let good = submit(&sched, "alice", JOB_24);
        run_to_idle(&sched);
        assert_eq!(sched.status(bad).expect("status"), (JobState::Failed, 3, 8));
        assert!(!held(&sched, bad), "a failed job's replay must be dropped");
        let (full, _) = one_shot(POISON_SPEC);
        let cut = storage.inner.journal_text(bad);
        assert_eq!(cut.lines().count(), 1 + POISON_AFTER);
        assert!(full.starts_with(&cut), "a failed journal is a prefix of the one-shot run");
        assert_done_like_one_shot(&sched, &storage, good, JOB_24);
        assert!(sched.lock().replays.is_empty());
    }

    #[test]
    fn after_recover_the_first_slice_reads_the_journal_and_the_rest_do_not() {
        let storage = CountingStorage::default();
        let sched = recover(&storage, plain());
        let a = submit(&sched, "alice", JOB_24);
        let b = submit(&sched, "bob", JOB_8);
        for _ in 0..10 {
            step(&sched);
        }
        assert!(held(&sched, a) && held(&sched, b));
        drop(sched);
        // The crash also tore the last record of `a`'s journal.
        storage.inner.tear_journal(a, 7);
        let revived = recover(&storage, plain());
        // Recovery parses each pending journal once to truncate it,
        // but holds no replay: the first slice after it loads again.
        assert!(revived.lock().replays.is_empty());
        assert_eq!((storage.loads(a), storage.loads(b)), (2, 2));
        step(&revived);
        assert_eq!((storage.loads(a), storage.loads(b)), (3, 2));
        assert_eq!(revived.status(a).expect("status"), (JobState::Queued, 5, 24));
        run_to_idle(&revived);
        assert_eq!((storage.loads(a), storage.loads(b)), (3, 3));
        assert_done_like_one_shot(&revived, &storage, a, JOB_24);
        assert_done_like_one_shot(&revived, &storage, b, JOB_8);
    }
}
