//! `netrepro serve`: a crash-tolerant, multi-tenant daemon that runs
//! sweep jobs submitted over the wire.
//!
//! The paper's reproduction matrix is normally driven by the one-shot
//! CLI (`netrepro sweep`). This crate wraps the same harness in a
//! persistent service so several tenants can share one warm process —
//! and makes the robustness properties explicit:
//!
//! * **Typed backpressure** — admission never hangs; every refusal is
//!   a [`RejectReason`](netrepro_rps::RejectReason) the client can act
//!   on (`queue-full`, `payload-too-large`, `tenant-over-quota`,
//!   `tenant-breaker-open`).
//! * **Fairness** — tenants share the workers by deficit round-robin
//!   ([`sched`]); a tenant with a huge matrix cannot starve one with a
//!   small one.
//! * **Deadlines & cancellation** — per-job virtual-clock budgets and
//!   `CANCEL`, both enforced at slice boundaries so they never tear a
//!   journal.
//! * **Crash tolerance** — a write-ahead ledger ([`ledger`]) plus
//!   per-job journals ([`storage`]) let a SIGKILL'd daemon restart and
//!   finish every acked job **byte-identically**.
//!
//! The determinism contract, inherited from the harness: a job's
//! journal and report are byte-identical to running the same spec via
//! the one-shot CLI, regardless of arrival order, concurrency, tenant
//! mix, memoization, or a mid-job crash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod ledger;
pub mod sched;
pub mod spec;
pub mod storage;

pub use daemon::{Daemon, JobClient, DEFAULT_READ_TIMEOUT};
pub use ledger::{parse_ledger, LedgerHeader, LedgerLine, LEDGER_VERSION};
pub use sched::{Admission, JobRecord, RuntimeFactory, SchedConfig, Scheduler};
pub use spec::{JobSpec, SpecError, MAX_SPEC_LEN};
pub use storage::{FileStorage, JobStorage, MemStorage};
