//! The job-service verbs: the line protocol spoken by `netrepro serve`.
//!
//! The serve daemon reuses this crate's transport discipline — typed
//! [`ProtocolError`](crate::ProtocolError)s, hard frame caps, read
//! timeouts — and extends the line protocol with job verbs:
//!
//! ```text
//! client -> server:  SUBMIT <tenant> <nonce> <spec>   enqueue a sweep job
//!                    STATUS <id>                      query one job
//!                    CANCEL <id>                      cancel a queued/running job
//!                    RESULTS <id>                     fetch a finished job's report
//!                    HEALTH                           daemon liveness + queue depths
//!                    DRAIN                            stop admitting, finish in flight
//! server -> client:  ACCEPTED <id>
//!                    REJECTED <reason>
//!                    STATE <id> <state> <journaled> <total>
//!                    RESULTS <id> <len>   (followed by <len> raw bytes)
//!                    HEALTH <queued> <running> <done>
//!                    DRAINING <in-flight>
//!                    ERR <reason>
//! ```
//!
//! `<tenant>` and `<spec>` are single whitespace-free tokens; the spec
//! is opaque to this crate (the serve crate defines its grammar). The
//! `<nonce>` makes submission idempotent: a client that retries a
//! `SUBMIT` whose `ACCEPTED` reply was lost gets the *same* job id
//! back instead of enqueueing the job twice.

use crate::protocol::no_space;

/// Why the daemon refused to admit a job. Every rejection is typed so
/// clients can distinguish "back off and retry" (queue full) from
/// "don't bother" (payload too large) from "this tenant specifically
/// is being shed" (quota, breaker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue is at capacity.
    QueueFull,
    /// The submitted spec exceeded the frame or spec-length cap.
    PayloadTooLarge,
    /// The tenant already has its maximum number of live jobs.
    TenantOverQuota,
    /// The tenant's circuit breaker is open after consecutive
    /// failed jobs.
    TenantBreakerOpen,
}

impl RejectReason {
    /// Wire encoding.
    pub fn wire(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::PayloadTooLarge => "payload-too-large",
            RejectReason::TenantOverQuota => "tenant-over-quota",
            RejectReason::TenantBreakerOpen => "tenant-breaker-open",
        }
    }

    /// Parse the wire encoding.
    pub fn parse(s: &str) -> Option<RejectReason> {
        match s {
            "queue-full" => Some(RejectReason::QueueFull),
            "payload-too-large" => Some(RejectReason::PayloadTooLarge),
            "tenant-over-quota" => Some(RejectReason::TenantOverQuota),
            "tenant-breaker-open" => Some(RejectReason::TenantBreakerOpen),
            _ => None,
        }
    }
}

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a scheduler slot.
    Queued,
    /// A scheduler worker is executing slices of it.
    Running,
    /// Every cell journaled; results available.
    Done,
    /// The job's execution failed (e.g. a poison job that panicked).
    Failed,
    /// Cancelled by the client before completion.
    Cancelled,
    /// The job's virtual-clock deadline expired mid-run.
    Deadline,
}

impl JobState {
    /// Wire encoding.
    pub fn wire(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Deadline => "deadline",
        }
    }

    /// Parse the wire encoding.
    pub fn parse(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            "deadline" => Some(JobState::Deadline),
            _ => None,
        }
    }

    /// Whether the job can still change state.
    pub fn is_live(self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }
}

/// A parsed job-service request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobRequest {
    /// Enqueue a job for `tenant` with an idempotency `nonce` and an
    /// opaque single-token `spec`.
    Submit {
        /// Tenant identity (single token; the fairness/quota key).
        tenant: String,
        /// Client-chosen idempotency nonce: a retried `SUBMIT` with
        /// the same `(tenant, nonce)` returns the original job id.
        nonce: u64,
        /// Opaque job spec token (the serve crate parses it).
        spec: String,
    },
    /// Query a job's state.
    Status(u64),
    /// Cancel a queued or running job.
    Cancel(u64),
    /// Fetch a finished job's report.
    Results(u64),
    /// Daemon liveness and queue depths.
    Health,
    /// Graceful drain: stop admitting, finish or checkpoint in-flight
    /// jobs, flush the ledger.
    Drain,
}

impl JobRequest {
    /// Parse one request line.
    pub fn parse(line: &str) -> Option<JobRequest> {
        let mut parts = line.split_whitespace();
        let req = match parts.next()? {
            "SUBMIT" => JobRequest::Submit {
                tenant: parts.next()?.to_string(),
                nonce: parts.next()?.parse().ok()?,
                spec: parts.next()?.to_string(),
            },
            "STATUS" => JobRequest::Status(parts.next()?.parse().ok()?),
            "CANCEL" => JobRequest::Cancel(parts.next()?.parse().ok()?),
            "RESULTS" => JobRequest::Results(parts.next()?.parse().ok()?),
            "HEALTH" => JobRequest::Health,
            "DRAIN" => JobRequest::Drain,
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(req)
    }

    /// Wire encoding (with trailing newline). Returns `None` when the
    /// tenant or spec contains whitespace (unencodable as one token).
    pub fn wire(&self) -> Option<String> {
        Some(match self {
            JobRequest::Submit { tenant, nonce, spec } => {
                format!("SUBMIT {} {} {}\n", no_space(tenant)?, nonce, no_space(spec)?)
            }
            JobRequest::Status(id) => format!("STATUS {id}\n"),
            JobRequest::Cancel(id) => format!("CANCEL {id}\n"),
            JobRequest::Results(id) => format!("RESULTS {id}\n"),
            JobRequest::Health => "HEALTH\n".to_string(),
            JobRequest::Drain => "DRAIN\n".to_string(),
        })
    }
}

/// A parsed job-service response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobResponse {
    /// The job was admitted under this id.
    Accepted(u64),
    /// The job was refused; the reason is always typed.
    Rejected(RejectReason),
    /// One job's lifecycle state and journal progress.
    State {
        /// Job id.
        id: u64,
        /// Lifecycle state.
        state: JobState,
        /// Cells committed to the job's journal so far.
        journaled: u64,
        /// Matrix size.
        total: u64,
    },
    /// Header for a results payload: `len` raw bytes follow the
    /// newline (the payload is *not* line-framed — read exactly `len`).
    ResultsHeader {
        /// Job id.
        id: u64,
        /// Payload length in bytes.
        len: u64,
    },
    /// Daemon liveness: queue depths by lifecycle bucket.
    Health {
        /// Jobs admitted but not yet running.
        queued: u64,
        /// Jobs currently executing.
        running: u64,
        /// Jobs in a terminal state.
        done: u64,
    },
    /// Drain acknowledged; this many jobs are still in flight.
    Draining(u64),
    /// Protocol or lookup error.
    Err(String),
}

impl JobResponse {
    /// Parse one response line.
    pub fn parse(line: &str) -> Option<JobResponse> {
        let mut parts = line.split_whitespace();
        let resp = match parts.next()? {
            "ACCEPTED" => JobResponse::Accepted(parts.next()?.parse().ok()?),
            "REJECTED" => JobResponse::Rejected(RejectReason::parse(parts.next()?)?),
            "STATE" => JobResponse::State {
                id: parts.next()?.parse().ok()?,
                state: JobState::parse(parts.next()?)?,
                journaled: parts.next()?.parse().ok()?,
                total: parts.next()?.parse().ok()?,
            },
            "RESULTS" => JobResponse::ResultsHeader {
                id: parts.next()?.parse().ok()?,
                len: parts.next()?.parse().ok()?,
            },
            "HEALTH" => JobResponse::Health {
                queued: parts.next()?.parse().ok()?,
                running: parts.next()?.parse().ok()?,
                done: parts.next()?.parse().ok()?,
            },
            "DRAINING" => JobResponse::Draining(parts.next()?.parse().ok()?),
            "ERR" => return Some(JobResponse::Err(parts.collect::<Vec<_>>().join(" "))),
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(resp)
    }

    /// Wire encoding (with trailing newline).
    pub fn wire(&self) -> String {
        match self {
            JobResponse::Accepted(id) => format!("ACCEPTED {id}\n"),
            JobResponse::Rejected(r) => format!("REJECTED {}\n", r.wire()),
            JobResponse::State { id, state, journaled, total } => {
                format!("STATE {} {} {} {}\n", id, state.wire(), journaled, total)
            }
            JobResponse::ResultsHeader { id, len } => format!("RESULTS {id} {len}\n"),
            JobResponse::Health { queued, running, done } => {
                format!("HEALTH {queued} {running} {done}\n")
            }
            JobResponse::Draining(n) => format!("DRAINING {n}\n"),
            JobResponse::Err(e) => format!("ERR {e}\n"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let reqs = [
            JobRequest::Submit {
                tenant: "alice".to_string(),
                nonce: 7,
                spec: "systems=ncflow;seeds=2".to_string(),
            },
            JobRequest::Status(3),
            JobRequest::Cancel(9),
            JobRequest::Results(12),
            JobRequest::Health,
            JobRequest::Drain,
        ];
        for r in reqs {
            let wire = r.wire().expect("encodable");
            assert!(wire.ends_with('\n'));
            assert_eq!(JobRequest::parse(&wire), Some(r));
        }
    }

    #[test]
    fn response_round_trip() {
        let resps = [
            JobResponse::Accepted(4),
            JobResponse::Rejected(RejectReason::QueueFull),
            JobResponse::Rejected(RejectReason::TenantBreakerOpen),
            JobResponse::State { id: 4, state: JobState::Running, journaled: 9, total: 24 },
            JobResponse::ResultsHeader { id: 4, len: 1024 },
            JobResponse::Health { queued: 1, running: 2, done: 3 },
            JobResponse::Draining(2),
            JobResponse::Err("no such job".to_string()),
        ];
        for r in resps {
            assert_eq!(JobResponse::parse(&r.wire()), Some(r.clone()));
        }
    }

    #[test]
    fn all_reject_reasons_round_trip() {
        for r in [
            RejectReason::QueueFull,
            RejectReason::PayloadTooLarge,
            RejectReason::TenantOverQuota,
            RejectReason::TenantBreakerOpen,
        ] {
            assert_eq!(RejectReason::parse(r.wire()), Some(r));
        }
        assert_eq!(RejectReason::parse("because"), None);
    }

    #[test]
    fn all_job_states_round_trip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
            JobState::Deadline,
        ] {
            assert_eq!(JobState::parse(s.wire()), Some(s));
        }
        assert!(JobState::Queued.is_live());
        assert!(JobState::Running.is_live());
        assert!(!JobState::Done.is_live());
        assert!(!JobState::Cancelled.is_live());
    }

    #[test]
    fn trailing_junk_is_rejected() {
        assert_eq!(JobRequest::parse("STATUS 3 extra"), None);
        assert_eq!(JobRequest::parse("HEALTH now"), None);
        assert_eq!(JobResponse::parse("ACCEPTED 3 4"), None);
    }

    #[test]
    fn spec_with_whitespace_is_unencodable() {
        let r = JobRequest::Submit {
            tenant: "a b".to_string(),
            nonce: 0,
            spec: "x".to_string(),
        };
        assert_eq!(r.wire(), None);
        let r = JobRequest::Submit {
            tenant: "a".to_string(),
            nonce: 0,
            spec: "x y".to_string(),
        };
        assert_eq!(r.wire(), None);
    }

    #[test]
    fn malformed_lines_do_not_parse() {
        for line in ["SUBMIT alice", "SUBMIT alice x spec", "STATUS", "JUMP 3", ""] {
            assert_eq!(JobRequest::parse(line), None, "{line:?}");
        }
        for line in ["STATE 1 flying 0 0", "REJECTED because", "HEALTH 1 2"] {
            assert_eq!(JobResponse::parse(line), None, "{line:?}");
        }
    }
}
