//! The TCP face of the daemon: accept loop, per-connection handler,
//! and the [`JobClient`] the CLI and tests use to speak the job
//! protocol.
//!
//! All socket I/O lives here, behind the same transport discipline the
//! `rps` crate established: hard frame caps ([`MAX_JOB_FRAME`]), a
//! per-connection read deadline (the slow-loris absorber), and typed
//! errors. A connection that trickles, tears a frame, or disconnects
//! mid-request takes down only itself — job state lives in the
//! [`Scheduler`] and its write-ahead ledger, never in a connection.

use crate::sched::{Admission, Scheduler};
use netrepro_rps::{read_job_frame, JobRequest, JobResponse, ProtocolError};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Default per-connection read deadline. A client that cannot finish a
/// frame within this window is reaped (slow-loris absorption); the cap
/// also bounds how long a drain can wait on an idle connection.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// The daemon's listening face.
pub struct Daemon {
    listener: TcpListener,
    sched: Arc<Scheduler>,
    read_timeout: Duration,
}

impl Daemon {
    /// Bind to `addr` and serve `sched`.
    // effect-allow(Io): binding the listening socket is the daemon
    // boundary's explicit job.
    pub fn bind(addr: impl ToSocketAddrs, sched: Arc<Scheduler>) -> Result<Daemon, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind: {e}"))?;
        Ok(Daemon { listener, sched, read_timeout: DEFAULT_READ_TIMEOUT })
    }

    /// Override the per-connection read deadline (tests use a short
    /// one to exercise slow-loris reaping quickly).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Daemon {
        self.read_timeout = timeout;
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, String> {
        self.listener.local_addr().map_err(|e| format!("local_addr: {e}"))
    }

    /// Serve forever. Each accepted connection gets its own detached
    /// handler thread; a connection failure never stops the accept
    /// loop. Only process death (SIGKILL, or SIGTERM — the binary
    /// forbids unsafe code, so there is no signal handler) ends this;
    /// the write-ahead ledger makes that safe.
    // effect-allow(Io): the accept loop at the daemon boundary.
    pub fn serve_forever(&self) -> Result<(), String> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let sched = Arc::clone(&self.sched);
                    let timeout = self.read_timeout;
                    std::thread::spawn(move || handle_connection(&sched, stream, timeout));
                }
                Err(e) => return Err(format!("accept: {e}")),
            }
        }
    }

    /// Serve exactly `n` connections, each on its own scoped thread
    /// (so a wedged connection cannot starve the others). Test entry
    /// point.
    // effect-allow(Io): the bounded accept loop at the daemon boundary.
    pub fn serve_connections(&self, n: usize) -> Result<(), String> {
        std::thread::scope(|scope| {
            for _ in 0..n {
                let (stream, _) = self.listener.accept().map_err(|e| format!("accept: {e}"))?;
                let sched = Arc::clone(&self.sched);
                let timeout = self.read_timeout;
                scope.spawn(move || handle_connection(&sched, stream, timeout));
            }
            Ok(())
        })
    }
}

/// Drive one connection until EOF, a read deadline, or a transport
/// error. Every exit path is absorption: the connection dies, the
/// daemon does not.
///
/// One reply, one write: a reply sent in two writes (say a `RESULTS`
/// header, then its payload) leaves the second behind Nagle's
/// algorithm until the client acknowledges the first, and a client
/// with nothing to send delays that ACK by ~40 ms. `TCP_NODELAY` is
/// set as well, so a later multi-write reply cannot bring the stall
/// back.
// effect-allow(Io): per-connection socket reads/writes at the daemon
// boundary.
fn handle_connection(sched: &Scheduler, stream: TcpStream, timeout: Duration) {
    if stream.set_read_timeout(Some(timeout)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_job_frame(&mut reader) {
            Ok(Some(line)) => line,
            // Clean EOF, torn frame, oversize frame, or the read
            // deadline: drop the connection, keep the daemon.
            Ok(None) | Err(_) => return,
        };
        let reply = match JobRequest::parse(&line) {
            Some(request) => dispatch(sched, &request),
            None => JobResponse::Err("malformed request".into()).wire(),
        };
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
    }
}

/// Map one request to the bytes of its reply: the response line, plus
/// for `RESULTS` the raw payload that follows the header line.
fn dispatch(sched: &Scheduler, request: &JobRequest) -> String {
    let response = match request {
        JobRequest::Submit { tenant, nonce, spec } => match sched.submit(tenant, *nonce, spec) {
            Ok(Admission::Accepted(id)) => JobResponse::Accepted(id),
            Ok(Admission::Rejected(reason)) => JobResponse::Rejected(reason),
            Ok(Admission::Malformed(e)) => JobResponse::Err(e),
            Ok(Admission::Draining) => JobResponse::Err("draining".into()),
            Err(e) => JobResponse::Err(e),
        },
        JobRequest::Status(id) => status_response(sched, *id),
        JobRequest::Cancel(id) => match sched.cancel(*id) {
            Ok(Some(_)) => status_response(sched, *id),
            Ok(None) => JobResponse::Err(format!("no such job {id}")),
            Err(e) => JobResponse::Err(e),
        },
        JobRequest::Results(id) => match sched.results(*id) {
            Ok(Some(json)) => {
                let mut reply =
                    JobResponse::ResultsHeader { id: *id, len: json.len() as u64 }.wire();
                reply.push_str(&json);
                return reply;
            }
            // The job exists but is not done yet: report where it is.
            Ok(None) => status_response(sched, *id),
            Err(e) => JobResponse::Err(e),
        },
        JobRequest::Health => {
            let (queued, running, done) = sched.health();
            JobResponse::Health { queued, running, done }
        }
        JobRequest::Drain => JobResponse::Draining(sched.drain()),
    };
    response.wire()
}

fn status_response(sched: &Scheduler, id: u64) -> JobResponse {
    match sched.status(id) {
        Some((state, journaled, total)) => JobResponse::State { id, state, journaled, total },
        None => JobResponse::Err(format!("no such job {id}")),
    }
}

// ------------------------------------------------------------- client

/// A blocking client for the job protocol: one connection, one
/// request/response exchange per call.
pub struct JobClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl JobClient {
    /// Connect to a daemon. `TCP_NODELAY` is set, as on the daemon's
    /// side, so no request waits on Nagle's algorithm.
    // effect-allow(Io): the client's connecting socket.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<JobClient, ProtocolError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(JobClient { writer, reader: BufReader::new(stream) })
    }

    /// Send one request, read one response line.
    // effect-allow(Io): the client's request/response exchange.
    pub fn request(&mut self, request: &JobRequest) -> Result<JobResponse, ProtocolError> {
        let wire = request
            .wire()
            .ok_or_else(|| ProtocolError::Malformed("request not wire-encodable".into()))?;
        self.writer.write_all(wire.as_bytes())?;
        self.writer.flush()?;
        let line = read_job_frame(&mut self.reader)?
            .ok_or_else(|| ProtocolError::Malformed("connection closed".into()))?;
        JobResponse::parse(&line)
            .ok_or_else(|| ProtocolError::Malformed(format!("bad response {line:?}")))
    }

    /// Submit a job.
    pub fn submit(
        &mut self,
        tenant: &str,
        nonce: u64,
        spec: &str,
    ) -> Result<JobResponse, ProtocolError> {
        self.request(&JobRequest::Submit {
            tenant: tenant.to_string(),
            nonce,
            spec: spec.to_string(),
        })
    }

    /// Query a job's state.
    pub fn status(&mut self, id: u64) -> Result<JobResponse, ProtocolError> {
        self.request(&JobRequest::Status(id))
    }

    /// Cancel a job.
    pub fn cancel(&mut self, id: u64) -> Result<JobResponse, ProtocolError> {
        self.request(&JobRequest::Cancel(id))
    }

    /// Queue depths.
    pub fn health(&mut self) -> Result<JobResponse, ProtocolError> {
        self.request(&JobRequest::Health)
    }

    /// Start a graceful drain.
    pub fn drain(&mut self) -> Result<JobResponse, ProtocolError> {
        self.request(&JobRequest::Drain)
    }

    /// Fetch a finished job's report payload. `Ok(Err(response))`
    /// surfaces a non-payload reply (job not done, unknown id) without
    /// conflating it with transport failure.
    // effect-allow(Io): the client's length-prefixed payload read.
    pub fn results(&mut self, id: u64) -> Result<Result<String, JobResponse>, ProtocolError> {
        match self.request(&JobRequest::Results(id))? {
            JobResponse::ResultsHeader { len, .. } => {
                let mut buf = vec![0u8; len as usize];
                self.reader.read_exact(&mut buf)?;
                String::from_utf8(buf)
                    .map(Ok)
                    .map_err(|_| ProtocolError::Malformed("results payload not utf-8".into()))
            }
            other => Ok(Err(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedConfig;
    use crate::storage::MemStorage;
    use netrepro_core::harness::{parse_journal, MemoryJournal, Sweep, SweepConfig};
    use netrepro_rps::{JobState, RejectReason};
    use std::net::SocketAddr;

    const SMALL: &str = "systems=rps;styles=mono;profiles=none;seeds=1";
    const POISON_DEADLINE: u64 = 424_242;
    const POISON_SPEC: &str = "systems=rps;styles=mono;profiles=none;seeds=1;deadline=424242";

    /// Plain factory, except specs carrying the poison marker panic.
    fn factory() -> crate::sched::RuntimeFactory {
        Arc::new(|cfg: &SweepConfig| {
            let sweep = Sweep::new(cfg.clone());
            if cfg.limits.deadline_steps == POISON_DEADLINE {
                sweep.with_gate(Box::new(|_, _| panic!("poison job")))
            } else {
                sweep
            }
        })
    }

    /// Daemon over fresh MemStorage, serving forever on a leaked
    /// thread (no signals in a forbid(unsafe_code) build; the thread
    /// dies with the test process).
    fn start_daemon(cfg: SchedConfig, timeout: Duration) -> (SocketAddr, MemStorage, Arc<Scheduler>) {
        let storage = MemStorage::new();
        let sched = Arc::new(
            Scheduler::recover(cfg, factory(), Arc::new(storage.clone())).expect("recover"),
        );
        let _workers = sched.start_workers();
        let daemon =
            Daemon::bind("127.0.0.1:0", Arc::clone(&sched)).expect("bind").with_read_timeout(timeout);
        let addr = daemon.local_addr().expect("addr");
        std::thread::spawn(move || daemon.serve_forever());
        (addr, storage, sched)
    }

    fn wait_terminal(client: &mut JobClient, id: u64) -> JobState {
        for _ in 0..1000 {
            if let JobResponse::State { state, .. } = client.status(id).expect("status") {
                if !state.is_live() {
                    return state;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("job {id} never reached a terminal state");
    }

    #[test]
    fn submit_status_results_round_trip_matches_one_shot_run() {
        let (addr, storage, _sched) =
            start_daemon(SchedConfig::default(), Duration::from_secs(5));
        let mut client = JobClient::connect(addr).expect("connect");
        let JobResponse::Accepted(id) = client.submit("alice", 1, SMALL).expect("submit") else {
            panic!("submit refused");
        };
        assert_eq!(wait_terminal(&mut client, id), JobState::Done);

        // One-shot baseline with the identical config.
        let config = crate::spec::JobSpec::parse(SMALL).expect("spec").config;
        let mut replay = parse_journal("", &config).expect("replay");
        let mut sink = MemoryJournal::new();
        let step = Sweep::new(config.clone())
            .run_slice(&mut replay, &mut sink, u64::MAX)
            .expect("direct run");
        assert_eq!(storage.journal_text(id), sink.text(), "daemon journal differs");
        let payload = client.results(id).expect("results").expect("payload");
        assert_eq!(payload, step.report.expect("report").render_json());
        // HEALTH sees the terminal job.
        let JobResponse::Health { done, .. } = client.health().expect("health") else {
            panic!("bad health reply");
        };
        assert!(done >= 1);
    }

    /// A `RESULTS` reply written as a header and a payload in two
    /// writes stalls ≥ 40 ms on the client's delayed ACK; one write
    /// takes well under a millisecond on loopback.
    #[test]
    fn results_round_trip_does_not_stall_on_delayed_ack() {
        let (addr, _storage, _sched) = start_daemon(SchedConfig::default(), Duration::from_secs(5));
        let mut client = JobClient::connect(addr).expect("connect");
        let JobResponse::Accepted(id) = client.submit("alice", 1, SMALL).expect("submit") else {
            panic!("submit refused");
        };
        assert_eq!(wait_terminal(&mut client, id), JobState::Done);
        let config = crate::spec::JobSpec::parse(SMALL).expect("spec").config;
        let expected = Sweep::new(config)
            .run(&mut MemoryJournal::new())
            .expect("one-shot run")
            .render_json();
        let mut times = Vec::new();
        for _ in 0..20 {
            let started = std::time::Instant::now();
            let payload = client.results(id).expect("results").expect("payload");
            times.push(started.elapsed());
            assert_eq!(payload, expected);
        }
        times.sort();
        let median = times[times.len() / 2];
        assert!(median < Duration::from_millis(20), "RESULTS median {median:?}");
    }

    #[test]
    fn drain_refuses_new_work_and_finishes_in_flight() {
        let (addr, _storage, sched) = start_daemon(SchedConfig::default(), Duration::from_secs(5));
        let mut client = JobClient::connect(addr).expect("connect");
        let JobResponse::Accepted(id) = client.submit("alice", 1, SMALL).expect("submit") else {
            panic!("submit refused");
        };
        assert!(matches!(client.drain().expect("drain"), JobResponse::Draining(_)));
        assert!(matches!(
            client.submit("bob", 1, SMALL).expect("submit during drain"),
            JobResponse::Err(_)
        ));
        sched.wait_idle();
        assert_eq!(wait_terminal(&mut client, id), JobState::Done);
    }

    /// Hostile and broken clients, each driven twice, are absorbed:
    /// a slow-loris and a mid-frame disconnect are reaped by the read
    /// deadline, a duplicate submit deduplicates by nonce, a poison job
    /// fails alone. After each one the daemon still answers HEALTH.
    #[test]
    fn hostile_clients_are_absorbed() {
        let cfg = SchedConfig {
            queue_cap: 64,
            tenant_quota: 64,
            breaker_threshold: 1000,
            ..SchedConfig::default()
        };
        let (addr, _storage, _sched) = start_daemon(cfg, Duration::from_millis(150));
        let slow_loris = |_round: u64| {
            // Half a frame, then silence: the read deadline must reap
            // the connection.
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"SUBM").expect("trickle");
            let mut buf = [0u8; 8];
            s.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
            let reaped = match s.read(&mut buf) {
                Ok(0) => true,         // daemon closed us
                Ok(_) => false,        // daemon answered a torn frame?!
                Err(_) => false,       // daemon kept us hanging
            };
            assert!(reaped, "slow-loris connection was not reaped");
        };
        let mid_frame_disconnect = |_round: u64| {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"STATUS 1").expect("half frame");
            drop(s); // vanish mid-frame
        };
        let duplicate_submit = |round: u64| {
            let mut c1 = JobClient::connect(addr).expect("connect");
            let mut c2 = JobClient::connect(addr).expect("connect");
            let first = c1.submit("dup", round, SMALL).expect("submit");
            let second = c2.submit("dup", round, SMALL).expect("resubmit");
            let JobResponse::Accepted(a) = first else { panic!("{first:?}") };
            let JobResponse::Accepted(b) = second else { panic!("{second:?}") };
            assert_eq!(a, b, "duplicate nonce must replay the same job id");
        };
        let poison_job = |round: u64| {
            let mut c = JobClient::connect(addr).expect("connect");
            let tenant = format!("poison{round}");
            let resp = c.submit(&tenant, 1, POISON_SPEC).expect("submit");
            let JobResponse::Accepted(id) = resp else { panic!("{resp:?}") };
            assert_eq!(wait_terminal(&mut c, id), JobState::Failed);
        };
        let clients: [&dyn Fn(u64); 4] =
            [&slow_loris, &mid_frame_disconnect, &duplicate_submit, &poison_job];
        for round in 1..=2 {
            for client in clients {
                client(round);
                // The daemon survived the client: a fresh connection
                // still gets a HEALTH reply.
                let mut probe = JobClient::connect(addr).expect("reconnect");
                assert!(matches!(probe.health().expect("health"), JobResponse::Health { .. }));
            }
        }
    }

    #[test]
    fn queue_full_rejection_is_immediate_over_the_wire() {
        // A full queue and no workers draining it: the second submit
        // must come back `queue-full` instantly, not hang waiting for
        // a slot.
        let cfg = SchedConfig {
            workers: 1,
            queue_cap: 1,
            tenant_quota: 1,
            breaker_threshold: 1000,
            quantum: 1,
        };
        let storage = MemStorage::new();
        let sched = Arc::new(
            Scheduler::recover(cfg, factory(), Arc::new(storage)).expect("recover"),
        );
        let daemon = Daemon::bind("127.0.0.1:0", Arc::clone(&sched)).expect("bind");
        let addr = daemon.local_addr().expect("addr");
        std::thread::spawn(move || daemon.serve_forever());
        let mut client = JobClient::connect(addr).expect("connect");
        let first = client.submit("alice", 1, SMALL).expect("submit");
        assert!(matches!(first, JobResponse::Accepted(_)));
        let started = std::time::Instant::now();
        let second = client.submit("bob", 1, SMALL).expect("submit");
        assert_eq!(second, JobResponse::Rejected(RejectReason::QueueFull));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "a typed rejection must never block on the queued job"
        );
    }
}
