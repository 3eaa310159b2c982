//! In-memory span tracing around the calls the benchmark makes into
//! each layer, plus the wrappers that record those spans: a gate
//! closure, a [`JournalSink`], a [`JobStorage`] and an [`LpSolver`].
//!
//! Spans are kept in memory and written out once the run ends, so the
//! tracer itself does no I/O while the workload runs.

use netrepro_core::harness::{GateFn, JournalSink};
use netrepro_lp::revised::RevisedSimplex;
use netrepro_lp::{LpError, LpSolver, Problem, Solution};
use netrepro_serve::JobStorage;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Request the span served (pass, job or solve number).
    pub req: u64,
    /// Layer boundary name, e.g. `gate` or `lp.solve`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// A count measured at the boundary (bytes, pivots), or 0.
    pub amount: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread into one buffer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `req`.
    pub fn span<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.span_n(name, req, || (f(), 0))
    }

    /// Like [`Tracer::span`], with `f` also returning the span's amount.
    pub fn span_n<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> (R, u64)) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        let start = self.now();
        let (out, amount) = f();
        let end = self.now();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                req,
                name,
                start,
                end,
                amount,
            });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (overlapping children count once).
/// Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur();
            };
            kids.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Sum of durations (ns) and amounts of the spans named `name`.
pub fn totals(spans: &[Span], name: &str) -> (u64, u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0, 0), |(n, d, a), s| (n + 1, d + s.dur(), a + s.amount))
}

/// The static gate exactly as the CLI wires it.
pub fn cli_gate() -> GateFn {
    Box::new(|spec, arts| {
        let (report, _) = analysis::gate::gate_artifacts(spec, arts);
        analysis::gate::static_gate(&report)
    })
}

/// The CLI gate inside a `gate` span.
pub fn traced_gate(tracer: Arc<Tracer>, req: u64) -> GateFn {
    let gate = cli_gate();
    Box::new(move |spec, arts| tracer.span("gate", req, || gate(spec, arts)))
}

/// A journal file written the way the CLI writes it: every line is
/// written and flushed before the sweep moves on.
pub struct FileJournal {
    /// The open journal.
    pub file: std::fs::File,
}

impl JournalSink for FileJournal {
    fn append(&mut self, line: &str) -> Result<(), String> {
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        self.file.flush().map_err(|e| e.to_string())
    }
}

/// A sink that records one `name` span per append, with its bytes.
pub struct TracedSink {
    /// The sink doing the writing.
    pub inner: Box<dyn JournalSink + Send>,
    /// Where spans go.
    pub tracer: Arc<Tracer>,
    /// Span name.
    pub name: &'static str,
    /// Request id stamped on every span.
    pub req: u64,
}

impl JournalSink for TracedSink {
    fn append(&mut self, line: &str) -> Result<(), String> {
        let (inner, len) = (&mut self.inner, line.len() as u64);
        self.tracer
            .span_n(self.name, self.req, || (inner.append(line), len))
    }
}

/// Daemon storage with a span around every ledger and journal call.
/// Journal appends go through a [`TracedSink`] named `storage.append`.
pub struct TracedStorage<T> {
    /// The storage doing the I/O.
    pub inner: T,
    /// Where spans go.
    pub tracer: Arc<Tracer>,
}

/// Job id named by a ledger line, and whether it is a `Done` line.
fn ledger_job(line: &str) -> Option<(u64, bool)> {
    match serde_json::from_str::<netrepro_serve::LedgerLine>(line.trim_end()).ok()? {
        netrepro_serve::LedgerLine::Submitted { job, .. } => Some((job, false)),
        netrepro_serve::LedgerLine::Done { job, .. } => Some((job, true)),
    }
}

impl<T: JobStorage> JobStorage for TracedStorage<T> {
    fn ledger_load(&self) -> Result<String, String> {
        self.tracer
            .span("storage.ledger_load", 0, || self.inner.ledger_load())
    }

    fn ledger_truncate(&self, valid_bytes: u64) -> Result<(), String> {
        self.inner.ledger_truncate(valid_bytes)
    }

    fn ledger_append(&self, line: &str) -> Result<(), String> {
        let (name, job) = match ledger_job(line) {
            Some((job, true)) => ("storage.ledger_done", job),
            Some((job, false)) => ("storage.ledger_submit", job),
            None => ("storage.ledger_header", 0),
        };
        self.tracer.span_n(name, job, || {
            (self.inner.ledger_append(line), line.len() as u64)
        })
    }

    fn journal_load(&self, job: u64) -> Result<String, String> {
        self.tracer.span_n("storage.load", job, || {
            let r = self.inner.journal_load(job);
            let n = r.as_ref().map_or(0, |t| t.len() as u64);
            (r, n)
        })
    }

    fn journal_truncate(&self, job: u64, valid_bytes: u64) -> Result<(), String> {
        self.inner.journal_truncate(job, valid_bytes)
    }

    fn journal_sink(&self, job: u64) -> Result<Box<dyn JournalSink + Send>, String> {
        let inner = self
            .tracer
            .span("storage.open", job, || self.inner.journal_sink(job))?;
        Ok(Box::new(TracedSink {
            inner,
            tracer: Arc::clone(&self.tracer),
            name: "storage.append",
            req: job,
        }))
    }
}

/// An [`LpSolver`] that delegates to [`RevisedSimplex`] and keeps every
/// problem it solved with its solution, so the run can check each one
/// for feasibility after the timed section. With a tracer it also
/// records an `lp.solve` span per call, carrying the pivot count.
pub struct CheckedLp {
    inner: RevisedSimplex,
    tracer: Option<(Arc<Tracer>, u64)>,
    solved: Mutex<Vec<(Problem, Solution)>>,
}

impl CheckedLp {
    /// A plain capturing solver, or a traced one for request `req`.
    pub fn new(tracer: Option<(Arc<Tracer>, u64)>) -> CheckedLp {
        CheckedLp {
            inner: RevisedSimplex::default(),
            tracer,
            solved: Mutex::new(Vec::new()),
        }
    }

    /// Take the captured `(problem, solution)` pairs.
    pub fn take(&self) -> Vec<(Problem, Solution)> {
        std::mem::take(&mut *self.solved.lock().expect("capture buffer poisoned"))
    }
}

impl LpSolver for CheckedLp {
    fn solve(&self, problem: &Problem) -> Result<Solution, LpError> {
        let sol = match &self.tracer {
            Some((t, req)) => t.span_n("lp.solve", *req, || {
                let r = self.inner.solve(problem);
                let pivots = r.as_ref().map_or(0, |s| s.iterations);
                (r, pivots)
            }),
            None => self.inner.solve(problem),
        }?;
        self.solved
            .lock()
            .expect("capture buffer poisoned")
            .push((problem.clone(), sol.clone()));
        Ok(sol)
    }

    fn name(&self) -> &'static str {
        "revised-simplex (checked)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: "x",
            start,
            end,
            amount: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // Overlapping children 10–30 and 20–50 cover 40 ns once.
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            // A child sticking out of its parent counts only inside it.
            span(4, Some(1), 90, 120),
            // A grandchild is charged to its own parent, not to span 1.
            span(5, Some(2), 12, 18),
            span(6, None, 200, 210),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6, 10]);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new();
        t.span("outer", 7, || {
            t.span_n("inner", 7, || ((), 42));
        });
        let spans = t.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!((inner.req, inner.amount), (7, 42));
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        let selfs = self_times(&spans);
        let outer_self = selfs[spans.iter().position(|s| s.name == "outer").unwrap()];
        assert_eq!(outer_self + inner.dur(), outer.dur());
    }
}
