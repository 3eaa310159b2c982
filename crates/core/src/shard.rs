//! Sharded sweep runtime: contiguous shard ranges, per-shard
//! write-ahead journals, a coordinator lease ledger, and a
//! deterministic merge that reconstructs the canonical journal
//! byte-identical to a serial run.
//!
//! The single-process runtime ([`crate::harness`]) caps out at one
//! machine's worth of pool workers and one journal. This module breaks
//! the process ceiling while keeping every crash/resume guarantee:
//!
//! * **Partition** — [`partition`] splits the canonical cell expansion
//!   into contiguous, near-equal [`ShardRange`]s. Contiguity is
//!   load-bearing: a shard journal is then an *execution prefix of a
//!   range*, so the same torn-tail recovery as the main journal applies.
//! * **Per-shard journals** — a shard process journals [`WorkLine`]s:
//!   the pure [`CellWork`] of each cell, *not* committed records.
//!   Supervision state (virtual clock, circuit breakers) is global and
//!   only advances at commit, and a shard sees none of the cells
//!   before its range, so shards execute every cell speculatively —
//!   without the breaker check pool workers make — and the merge
//!   commits.
//! * **Coordinator ledger** — the coordinator journals a [`CoordLine`]
//!   per lease *before* spawning the shard (write-ahead: no shard file
//!   can exist without a durable lease) and a completion line when a
//!   shard exits cleanly. Resume re-reads the ledger, truncates every
//!   journal to its valid prefix, and re-leases whatever is missing.
//! * **Work-stealing** — [`plan_leases`] splits the largest remaining
//!   run of unjournaled cells until every shard slot has work, so a
//!   nearly-finished resume still uses all its processes.
//! * **Deterministic merge** — [`merge`] replays every journaled work
//!   in canonical order through the sweep's commit path. Because
//!   [`crate::harness::Sweep::execute_cell`] is a pure function of the
//!   cell id and commit order is canonical, the merged journal and
//!   report are byte-identical to a single-process serial run — for
//!   any shard count, any worker count, and any crash/resume history.
//!
//! The effects analyzer (`repolint --effects`) proves this module's
//! determinism transitively via the `core::shard::merge` root: no
//! wall-clock reads (shard stalls sleep in the CLI layer, never here)
//! and only ordered containers (`BTreeMap`/`BTreeSet`).

use crate::fault::{FaultKind, FaultPlan, FaultSite};
use crate::harness::{
    append_record, check_header, derive_seed, json_line, split_lines, CellId, CellWork,
    JournalError, JournalHeader, JournalSink, MemoryJournal, MismatchField, Sweep, SweepConfig,
    SweepReport, SALT_SHARD,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A contiguous half-open range `[start, end)` of canonical cell
/// indices owned by one shard lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRange {
    /// First cell index (inclusive).
    pub start: u64,
    /// One past the last cell index (exclusive).
    pub end: u64,
}

impl ShardRange {
    /// Number of cells in the range.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the range holds no cells.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

impl std::fmt::Display for ShardRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{},{})", self.start, self.end)
    }
}

/// Split `total` cells into at most `shards` contiguous, near-equal
/// ranges in canonical order. Every cell lands in exactly one range;
/// range sizes differ by at most one; fewer ranges come back when
/// `total < shards` (a shard is never leased an empty range).
pub fn partition(total: u64, shards: usize) -> Vec<ShardRange> {
    let shards = (shards.max(1) as u64).min(total);
    let mut out = Vec::with_capacity(shards as usize);
    let mut start = 0;
    for i in 0..shards {
        // First `total % shards` ranges take the extra cell.
        let len = total / shards + u64::from(i < total % shards);
        out.push(ShardRange { start, end: start + len });
        start += len;
    }
    out
}

/// One shard lease: a sequence number (which names the shard journal
/// file) and the range it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lease {
    /// Ledger-unique lease number, assigned in issue order.
    pub seq: u64,
    /// First cell index (inclusive).
    pub start: u64,
    /// One past the last cell index (exclusive).
    pub end: u64,
}

impl Lease {
    /// The range this lease owns.
    pub fn range(&self) -> ShardRange {
        ShardRange { start: self.start, end: self.end }
    }
}

/// First line of a shard journal: the standard header fields plus the
/// lease identity, so a shard file can never replay into the wrong
/// range. (The shared fields are inlined rather than nested — journal
/// lines are flat JSON objects.)
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardHeader {
    /// Layout version ([`crate::harness::JOURNAL_VERSION`]).
    pub version: u32,
    /// [`SweepConfig::fingerprint`] of the sweep.
    pub fingerprint: String,
    /// Matrix size.
    pub total_cells: u64,
    /// Memoization scheme ([`crate::cache::SCHEME`]).
    pub cache: String,
    /// Lease number this file belongs to.
    pub seq: u64,
    /// First cell index of the lease.
    pub start: u64,
    /// One past the last cell index of the lease.
    pub end: u64,
}

impl ShardHeader {
    /// The header a shard writes for `lease` under `config`.
    pub fn for_lease(config: &SweepConfig, lease: Lease) -> Self {
        let JournalHeader { version, fingerprint, total_cells, cache } =
            JournalHeader::for_config(config);
        ShardHeader {
            version,
            fingerprint,
            total_cells,
            cache,
            seq: lease.seq,
            start: lease.start,
            end: lease.end,
        }
    }

    /// The shared header fields, for [`check_header`].
    fn base(&self) -> JournalHeader {
        JournalHeader {
            version: self.version,
            fingerprint: self.fingerprint.clone(),
            total_cells: self.total_cells,
            cache: self.cache.clone(),
        }
    }

    /// The newline-terminated journal line.
    pub fn line(&self) -> Result<String, String> {
        json_line(self)
    }
}

/// One journaled cell execution: the write-ahead unit of a shard
/// journal. Stores the pure [`CellWork`], not a committed record —
/// clock and breaker state are global and belong to the merge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkLine {
    /// Position in the canonical expansion.
    pub index: u64,
    /// Which cell (cross-checked against the expansion on replay).
    pub cell: CellId,
    /// The cell's pure execution result.
    pub work: CellWork,
}

impl WorkLine {
    /// The newline-terminated journal line.
    pub fn line(&self) -> Result<String, String> {
        json_line(self)
    }
}

/// The replayable prefix of one shard journal.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReplay {
    /// Journaled works, contiguous from the lease's `start` (the i-th
    /// entry is cell index `start + i`).
    pub works: Vec<CellWork>,
    /// Byte length of the valid prefix; truncate the file to this
    /// before appending.
    pub valid_bytes: u64,
    /// Whether a torn or corrupt trailing line was dropped.
    pub dropped_partial: bool,
    /// Whether the valid prefix includes the header line.
    pub has_header: bool,
}

impl ShardReplay {
    /// The empty replay (fresh shard).
    pub fn empty() -> Self {
        ShardReplay { works: Vec::new(), valid_bytes: 0, dropped_partial: false, has_header: false }
    }
}

/// Parse one shard journal against `config` and the lease it must
/// belong to. Same recovery policy as the main journal: the trailing
/// line may be torn or corrupt (dropped; its cell re-runs), earlier
/// damage is [`JournalError::Corrupt`], and a header that names a
/// different lease or range is a typed [`JournalError::Mismatch`].
pub fn parse_shard_journal(
    text: &str,
    config: &SweepConfig,
    lease: Lease,
) -> Result<ShardReplay, JournalError> {
    let lines = split_lines(text);
    if lines.is_empty() {
        return Ok(ShardReplay::empty());
    }
    let cells = config.expand();
    let last = lines.len() - 1;

    let (head_text, head_end, head_terminated) = lines[0];
    let header: ShardHeader = match serde_json::from_str(head_text) {
        Ok(h) => h,
        Err(e) => {
            if last == 0 && !head_terminated {
                return Ok(ShardReplay {
                    works: Vec::new(),
                    valid_bytes: 0,
                    dropped_partial: true,
                    has_header: false,
                });
            }
            return Err(JournalError::Corrupt { line: 0, message: e.to_string() });
        }
    };
    if !head_terminated {
        return Ok(ShardReplay {
            works: Vec::new(),
            valid_bytes: 0,
            dropped_partial: true,
            has_header: false,
        });
    }
    check_header(&header.base(), config, cells.len())?;
    if header.seq != lease.seq {
        return Err(JournalError::mismatch(
            MismatchField::ShardLease,
            format!("lease {}", header.seq),
            format!("lease {}", lease.seq),
        ));
    }
    if header.start != lease.start || header.end != lease.end {
        return Err(JournalError::mismatch(
            MismatchField::ShardRange,
            ShardRange { start: header.start, end: header.end }.to_string(),
            lease.range().to_string(),
        ));
    }

    let mut works = Vec::new();
    let mut valid_bytes = head_end;
    let mut dropped_partial = false;
    for (n, &(line, end, terminated)) in lines.iter().enumerate().skip(1) {
        let trailing = n == last;
        let parsed: Result<WorkLine, String> = serde_json::from_str(line)
            .map_err(|e| e.to_string())
            .and_then(|wl: WorkLine| {
                let expect = lease.start + works.len() as u64;
                if wl.index != expect {
                    return Err(format!("index {} out of order (expected {expect})", wl.index));
                }
                if wl.index >= lease.end {
                    return Err(format!("index {} outside lease range {}", wl.index, lease.range()));
                }
                match cells.get(wl.index as usize) {
                    Some(cell) if *cell == wl.cell => Ok(wl),
                    Some(cell) => {
                        Err(format!("cell {} (expected {})", wl.cell.key(), cell.key()))
                    }
                    None => Err(format!("index {} outside the matrix", wl.index)),
                }
            })
            .and_then(|wl| {
                if terminated {
                    Ok(wl)
                } else {
                    Err("torn write (missing trailing newline)".to_string())
                }
            });
        match parsed {
            Ok(wl) => {
                works.push(wl.work);
                valid_bytes = end;
            }
            Err(_) if trailing => {
                dropped_partial = true;
                break;
            }
            Err(message) => return Err(JournalError::Corrupt { line: n, message }),
        }
    }
    Ok(ShardReplay { works, valid_bytes, dropped_partial, has_header: true })
}

/// Execute the unfinished remainder of `lease`, appending one
/// [`WorkLine`] to `sink` per cell (write-ahead) — the body of the
/// `sweep-shard` child process. Cells run with the sweep's configured
/// worker count, speculatively (no breaker consult: breakers are
/// global state that only the merge may consult), and the memo
/// attached to `sweep` stays process-local.
pub fn run_shard(
    sweep: &Sweep,
    lease: Lease,
    replay: &ShardReplay,
    sink: &mut dyn JournalSink,
) -> Result<(), String> {
    crate::harness::install_quiet_hook();
    let cells = sweep.config().expand();
    if lease.end as usize > cells.len() || lease.start > lease.end {
        return Err(format!(
            "lease {} range {} outside the {}-cell matrix",
            lease.seq,
            lease.range(),
            cells.len()
        ));
    }
    if lease.start + replay.works.len() as u64 > lease.end {
        return Err(format!(
            "lease {} has {} journaled works but only {} cells",
            lease.seq,
            replay.works.len(),
            lease.range().len()
        ));
    }
    if !replay.has_header {
        sink.append(&ShardHeader::for_lease(sweep.config(), lease).line()?)?;
    }
    let start_at = (lease.start as usize) + replay.works.len();
    let slice = &cells[start_at..lease.end as usize];
    crate::pool::run_ordered(
        sweep.workers(),
        slice,
        |cell| sweep.execute_cell(cell),
        |offset, work| {
            let index = (start_at + offset) as u64;
            sink.append(&WorkLine { index, cell: slice[offset], work }.line()?)
        },
    )?;
    Ok(())
}

/// First line of the coordinator journal: the standard header fields
/// plus the shard count, so a resume with a different `--shards` is
/// rejected with a typed error instead of silently re-partitioning.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoordHeader {
    /// Layout version ([`crate::harness::JOURNAL_VERSION`]).
    pub version: u32,
    /// [`SweepConfig::fingerprint`] of the sweep.
    pub fingerprint: String,
    /// Matrix size.
    pub total_cells: u64,
    /// Memoization scheme ([`crate::cache::SCHEME`]).
    pub cache: String,
    /// Shard slots the coordinator runs.
    pub shards: u64,
}

impl CoordHeader {
    /// The header for a coordinator running `shards` slots of `config`.
    pub fn new(config: &SweepConfig, shards: usize) -> Self {
        let JournalHeader { version, fingerprint, total_cells, cache } =
            JournalHeader::for_config(config);
        CoordHeader { version, fingerprint, total_cells, cache, shards: shards as u64 }
    }

    /// The shared header fields, for [`check_header`].
    fn base(&self) -> JournalHeader {
        JournalHeader {
            version: self.version,
            fingerprint: self.fingerprint.clone(),
            total_cells: self.total_cells,
            cache: self.cache.clone(),
        }
    }

    /// The newline-terminated journal line.
    pub fn line(&self) -> Result<String, String> {
        json_line(self)
    }
}

/// One line of the coordinator's lease ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoordLine {
    /// A lease was issued (journaled *before* the shard is spawned, so
    /// no shard file can exist without a durable lease).
    Lease {
        /// The issued lease.
        lease: Lease,
    },
    /// The leased shard exited cleanly with its range fully journaled.
    Done {
        /// Which lease finished.
        seq: u64,
    },
}

impl CoordLine {
    /// The newline-terminated journal line.
    pub fn line(&self) -> Result<String, String> {
        json_line(self)
    }
}

/// The replayable prefix of a coordinator journal.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordReplay {
    /// Every issued lease, in seq order.
    pub leases: Vec<Lease>,
    /// Seqs of leases whose shard exited cleanly.
    pub done: BTreeSet<u64>,
    /// Byte length of the valid prefix; truncate the file to this
    /// before appending.
    pub valid_bytes: u64,
    /// Whether a torn or corrupt trailing line was dropped.
    pub dropped_partial: bool,
    /// Whether the valid prefix includes the header line.
    pub has_header: bool,
}

impl CoordReplay {
    /// The empty replay (fresh coordinator).
    pub fn empty() -> Self {
        CoordReplay {
            leases: Vec::new(),
            done: BTreeSet::new(),
            valid_bytes: 0,
            dropped_partial: false,
            has_header: false,
        }
    }

    /// The next unused lease number.
    pub fn next_seq(&self) -> u64 {
        self.leases.len() as u64
    }
}

/// Parse a coordinator journal against `config` and the requested
/// shard count. Recovery policy mirrors the other journals: trailing
/// tear dropped, earlier damage is [`JournalError::Corrupt`], and a
/// header disagreement — including a different shard count — is a
/// typed [`JournalError::Mismatch`].
pub fn parse_coord_journal(
    text: &str,
    config: &SweepConfig,
    shards: usize,
) -> Result<CoordReplay, JournalError> {
    let lines = split_lines(text);
    if lines.is_empty() {
        return Ok(CoordReplay::empty());
    }
    let total = config.total_cells() as u64;
    let last = lines.len() - 1;

    let (head_text, head_end, head_terminated) = lines[0];
    let header: CoordHeader = match serde_json::from_str(head_text) {
        Ok(h) => h,
        Err(e) => {
            if last == 0 && !head_terminated {
                return Ok(CoordReplay { dropped_partial: true, ..CoordReplay::empty() });
            }
            return Err(JournalError::Corrupt { line: 0, message: e.to_string() });
        }
    };
    if !head_terminated {
        return Ok(CoordReplay { dropped_partial: true, ..CoordReplay::empty() });
    }
    check_header(&header.base(), config, config.total_cells())?;
    if header.shards != shards as u64 {
        return Err(JournalError::mismatch(
            MismatchField::ShardCount,
            header.shards.to_string(),
            shards.to_string(),
        ));
    }

    let mut replay = CoordReplay {
        leases: Vec::new(),
        done: BTreeSet::new(),
        valid_bytes: head_end,
        dropped_partial: false,
        has_header: true,
    };
    for (n, &(line, end, terminated)) in lines.iter().enumerate().skip(1) {
        let trailing = n == last;
        let parsed: Result<CoordLine, String> = serde_json::from_str(line)
            .map_err(|e| e.to_string())
            .and_then(|cl: CoordLine| match cl {
                CoordLine::Lease { lease } => {
                    let expect = replay.leases.len() as u64;
                    if lease.seq != expect {
                        return Err(format!("lease {} out of order (expected {expect})", lease.seq));
                    }
                    if lease.start > lease.end || lease.end > total {
                        return Err(format!(
                            "lease {} range {} outside the {total}-cell matrix",
                            lease.seq,
                            lease.range()
                        ));
                    }
                    Ok(cl)
                }
                CoordLine::Done { seq } => {
                    if seq >= replay.leases.len() as u64 {
                        return Err(format!("done line for unissued lease {seq}"));
                    }
                    Ok(cl)
                }
            })
            .and_then(|cl| {
                if terminated {
                    Ok(cl)
                } else {
                    Err("torn write (missing trailing newline)".to_string())
                }
            });
        match parsed {
            Ok(CoordLine::Lease { lease }) => {
                replay.leases.push(lease);
                replay.valid_bytes = end;
            }
            Ok(CoordLine::Done { seq }) => {
                replay.done.insert(seq);
                replay.valid_bytes = end;
            }
            Err(_) if trailing => {
                replay.dropped_partial = true;
                break;
            }
            Err(message) => return Err(JournalError::Corrupt { line: n, message }),
        }
    }
    Ok(replay)
}

/// The contiguous runs of cell indices in `[0, total)` that no
/// journaled work covers yet — the cells a resume must still execute.
pub fn remaining_runs(total: u64, works: &BTreeMap<u64, CellWork>) -> Vec<ShardRange> {
    let mut runs = Vec::new();
    let mut open: Option<u64> = None;
    for i in 0..total {
        match (works.contains_key(&i), open) {
            (false, None) => open = Some(i),
            (true, Some(start)) => {
                runs.push(ShardRange { start, end: i });
                open = None;
            }
            _ => {}
        }
    }
    if let Some(start) = open {
        runs.push(ShardRange { start, end: total });
    }
    runs
}

/// Turn the remaining runs into fresh leases for up to `slots` shard
/// processes, numbering them from `next_seq` in range order.
///
/// Work-stealing: while fewer runs than slots exist, the largest run
/// (ties broken toward the lowest start) is split at its midpoint —
/// the unclaimed tail of a long-running range is stolen by an idle
/// slot instead of leaving it to one straggler.
pub fn plan_leases(runs: &[ShardRange], slots: usize, next_seq: u64) -> Vec<Lease> {
    let mut runs: Vec<ShardRange> = runs.iter().copied().filter(|r| !r.is_empty()).collect();
    let slots = slots.max(1);
    while runs.len() < slots {
        // Largest splittable run, lowest start on ties.
        let target = runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.len() >= 2)
            .max_by(|(ai, a), (bi, b)| a.len().cmp(&b.len()).then(bi.cmp(ai)))
            .map(|(i, _)| i);
        let Some(i) = target else { break };
        let run = runs[i];
        let mid = run.start + run.len() / 2;
        runs[i] = ShardRange { start: run.start, end: mid };
        runs.insert(i + 1, ShardRange { start: mid, end: run.end });
    }
    runs.sort_by_key(|r| r.start);
    runs.iter()
        .enumerate()
        .map(|(i, r)| Lease { seq: next_seq + i as u64, start: r.start, end: r.end })
        .collect()
}

/// A shard-site fault the CLI injects into a shard child process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The process dies (SIGKILL-equivalent) before journaling the
    /// cell; the coordinator restarts the lease.
    Crash,
    /// The process is descheduled briefly before journaling the cell;
    /// the journal content is unchanged.
    Stall,
}

/// Roll the shard-site fault for one cell of a shard child. Pure
/// function of the cell and the lease's restart `generation` —
/// mixing the generation in is what keeps a deterministic crash from
/// re-firing identically on every respawn and pinning the shard in a
/// restart loop. Under [`crate::fault::FaultProfile::None`] this never
/// fires and draws no RNG.
pub fn roll_shard_fault(cell: CellId, generation: u32) -> Option<ShardFault> {
    let mut injector =
        FaultPlan::new(cell.profile, derive_seed(cell, generation, SALT_SHARD)).injector();
    if let Some(id) = injector.roll(FaultSite::Shard, FaultKind::ShardCrash) {
        // The coordinator's respawn absorbs the crash by construction;
        // the ledger entry never reaches a journal (shard faults strike
        // the machinery, not the cell outcome).
        injector.absorb(id);
        return Some(ShardFault::Crash);
    }
    if let Some(id) = injector.roll(FaultSite::Shard, FaultKind::ShardStall) {
        injector.absorb(id);
        return Some(ShardFault::Stall);
    }
    None
}

/// Commit every journaled work in canonical order through `sweep`'s
/// commit-and-append step (the one [`Sweep::run_slice`] uses), writing
/// the standard journal into `sink` and returning the assembled report
/// — both byte-identical to a serial run.
///
/// Breaker-skipped cells need no work (shards execute them
/// speculatively; their journaled works are discarded here exactly as
/// [`Sweep::commit_cell`] discards a cell whose class tripped after its
/// worker looked); a *non*-skipped cell with no journaled work means
/// the shard coverage is incomplete and the merge refuses rather than
/// fabricating a record.
pub fn merge(
    sweep: &Sweep,
    works: &BTreeMap<u64, CellWork>,
    sink: &mut dyn JournalSink,
) -> Result<SweepReport, String> {
    let cells = sweep.config().expand();
    sink.append(&json_line(&JournalHeader::for_config(sweep.config()))?)?;
    let mut records = Vec::with_capacity(cells.len());
    let mut clock = 0u64;
    let mut breaker: BTreeMap<String, u32> = BTreeMap::new();
    for (i, &cell) in cells.iter().enumerate() {
        let work = if sweep.breaker_tripped(&breaker, cell) {
            None
        } else {
            Some(works.get(&(i as u64)).cloned().ok_or_else(|| {
                format!("shard merge incomplete: no journaled work for cell {i} ({})", cell.key())
            })?)
        };
        let record = sweep.commit_cell(cell, work, &mut clock, &mut breaker);
        records.push(append_record(sink, i, record)?);
    }
    Ok(sweep.assemble(records, clock))
}

/// Run the whole matrix sharded *in-process* — partition, run each
/// shard into its own in-memory journal, parse them back, and merge
/// into `sink`. The bench and the property tests use this to measure
/// and verify the shard pipeline (journaling serde included) without
/// process spawns; the CLI coordinator is the multi-process analogue.
pub fn run_sharded(
    sweep: &Sweep,
    shards: usize,
    sink: &mut dyn JournalSink,
) -> Result<SweepReport, String> {
    let total = sweep.config().total_cells() as u64;
    let mut works: BTreeMap<u64, CellWork> = BTreeMap::new();
    for (seq, range) in partition(total, shards).into_iter().enumerate() {
        let lease = Lease { seq: seq as u64, start: range.start, end: range.end };
        let mut shard_sink = MemoryJournal::new();
        run_shard(sweep, lease, &ShardReplay::empty(), &mut shard_sink)?;
        let replay = parse_shard_journal(shard_sink.text(), sweep.config(), lease)
            .map_err(|e| e.to_string())?;
        for (offset, work) in replay.works.into_iter().enumerate() {
            works.insert(lease.start + offset as u64, work);
        }
    }
    merge(sweep, &works, sink)
}

/// Collect the works of a parsed shard replay into the merge map.
pub fn collect_works(lease: Lease, replay: &ShardReplay, works: &mut BTreeMap<u64, CellWork>) {
    for (offset, work) in replay.works.iter().enumerate() {
        works.insert(lease.start + offset as u64, work.clone());
    }
}

/// How much of the matrix the journaled works cover: `(covered cells,
/// still-missing runs)`. The coordinator prints this as its
/// partial-coverage report when the restart cap is exhausted.
pub fn coverage_of(total: u64, works: &BTreeMap<u64, CellWork>) -> (u64, Vec<ShardRange>) {
    let runs = remaining_runs(total, works);
    let missing: u64 = runs.iter().map(ShardRange::len).sum();
    (total - missing, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultProfile;
    use crate::harness::TaskLimits;
    use crate::paper::TargetSystem;
    use crate::prompt::PromptStyle;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            systems: vec![TargetSystem::RockPaperScissors, TargetSystem::NcFlow],
            styles: vec![PromptStyle::ModularText],
            seeds: vec![0, 1],
            profiles: vec![FaultProfile::None, FaultProfile::Chaos],
            scales: vec![crate::harness::TopoScale::Paper],
            limits: TaskLimits::default(),
        }
    }

    /// 5 seeds of one class with threshold 3: cells 0..2 quarantine,
    /// 3..4 are skipped by the breaker — the config where shards
    /// speculatively execute cells the serial run never touches.
    fn tripping_config() -> SweepConfig {
        SweepConfig {
            systems: vec![TargetSystem::NcFlow],
            styles: vec![PromptStyle::ModularText],
            seeds: (0..5).collect(),
            profiles: vec![FaultProfile::None],
            scales: vec![crate::harness::TopoScale::Paper],
            limits: TaskLimits {
                deadline_steps: 5,
                breaker_threshold: 3,
                ..TaskLimits::default()
            },
        }
    }

    fn serial_run(cfg: &SweepConfig) -> (SweepReport, String) {
        let mut sink = MemoryJournal::new();
        let report = Sweep::new(cfg.clone()).run(&mut sink).unwrap();
        (report, sink.text().to_string())
    }

    #[test]
    fn partition_covers_exactly_and_evenly() {
        for total in [0u64, 1, 2, 7, 16, 112] {
            for shards in [1usize, 2, 3, 4, 8, 200] {
                let ranges = partition(total, shards);
                assert!(ranges.len() <= shards.max(1));
                assert!(ranges.len() as u64 <= total.max(u64::from(total == 0)));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous at total={total} shards={shards}");
                    assert!(!r.is_empty(), "no empty leases at total={total} shards={shards}");
                    next = r.end;
                }
                assert_eq!(next, total, "covers the matrix at total={total} shards={shards}");
                if let (Some(max), Some(min)) =
                    (ranges.iter().map(|r| r.len()).max(), ranges.iter().map(|r| r.len()).min())
                {
                    assert!(max - min <= 1, "near-equal at total={total} shards={shards}");
                }
            }
        }
    }

    #[test]
    fn sharded_run_matches_serial_bytes() {
        let cfg = tiny_config();
        let (serial, serial_text) = serial_run(&cfg);
        for shards in [1usize, 2, 4] {
            let sweep = Sweep::new(cfg.clone());
            let mut sink = MemoryJournal::new();
            let report = run_sharded(&sweep, shards, &mut sink).unwrap();
            assert_eq!(report.render_json(), serial.render_json(), "shards={shards}");
            assert_eq!(sink.text(), serial_text, "shards={shards}");
        }
    }

    #[test]
    fn sharded_run_with_pool_workers_matches_serial_bytes() {
        let cfg = tiny_config();
        let (serial, serial_text) = serial_run(&cfg);
        let sweep = Sweep::new(cfg).with_workers(2);
        let mut sink = MemoryJournal::new();
        let report = run_sharded(&sweep, 2, &mut sink).unwrap();
        assert_eq!(report.render_json(), serial.render_json());
        assert_eq!(sink.text(), serial_text);
    }

    #[test]
    fn merge_rebuilds_breaker_across_shard_boundaries() {
        // The tripping class spans both shards: shard 0 journals the
        // quarantining cells, shard 1 speculatively executes cells the
        // breaker will skip — the merge must discard them and commit
        // SkippedByBreaker, byte-identical to serial.
        let cfg = tripping_config();
        let (serial, serial_text) = serial_run(&cfg);
        assert_eq!(serial.coverage.quarantined, 3);
        assert_eq!(serial.coverage.skipped_by_breaker, 2);
        for shards in [2usize, 4] {
            let sweep = Sweep::new(cfg.clone());
            let mut sink = MemoryJournal::new();
            let report = run_sharded(&sweep, shards, &mut sink).unwrap();
            assert_eq!(report.render_json(), serial.render_json(), "shards={shards}");
            assert_eq!(sink.text(), serial_text, "shards={shards}");
        }
    }

    #[test]
    fn two_shards_killed_mid_same_class_recover_byte_identically() {
        // Both shards of the tripping class die mid-range (simulated:
        // their journals hold a strict prefix of their works). Resume
        // re-leases the remainders, finishes them, and the merge must
        // still rebuild breaker state correctly across the boundary.
        let cfg = tripping_config();
        let (serial, serial_text) = serial_run(&cfg);
        let sweep = Sweep::new(cfg.clone());
        let total = cfg.total_cells() as u64;
        let ranges = partition(total, 2);
        let mut works: BTreeMap<u64, CellWork> = BTreeMap::new();
        for (seq, range) in ranges.iter().enumerate() {
            let lease = Lease { seq: seq as u64, start: range.start, end: range.end };
            let mut sink = MemoryJournal::new();
            run_shard(&sweep, lease, &ShardReplay::empty(), &mut sink).unwrap();
            // Kill mid-range: keep header + 1 work line only.
            let kept: String = sink.text().split_inclusive('\n').take(2).collect();
            let replay = parse_shard_journal(&kept, &cfg, lease).unwrap();
            assert_eq!(replay.works.len(), 1, "shard {seq}");
            collect_works(lease, &replay, &mut works);
        }
        // Re-lease the two holes and finish them.
        let runs = remaining_runs(total, &works);
        assert_eq!(runs.len(), 2, "one hole per killed shard: {runs:?}");
        for lease in plan_leases(&runs, 2, 2) {
            let mut sink = MemoryJournal::new();
            run_shard(&sweep, lease, &ShardReplay::empty(), &mut sink).unwrap();
            let replay = parse_shard_journal(sink.text(), &cfg, lease).unwrap();
            collect_works(lease, &replay, &mut works);
        }
        let mut sink = MemoryJournal::new();
        let report = merge(&sweep, &works, &mut sink).unwrap();
        assert_eq!(report.render_json(), serial.render_json());
        assert_eq!(sink.text(), serial_text);
    }

    #[test]
    fn empty_shard_and_header_only_journals_resume_cleanly() {
        let cfg = tiny_config();
        let (serial, serial_text) = serial_run(&cfg);
        let sweep = Sweep::new(cfg.clone());
        let total = cfg.total_cells() as u64;
        let ranges = partition(total, 2);
        let lease0 = Lease { seq: 0, start: ranges[0].start, end: ranges[0].end };
        let lease1 = Lease { seq: 1, start: ranges[1].start, end: ranges[1].end };

        // Shard 0 was leased but died before its first append: no
        // journal text at all (the lease line is durable, the file is
        // empty). Shard 1 died right after the header.
        let empty = parse_shard_journal("", &cfg, lease0).unwrap();
        assert_eq!(empty, ShardReplay::empty());
        let mut sink1 = MemoryJournal::new();
        run_shard(&sweep, lease1, &ShardReplay::empty(), &mut sink1).unwrap();
        let header_only: String = sink1.text().split_inclusive('\n').take(1).collect();
        let ho = parse_shard_journal(&header_only, &cfg, lease1).unwrap();
        assert!(ho.has_header && ho.works.is_empty() && !ho.dropped_partial);
        assert_eq!(ho.valid_bytes as usize, header_only.len());

        // Resume both from their replays: shard 1 must not rewrite its
        // header, and the finished journals merge byte-identically.
        let mut works: BTreeMap<u64, CellWork> = BTreeMap::new();
        let mut sink0 = MemoryJournal::new();
        run_shard(&sweep, lease0, &empty, &mut sink0).unwrap();
        collect_works(lease0, &parse_shard_journal(sink0.text(), &cfg, lease0).unwrap(), &mut works);
        let mut resumed1 = MemoryJournal::with_text(&header_only);
        run_shard(&sweep, lease1, &ho, &mut resumed1).unwrap();
        assert_eq!(resumed1.text(), sink1.text(), "resume must extend, not rewrite");
        collect_works(
            lease1,
            &parse_shard_journal(resumed1.text(), &cfg, lease1).unwrap(),
            &mut works,
        );
        let mut merged = MemoryJournal::new();
        let report = merge(&sweep, &works, &mut merged).unwrap();
        assert_eq!(report.render_json(), serial.render_json());
        assert_eq!(merged.text(), serial_text);
    }

    #[test]
    fn torn_shard_tail_is_dropped_and_rerun() {
        let cfg = tiny_config();
        let sweep = Sweep::new(cfg.clone());
        let lease = Lease { seq: 0, start: 0, end: cfg.total_cells() as u64 };
        let mut sink = MemoryJournal::new();
        run_shard(&sweep, lease, &ShardReplay::empty(), &mut sink).unwrap();
        let text = sink.text().to_string();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let keep: String = lines[..lines.len() - 1].concat();
        let torn = format!("{keep}{}", &lines[lines.len() - 1][..12]);
        let replay = parse_shard_journal(&torn, &cfg, lease).unwrap();
        assert!(replay.dropped_partial);
        assert_eq!(replay.works.len(), cfg.total_cells() - 1);
        assert_eq!(replay.valid_bytes as usize, keep.len());
        let mut resumed = MemoryJournal::with_text(&keep);
        run_shard(&sweep, lease, &replay, &mut resumed).unwrap();
        assert_eq!(resumed.text(), text);
    }

    #[test]
    fn shard_header_mismatches_are_typed() {
        let cfg = tiny_config();
        let sweep = Sweep::new(cfg.clone());
        let lease = Lease { seq: 3, start: 0, end: 2 };
        let mut sink = MemoryJournal::new();
        run_shard(&sweep, lease, &ShardReplay::empty(), &mut sink).unwrap();
        // Wrong lease number.
        let wrong_seq = Lease { seq: 4, ..lease };
        match parse_shard_journal(sink.text(), &cfg, wrong_seq) {
            Err(JournalError::Mismatch { field: MismatchField::ShardLease, .. }) => {}
            other => panic!("expected a shard-lease Mismatch, got {other:?}"),
        }
        // Wrong range.
        let wrong_range = Lease { end: 3, ..lease };
        let err = parse_shard_journal(sink.text(), &cfg, wrong_range).unwrap_err();
        match &err {
            JournalError::Mismatch { field: MismatchField::ShardRange, found, expected } => {
                assert_eq!(found, "[0,2)");
                assert_eq!(expected, "[0,3)");
            }
            other => panic!("expected a shard-range Mismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("journal mismatch: shard-range"), "{err}");
        // Wrong matrix: the shared fields reject first.
        let mut other = cfg.clone();
        other.seeds = vec![0, 1, 2];
        match parse_shard_journal(sink.text(), &other, lease) {
            Err(JournalError::Mismatch { field: MismatchField::Fingerprint, .. }) => {}
            other => panic!("expected a fingerprint Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn coord_journal_round_trips_and_rejects_shard_count_change() {
        let cfg = tiny_config();
        let mut sink = MemoryJournal::new();
        sink.append(&CoordHeader::new(&cfg, 4).line().unwrap()).unwrap();
        let leases =
            plan_leases(&[ShardRange { start: 0, end: cfg.total_cells() as u64 }], 4, 0);
        for lease in &leases {
            sink.append(&CoordLine::Lease { lease: *lease }.line().unwrap()).unwrap();
        }
        sink.append(&CoordLine::Done { seq: 1 }.line().unwrap()).unwrap();
        let replay = parse_coord_journal(sink.text(), &cfg, 4).unwrap();
        assert_eq!(replay.leases, leases);
        assert!(replay.done.contains(&1) && replay.done.len() == 1);
        assert_eq!(replay.next_seq(), leases.len() as u64);
        assert_eq!(replay.valid_bytes as usize, sink.text().len());
        match parse_coord_journal(sink.text(), &cfg, 2) {
            Err(JournalError::Mismatch { field: MismatchField::ShardCount, found, expected }) => {
                assert_eq!((found.as_str(), expected.as_str()), ("4", "2"));
            }
            other => panic!("expected a shard-count Mismatch, got {other:?}"),
        }
        // Torn trailing lease line: dropped, earlier lines survive.
        let torn = format!("{}{}", sink.text(), "{\"Lease\":{\"lease\":{\"seq\":9");
        let recovered = parse_coord_journal(&torn, &cfg, 4).unwrap();
        assert!(recovered.dropped_partial);
        assert_eq!(recovered.leases, leases);
        // A done line for an unissued lease anywhere but the tail is
        // corruption, not recoverable tearing.
        let mut lines: Vec<String> =
            sink.text().split_inclusive('\n').map(str::to_string).collect();
        lines[1] = "{\"Done\":{\"seq\":77}}\n".to_string();
        match parse_coord_journal(&lines.concat(), &cfg, 4) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn remaining_runs_and_lease_planning_steal_tails() {
        let mut works: BTreeMap<u64, CellWork> = BTreeMap::new();
        let stub = CellWork {
            attempts: Vec::new(),
            result: None,
            faults: crate::harness::FaultTally::zero(),
            ticks: 0,
        };
        for i in [0u64, 1, 2, 5, 6, 11] {
            works.insert(i, stub.clone());
        }
        let runs = remaining_runs(12, &works);
        assert_eq!(
            runs,
            vec![ShardRange { start: 3, end: 5 }, ShardRange { start: 7, end: 11 }]
        );
        let (covered, missing) = coverage_of(12, &works);
        assert_eq!(covered, 6);
        assert_eq!(missing, runs);
        // Four slots over two runs: the larger run [7,11) splits once,
        // then the tied 2-cell runs split by lowest start first.
        let leases = plan_leases(&runs, 4, 10);
        assert_eq!(
            leases,
            vec![
                Lease { seq: 10, start: 3, end: 4 },
                Lease { seq: 11, start: 4, end: 5 },
                Lease { seq: 12, start: 7, end: 9 },
                Lease { seq: 13, start: 9, end: 11 },
            ]
        );
        // Single-cell runs cannot split further than their count.
        let tiny = plan_leases(&[ShardRange { start: 0, end: 1 }], 8, 0);
        assert_eq!(tiny, vec![Lease { seq: 0, start: 0, end: 1 }]);
        // No runs, no leases.
        assert!(plan_leases(&[], 4, 0).is_empty());
    }

    #[test]
    fn merge_refuses_incomplete_coverage() {
        let cfg = tiny_config();
        let sweep = Sweep::new(cfg.clone());
        let lease = Lease { seq: 0, start: 0, end: cfg.total_cells() as u64 };
        let mut sink = MemoryJournal::new();
        run_shard(&sweep, lease, &ShardReplay::empty(), &mut sink).unwrap();
        let replay = parse_shard_journal(sink.text(), &cfg, lease).unwrap();
        let mut works: BTreeMap<u64, CellWork> = BTreeMap::new();
        collect_works(lease, &replay, &mut works);
        works.remove(&1);
        let err = merge(&sweep, &works, &mut MemoryJournal::new()).unwrap_err();
        assert!(err.contains("merge incomplete"), "{err}");
        assert!(err.contains("cell 1"), "{err}");
    }

    #[test]
    fn shard_faults_are_deterministic_and_generation_sensitive() {
        let cells = SweepConfig {
            profiles: vec![FaultProfile::Chaos],
            seeds: (0..64).collect(),
            ..tiny_config()
        }
        .expand();
        // Pure: same cell and generation, same roll.
        for &cell in cells.iter().take(8) {
            assert_eq!(roll_shard_fault(cell, 0), roll_shard_fault(cell, 0));
        }
        // Chaos fires somewhere, and a later generation re-rolls: at
        // least one crashing cell must stop crashing at generation+1
        // (what breaks the deterministic respawn loop).
        let crashes: Vec<CellId> = cells
            .iter()
            .copied()
            .filter(|&c| roll_shard_fault(c, 0) == Some(ShardFault::Crash))
            .collect();
        assert!(!crashes.is_empty(), "chaos must crash at least one of 64 cells");
        assert!(
            crashes.iter().any(|&c| roll_shard_fault(c, 1) != Some(ShardFault::Crash)),
            "a respawn must be able to get past a crash"
        );
        // The none profile never fires.
        let quiet = SweepConfig { profiles: vec![FaultProfile::None], ..tiny_config() };
        for cell in quiet.expand() {
            assert_eq!(roll_shard_fault(cell, 0), None);
        }
    }
}
